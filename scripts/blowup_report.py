#!/usr/bin/env python3
"""Trace an unstable 1-D simulation from first overflow to NaN cascade.

Runs the heat demo with the unstable coefficient, writes the three event logs,
renders the first few gen events the way they appear in debugging sessions,
and emits stack-graph DOT files: the full gen graph plus an early-vs-late
split diff showing where the instability started.

Usage: python scripts/blowup_report.py [out_dir]
"""

import sys
from pathlib import Path

from fpx import stackgraph
from fpx.classify import EventKind, ValueClass
from fpx.demos import demo_sim
from fpx.ledger import render_human


def main() -> int:
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "blowup-report")
    out.mkdir(parents=True, exist_ok=True)

    result = demo_sim(steps=14, blowup=True)
    ledger = result.session.ledger
    ledger.flush(out)
    counts = ledger.counts()
    print("unstable run event counts:",
          " ".join(f"{k.value}={counts[k]}" for k in EventKind))

    gens = ledger.events(kind=EventKind.GEN)
    inf_gens = [e for e in gens if e.value_class is ValueClass.INF]
    nan_gens = [e for e in gens if e.value_class is ValueClass.NAN]
    print(f"\nfirst overflow (seq {inf_gens[0].seq}):")
    print(render_human(inf_gens[0]))
    print(f"\nfirst NaN (seq {nan_gens[0].seq}):")
    print(render_human(nan_gens[0]))

    traces = [e.trace for e in gens]
    graph = stackgraph.build(traces)
    (out / "gen.dot").write_text(stackgraph.emit_dot(graph), encoding="utf-8")

    head, tail = stackgraph.slice_traces(traces, 0.1)
    split = stackgraph.diff(stackgraph.build(head), stackgraph.build(tail))
    (out / "gen-split.dot").write_text(stackgraph.emit_dot_diff(split),
                                       encoding="utf-8")

    print(f"\nwrote logs, gen.dot, and gen-split.dot to {out}/")
    print("render with: dot -Tsvg gen.dot -o gen.svg")
    return 0


if __name__ == "__main__":
    sys.exit(main())
