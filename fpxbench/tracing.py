"""Per-layer spans for a traced run, recorded from outside the fpx package.

A Tracer patches the public entry points of each fpx module with wrappers
that time every call. Patches go where callers look the names up: `tracked`
imports classify, propagate_payload and current_session by name, so those
are patched in `fpx.tracked`; `cli` imports parse_log by name; everything
else reaches its callee through a module attribute or a class. Spans stay in
memory, aggregated per name; self time is a span's duration minus the time
of the spans it encloses, kept on a span stack. uninstall restores every
original.

Each module is a layer. Its self time summed over its spans, plus the time
no span covers (`trace.remainder_s`), adds up to the traced wall time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from fpx import cli as fpx_cli
from fpx import fpbits, stackgraph, tracked
from fpx import injector as fpx_injector
from fpx import ledger as fpx_ledger
from fpx.injector import Injector
from fpx.ledger import Ledger
from fpx.traces import ExplicitContextProvider, NativeTraceProvider

# `fpx.classify` is the function the package re-exports, not the module.
fpx_classify = sys.modules["fpx.classify"]

LAYERS = ("tracked", "session", "classify", "injector", "traces", "ledger",
          "fpbits", "stackgraph", "cli")


def unit_of(metric) -> str:
    """The unit of a per-layer metric, read from its name."""
    if metric.endswith("_us_per_call"):
        return "us"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith("_yield"):
        return "ratio"
    if metric.endswith("_x"):
        return "x"
    if metric.endswith(".frames_mean"):
        return "frames"
    return "count"


def better(metric) -> str:
    return "higher" if metric.endswith(("_yield", "_per_s")) else "lower"


def _injection(counters, result, parent):
    if result is not None:
        counters["injector.injections"] += 1


def _capture(span):
    def observe(counters, result, parent):
        counters[span + ".frames"] += len(result)
        if parent == "injector.decide":
            counters["injector.captures_in_decide"] += 1
    return observe


def _recorded(counters, result, parent):
    counters["ledger.record.accepted" if result else "ledger.record.dropped"] += 1


def _flushed(counters, result, parent):
    counters["ledger.flush.bytes"] += sum(p.stat().st_size for p in result.values())


def _parsed(counters, result, parent):
    counters["ledger.parse_log.lines"] += len(result)


def _built(counters, result, parent):
    counters["stackgraph.build.traces"] += result.trace_total
    counters["stackgraph.nodes"] += len(result.nodes)
    counters["stackgraph.edges"] += len(result.edges)


def _dot(counters, result, parent):
    counters["stackgraph.emit_dot.bytes"] += len(result.encode("utf-8"))


# (owner, attribute, span, observer). Both DOT emitters share one span, and
# parse_log is the same function under two names, so it gets one wrapper.
TARGETS = (
    (tracked, "apply", "tracked.apply", None),
    (tracked, "current_session", "session.current_session", None),
    (tracked, "classify", "classify.classify", None),
    (fpx_classify, "is_exceptional", "classify.is_exceptional", None),
    (tracked, "propagate_payload", "classify.propagate_payload", None),
    (Injector, "decide", "injector.decide", _injection),
    (fpx_injector, "trace_fingerprint", "injector.trace_fingerprint", None),
    (fpx_injector, "save_recording", "injector.save_recording", None),
    (fpx_injector, "load_recording", "injector.load_recording", None),
    (NativeTraceProvider, "capture", "traces.native.capture",
     _capture("traces.native.capture")),
    (ExplicitContextProvider, "capture", "traces.explicit.capture",
     _capture("traces.explicit.capture")),
    (Ledger, "record", "ledger.record", _recorded),
    (Ledger, "flush", "ledger.flush", _flushed),
    (fpx_ledger, "event_to_line", "ledger.event_to_line", None),
    (fpx_ledger, "parse_log", "ledger.parse_log", _parsed),
    (fpx_cli, "parse_log", "ledger.parse_log", _parsed),
    (fpbits, "hex_bits", "fpbits.hex_bits", None),
    (fpbits, "format_dec", "fpbits.format_dec", None),
    (fpbits, "from_hex_bits", "fpbits.from_hex_bits", None),
    (fpbits, "transfer_payload", "fpbits.transfer_payload", None),
    (stackgraph, "build", "stackgraph.build", _built),
    (stackgraph, "diff", "stackgraph.diff", None),
    (stackgraph, "emit_dot", "stackgraph.emit_dot", _dot),
    (stackgraph, "emit_dot_diff", "stackgraph.emit_dot", _dot),
    (fpx_cli, "cmd_cstg", "cli.cstg", None),
)


class Tracer:
    """Span statistics for one repetition: span -> [calls, total_s, self_s]."""

    def __init__(self):
        self.stats = {}
        self.counters = Counter()
        self._stack = []        # [span, seconds of enclosed spans] per open span
        self._saved = []

    def _wrap(self, span, fn, observe):
        stats = self.stats.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            entry = [span, 0.0]
            stack.append(entry)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - entry[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(counters, result, parent)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        patches = []
        for owner, attr, span, observe in TARGETS:
            original = owner.__dict__[attr]
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(span, original, observe)
            patches.append((owner, attr, original, wrappers[id(original)]))
        for owner, attr, original, wrapper in patches:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def calls(self) -> dict:
        return {span: s[0] for span, s in self.stats.items()}

    def layer_metrics(self, wall_s) -> dict:
        """The per-layer metrics of one traced repetition of wall_s seconds."""
        def calls(span):
            return self.stats.get(span, (0, 0.0, 0.0))[0]

        def total_s(span):
            return self.stats.get(span, (0, 0.0, 0.0))[1]

        def self_s(span):
            return self.stats.get(span, (0, 0.0, 0.0))[2]

        c = self.counters
        parse_s = total_s("ledger.parse_log")
        native = "traces.native.capture"
        m = {
            "tracked.apply.calls": calls("tracked.apply"),
            "tracked.apply.self_s": self_s("tracked.apply"),
            "tracked.apply.self_us_per_call":
                1e6 * self_s("tracked.apply") / max(calls("tracked.apply"), 1),
            "session.current_session.calls": calls("session.current_session"),
            "session.current_session.self_s": self_s("session.current_session"),
            "classify.classify.calls": calls("classify.classify"),
            "classify.classify.self_s": self_s("classify.classify"),
            "classify.is_exceptional.calls": calls("classify.is_exceptional"),
            "classify.propagate_payload.self_s": self_s("classify.propagate_payload"),
            "classify.event_yield":
                c["ledger.record.accepted"] / max(calls("classify.classify"), 1),
            "injector.decide.calls": calls("injector.decide"),
            "injector.decide.self_s": self_s("injector.decide"),
            "injector.injections": c["injector.injections"],
            "injector.trace_fingerprint.calls": calls("injector.trace_fingerprint"),
            "injector.trace_fingerprint.self_s": self_s("injector.trace_fingerprint"),
            "injector.save_recording.s": total_s("injector.save_recording"),
            "injector.load_recording.s": total_s("injector.load_recording"),
            "injector.capture_yield":
                c["injector.injections"] / max(c["injector.captures_in_decide"], 1),
            "traces.native.capture.calls": calls(native),
            "traces.native.capture.self_s": self_s(native),
            "traces.native.capture.frames_mean": c[native + ".frames"] / max(calls(native), 1),
            "traces.explicit.capture.calls": calls("traces.explicit.capture"),
            "traces.explicit.capture.self_s": self_s("traces.explicit.capture"),
            "ledger.record.calls": calls("ledger.record"),
            "ledger.record.accepted": c["ledger.record.accepted"],
            "ledger.record.dropped": c["ledger.record.dropped"],
            "ledger.record.self_s": self_s("ledger.record"),
            "ledger.flush.s": total_s("ledger.flush"),
            "ledger.flush.bytes": c["ledger.flush.bytes"],
            "ledger.event_to_line.self_s": self_s("ledger.event_to_line"),
            "ledger.parse_log.s": parse_s,
            "ledger.parse_log.lines_per_s":
                c["ledger.parse_log.lines"] / parse_s if parse_s else 0.0,
            "fpbits.hex_bits.calls": calls("fpbits.hex_bits"),
            "fpbits.hex_bits.self_s": self_s("fpbits.hex_bits"),
            "fpbits.format_dec.calls": calls("fpbits.format_dec"),
            "fpbits.format_dec.self_s": self_s("fpbits.format_dec"),
            "fpbits.from_hex_bits.self_s": self_s("fpbits.from_hex_bits"),
            "fpbits.transfer_payload.calls": calls("fpbits.transfer_payload"),
            "stackgraph.build.s": total_s("stackgraph.build"),
            "stackgraph.build.traces": c["stackgraph.build.traces"],
            "stackgraph.nodes": c["stackgraph.nodes"],
            "stackgraph.edges": c["stackgraph.edges"],
            "stackgraph.diff.s": total_s("stackgraph.diff"),
            "stackgraph.emit_dot.s": total_s("stackgraph.emit_dot"),
            "stackgraph.emit_dot.bytes": c["stackgraph.emit_dot.bytes"],
            "cli.cstg.self_s": self_s("cli.cstg"),
        }
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for span, (_, _, seconds) in self.stats.items():
            layer_self[span.partition(".")[0]] += seconds
        for layer, seconds in layer_self.items():
            m[f"{layer}.self_s"] = seconds
        m["trace.wall_s"] = wall_s
        m["trace.remainder_s"] = wall_s - sum(layer_self.values())
        return m
