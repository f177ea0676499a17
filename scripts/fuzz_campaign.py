#!/usr/bin/env python3
"""Fuzz the stable simulation across seeds and verify every run replays.

For each seed: fuzz with the given odds/budget, record the injections, replay
the recording, and check that the replayed ledger matches the original event
for event. Prints one line per seed and a final verdict.

Usage: python scripts/fuzz_campaign.py [n_seeds] [odds] [n_inject]
"""

import sys

from fpx.classify import EventKind
from fpx.demos import demo_sim
from fpx.injector import InjectionConfig, Injector
from fpx.session import explicit_session


def run_once(injector):
    session = explicit_session(injector=injector)
    demo_sim(steps=20, blowup=False, session=session)
    return session


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    odds = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    n_inject = int(sys.argv[3]) if len(sys.argv) > 3 else 3

    failures = 0
    for seed in range(n_seeds):
        config = InjectionConfig(odds=odds, n_inject=n_inject, seed=seed)
        fuzzed = run_once(Injector(config))
        recording = fuzzed.injector.recording
        replayed = run_once(Injector(recording=recording))
        ok = (fuzzed.ledger.events() == replayed.ledger.events()
              and not replayed.injector.unconsumed_points())
        counts = fuzzed.ledger.counts()
        print(f"seed={seed:<3d} injected={len(recording.points)} "
              f"at ops {[p.op_counter for p in recording.points]!r:<18} "
              f"gen={counts[EventKind.GEN]} prop={counts[EventKind.PROP]} "
              f"kill={counts[EventKind.KILL]} replay={'ok' if ok else 'DIVERGED'}")
        if not ok:
            failures += 1

    print(f"\n{n_seeds - failures}/{n_seeds} seeds replayed exactly")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
