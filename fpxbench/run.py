#!/usr/bin/env python3
"""The fpx benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run. Run it from the root of an fpx checkout:

    python3 fpxbench/run.py --workload blowup_report --seed 1 --seconds 20 --trace 0

`--workload all` runs the three workloads one after another. `--trace 1`
alternates untraced and traced repetitions and reports the per-layer
metrics. The last line of stdout is one JSON object: correct, attempted and
failed count correctness checks; metrics maps each name to value and unit.
The exit code is 1 when a check failed and 2 when fpx is not found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("clean_stencil", "blowup_report", "fuzz_replay_native")
MIN_REPS = 3            # timed repetitions per mode, however short the run
SETUP_RUNS = 7          # fresh interpreters timed for setup_s, after one warm-up
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "tracked_ops_per_s": "1/s",
    "overhead_x": "x",
    "time_to_logs_s": "s",
    "peak_rss_mb": "MB",
}

# Printed for people, not in the JSON result. The first five are 0 or
# undefined on some workload (clean_stencil has no events, only one workload
# replays); the last two show the raw time and the speed it was scaled by.
PRINTED_ONLY = {
    "events_per_s": "1/s",
    "report_s": "s",
    "replay_s": "s",
    "log_bytes": "B",
    "check_fail_ratio": "ratio",
    "raw_wall_s": "s",
    "calibration_ms": "ms",
}

# Fresh interpreter to a ready session: import fpx, then build a session.
# The calibration that follows is not part of set-up; it gives the speed.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, "src")
import fpx
fpx.explicit_session()
setup_s = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
from workloads import calibrate
print(setup_s, calibrate(4))
"""

# One untimed repetition in a fresh interpreter, then its peak RSS in MB.
# VmHWM belongs to this process's own address space; ru_maxrss would also
# count the parent's, which the child inherits until it execs.
RSS_PROBE = """\
import sys
sys.path[:0] = ["src", sys.argv[1]]
import workloads
workloads.make(sys.argv[2], int(sys.argv[3]), sys.argv[4]).repetition(workloads.PhaseClock())
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024)
"""


def _child(code, *args) -> list:
    """The numbers on the last line a fresh interpreter prints."""
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return [float(x) for x in out.stdout.strip().splitlines()[-1].split()]


def _commit(root) -> str:
    """HEAD read from .git without running git; checkouts without .git say so."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def _environment(root, args) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((root / "src" / "fpx").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": _commit(root),
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Sample(NamedTuple):
    tracer: object          # the Tracer of a traced repetition, else None
    rep: object             # workloads.Repetition
    calibration_s: float    # calibration time measured around the repetition


def _repeat(workload, seconds, trace) -> list:
    """Samples of repetitions. The first warms caches and is checked but not
    timed; with trace, traced repetitions alternate with untraced ones."""
    from tracing import Tracer
    from workloads import PhaseClock, calibrate

    samples = []
    start = None
    while True:
        tracer = Tracer() if trace and len(samples) % 2 == 1 else None
        clock = PhaseClock(tracer)
        before = calibrate()
        # The only call site of repetition: native traces hold this frame,
        # and the log digests of all repetitions must agree.
        rep = workload.repetition(clock)
        samples.append(Sample(tracer, rep, (before + calibrate()) / 2))
        if start is None:
            start = time.perf_counter()
        elif len(samples) > MIN_REPS * (1 + trace) and time.perf_counter() - start >= seconds:
            return samples


def _checks(workload, samples) -> tuple:
    """(attempted, failures by check name) over every repetition, warm-up included."""
    from tracing import LAYERS

    attempted = 0
    failures = Counter()
    first_digest = {}
    for tracer, rep, _ in samples:
        checks = dict(rep.checks)
        traced = tracer is not None
        first = first_digest.setdefault(traced, rep.log_digest)
        checks["log_digest_stable"] = rep.log_digest == first
        if traced:
            layers = tracer.layer_metrics(sum(rep.phases.values()))
            checks.update(workload.trace_checks(rep, layers))
            checks["trace.self_times_cover_wall"] = layers["trace.remainder_s"] >= 0 and all(
                layers[f"{layer}.self_s"] >= -1e-9 for layer in LAYERS)
        attempted += len(checks)
        failures.update(name for name, ok in checks.items() if not ok)
    return attempted, failures


def _end_to_end(samples, setup_s, peak_rss_mb, check_fail_ratio) -> dict:
    """Medians over the timed repetitions, with times in reference seconds.
    overhead_x is a ratio of two timings in the same repetition, so it needs
    no scaling."""
    from workloads import CALIBRATION_REF_S

    median = statistics.median
    reps = [s.rep for s in samples]
    ref = [{phase: seconds * CALIBRATION_REF_S / s.calibration_s
            for phase, seconds in s.rep.phases.items()} for s in samples]
    events = reps[0].events
    return {
        "setup_s": setup_s,
        "wall_s": median(sum(p.values()) for p in ref),
        "tracked_ops_per_s": median(r.ops / p["run"] for r, p in zip(reps, ref)),
        "overhead_x": median(r.phases["run"] / r.plain_s for r in reps),
        "time_to_logs_s": median(p["run"] + p["flush"] for p in ref),
        "peak_rss_mb": peak_rss_mb,
        "events_per_s": median(events / p["run"] for p in ref) if events else None,
        "report_s": median(p["report"] for p in ref) if "report" in ref[0] else None,
        "replay_s": median(p["replay"] for p in ref) if "replay" in ref[0] else None,
        "log_bytes": reps[0].log_bytes,
        "check_fail_ratio": check_fail_ratio,
        "raw_wall_s": median(sum(r.phases.values()) for r in reps),
        "calibration_ms": 1e3 * median(s.calibration_s for s in samples),
    }


def _per_layer(samples) -> dict:
    """The metrics of the traced repetition with the median wall time, so that
    its layer self times and remainder add up to its trace.wall_s. Times are
    raw seconds."""
    traced = sorted((sum(s.rep.phases.values()), i, s.tracer)
                    for i, s in enumerate(samples[1:]) if s.tracer is not None)
    wall_s, _, tracer = traced[(len(traced) - 1) // 2]
    metrics = tracer.layer_metrics(wall_s)
    untraced = [sum(s.rep.phases.values()) for s in samples[1:] if s.tracer is None]
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_x"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"]
    return metrics


def _setup_s() -> float:
    """Median over fresh interpreters, after one warm-up, in reference seconds."""
    from workloads import CALIBRATION_REF_S

    _child(SETUP_PROBE, str(BENCH_DIR))
    return statistics.median(
        setup_s * CALIBRATION_REF_S / calibration_s
        for setup_s, calibration_s in (_child(SETUP_PROBE, str(BENCH_DIR))
                                       for _ in range(SETUP_RUNS)))


def measure(name, args, out_dir) -> tuple:
    """(attempted, failures, metrics) of one workload; prints its table."""
    import workloads
    from tracing import unit_of

    setup_s = peak_rss_mb = None
    if not args.trace:
        [peak_rss_mb] = _child(RSS_PROBE, str(BENCH_DIR), name, str(args.seed),
                               str(out_dir / "rss"))
        setup_s = _setup_s()

    workload = workloads.make(name, args.seed, out_dir)
    samples = _repeat(workload, args.seconds, args.trace)
    attempted, failures = _checks(workload, samples)
    timed = [s for s in samples[1:] if s.tracer is None]
    print(f"{name}: {len(timed)} timed repetitions, {len(samples) - 1 - len(timed)} traced, "
          f"{attempted} checks, {sum(failures.values())} failed")
    for check, count in sorted(failures.items()):
        print(f"  FAILED {check}: {count} repetition(s)")

    if args.trace:
        metrics = _per_layer(samples)
        units = {m: unit_of(m) for m in metrics}
    else:
        metrics = _end_to_end(timed, setup_s, peak_rss_mb,
                              sum(failures.values()) / attempted)
        units = {**END_TO_END, **PRINTED_ONLY}
    for metric, value in metrics.items():
        shown = "n/a" if value is None else value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {metric:<40} {shown:>14} {units[metric]}")
    if not args.trace:
        metrics = {m: metrics[m] for m in END_TO_END}
    return attempted, failures, {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fpx" / "__init__.py").is_file():
        print("fpxbench: src/fpx not found; run from the root of an fpx checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    print("env " + json.dumps(_environment(root, args)))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    build = root / ".bench_build"
    scratch = build / f"fpxbench-{os.getpid()}"
    attempted, failed, metrics = 0, 0, {}
    try:
        for name in names:
            n, failures, found = measure(name, args, scratch / name)
            attempted += n
            failed += sum(failures.values())
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + m: v for m, v in found.items()})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            build.rmdir()
        except OSError:
            pass    # not empty: something else keeps files there
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
