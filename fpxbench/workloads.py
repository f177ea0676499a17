"""The benchmark's three workloads, their plain-float twins and their checks.

Each workload is a closed loop: one caller runs one repetition at a time,
and every operation waits for the one before it. A repetition runs the
workload's timed phases, then checks what they produced. Checks run outside
the phases, so they are neither timed nor traced.

Sizes are set so that one repetition takes a few tenths of a second: a run
then times dozens of them, and their median is steady on a noisy machine.

  clean_stencil       demo_sim with the stable coefficient: 0 events, so
                      nearly all time is tracked.apply, classify and the no-op
                      injector call; the ledger, fpbits and stackgraph idle.
  blowup_report       demo_sim with the unstable coefficient, flush, then a
                      post-mortem: parse_log on each stream plus `fpx cstg`
                      (full graph and --split 0.1) on the prop stream.
  fuzz_replay_native  a seeded polynomial-residual kernel fuzzed under the
                      native trace provider, so every decision captures a
                      native stack; the recording is saved, loaded, replayed.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fpx import cli as fpx_cli
from fpx import demos
from fpx import injector as fpx_injector
from fpx import ledger as fpx_ledger
from fpx.classify import EventKind
from fpx.injector import InjectionConfig, Injector
from fpx.ledger import FILE_BY_KIND, Ledger, LogFormatError
from fpx.session import TrackerSession, use_session
from fpx.traces import NativeTraceProvider
from fpx.tracked import TrackedFloat64

# Plain-twin calls per batch. One batch runs just before the tracked program
# and one just after, so the ratio compares code timed close together.
PLAIN_RUNS = 5

# Calibration time that defines the reference speed: a time in reference
# seconds is the raw time scaled by CALIBRATION_REF_S over the calibration
# time measured beside it.
CALIBRATION_REF_S = 0.002


def _time_calls(fn, n) -> tuple:
    """(per-call seconds, last result) of n back-to-back calls."""
    times = []
    result = None
    for _ in range(n):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times, result


def _calibration_kernel(n=1000):
    acc = np.float64(0.0)
    x = np.float64(0.5)
    for i in range(n):
        acc = np.add(acc, np.multiply(x, np.float64(i)))
    return acc


def calibrate(samples=2) -> float:
    """Mean seconds of a fixed numpy-scalar kernel that does not touch fpx.

    Its time follows the machine's current speed for code like fpx's, so
    dividing by it removes the drift that other load on a shared machine
    puts into raw times.
    """
    times, _ = _time_calls(_calibration_kernel, samples)
    return statistics.fmean(times)


class PhaseClock:
    """Times the named phases of one repetition.

    With a tracer, its patches are installed only while a phase runs, so the
    checks that follow stay out of the per-layer spans.
    """

    def __init__(self, tracer=None):
        self.seconds = {}
        self.tracer = tracer
        self.calls_after = {}    # phase -> span call counts when it ended

    @contextmanager
    def phase(self, name):
        if self.tracer is not None:
            self.tracer.install()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.uninstall()
                self.calls_after[name] = self.tracer.calls()


@dataclass
class Repetition:
    phases: dict        # phase -> seconds, in the order they ran
    plain_s: float      # median time of the plain-float twin
    ops: int            # Injector.op_counter of the tracked program
    events: int         # events the tracked program's ledger accepted
    log_bytes: int
    log_lines: int
    log_digest: str     # SHA-256 over the three jsonl files
    checks: dict        # check name -> passed
    calls_after: dict   # from PhaseClock; empty when untraced


def read_logs(paths) -> tuple:
    """(sha256 hex, bytes, lines) of the three flushed streams."""
    digest = hashlib.sha256()
    n_bytes = n_lines = 0
    for kind in FILE_BY_KIND:
        data = Path(paths[kind]).read_bytes()
        digest.update(FILE_BY_KIND[kind].encode() + b"\0" + data + b"\0")
        n_bytes += len(data)
        n_lines += data.count(b"\n")
    return digest.hexdigest(), n_bytes, n_lines


def log_checks(session, paths, parsed=None) -> dict:
    """parse_log of each flushed stream equals the ledger's events of that kind."""
    checks = {}
    for kind, path in paths.items():
        try:
            events = parsed[kind] if parsed is not None else fpx_ledger.parse_log(path)
        except LogFormatError:
            events = None
        checks[f"parse_equals_events.{kind.value}"] = (
            events == session.ledger.events(kind=kind))
    return checks


def same_bits(xs, ys) -> bool:
    return len(xs) == len(ys) and all(
        struct.pack("<d", x) == struct.pack("<d", y) for x, y in zip(xs, ys))


def _repetition(clock, session, paths, plain_s, checks) -> Repetition:
    digest, n_bytes, n_lines = read_logs(paths)
    return Repetition(
        phases=dict(clock.seconds), plain_s=plain_s,
        ops=session.injector.op_counter, events=sum(session.ledger.counts().values()),
        log_bytes=n_bytes, log_lines=n_lines, log_digest=digest, checks=checks,
        calls_after=dict(clock.calls_after))


class Workload:
    name = ""

    def repetition(self, clock: PhaseClock) -> Repetition:
        raise NotImplementedError

    def trace_checks(self, rep: Repetition, layers: dict) -> dict:
        """Prediction checks on one traced repetition's per-layer metrics."""
        raise NotImplementedError


# ---------------------------------------------------------------- stencils

_STABLE, _UNSTABLE = 0.25, 1.0e150     # the coefficients demo_sim uses


def plain_sim(steps, cells, coefficient) -> list:
    """demo_sim over plain floats, in the same expression order, so every
    result is the same IEEE double, NaN sign and payload included."""
    u = [0.0] * cells
    u[cells // 2] = 1.0
    for _ in range(steps):
        nxt = list(u)
        for i in range(1, cells - 1):
            curvature = u[i + 1] - 2.0 * u[i] + u[i - 1]
            nxt[i] = u[i] + coefficient * curvature
        u = nxt
    return u


class _Stencil(Workload):
    blowup = False

    def __init__(self, seed, out_dir, steps, cells):
        del seed    # demo_sim is a fixed program; only the fuzz kernel draws inputs
        self.steps, self.cells = steps, cells
        self.out_dir = Path(out_dir)
        coefficient = _UNSTABLE if self.blowup else _STABLE
        self.plain = lambda: plain_sim(steps, cells, coefficient)

    def _tracked(self, clock):
        """Plain twin, tracked demo_sim, plain twin, flush."""
        plain_times, _ = _time_calls(self.plain, PLAIN_RUNS)
        with clock.phase("run"):
            result = demos.demo_sim(self.steps, self.cells, blowup=self.blowup)
        more_times, plain_field = _time_calls(self.plain, PLAIN_RUNS)
        with clock.phase("flush"):
            paths = result.session.ledger.flush(self.out_dir)
        checks = {"field_bit_identical": same_bits(result.field, plain_field)}
        return result.session, paths, statistics.median(plain_times + more_times), checks


class CleanStencil(_Stencil):
    name = "clean_stencil"

    def __init__(self, seed, out_dir, steps=30, cells=64):
        super().__init__(seed, out_dir, steps, cells)

    def repetition(self, clock):
        session, paths, plain_s, checks = self._tracked(clock)
        checks["zero_events"] = sum(session.ledger.counts().values()) == 0
        checks.update(log_checks(session, paths))
        return _repetition(clock, session, paths, plain_s, checks)

    def trace_checks(self, rep, layers):
        return {
            "predict.no_ledger_records": layers["ledger.record.calls"] == 0,
            "predict.no_trace_captures": layers["traces.native.capture.calls"] == 0
            and layers["traces.explicit.capture.calls"] == 0,
        }


class BlowupReport(_Stencil):
    name = "blowup_report"
    blowup = True

    # SHA-256 of the three jsonl files per (steps, cells). Explicit scopes make
    # these logs byte-stable, and a change that alters any byte of them is a
    # regression, so the digest is pinned rather than only compared run to run.
    GOLDEN_DIGESTS = {
        (24, 48): "bbc301ee9a0c5f21e966893d9b5fb69feb28b67130371c5ec6d9375185b582ea",
        (8, 16): "54e4a937689166d64e04ed1fdaa3ff2accf9cf00335fcf7b0b6a0d114bb49799",
    }

    def __init__(self, seed, out_dir, steps=24, cells=48):
        super().__init__(seed, out_dir, steps, cells)

    def repetition(self, clock):
        session, paths, plain_s, checks = self._tracked(clock)
        # cstg reads the prop stream: it holds nearly all the events (gen has
        # a handful), so it is the stream that makes stackgraph do work.
        prop = str(paths[EventKind.PROP])
        with clock.phase("report"):
            parsed = {kind: fpx_ledger.parse_log(path) for kind, path in paths.items()}
            graph_rc = fpx_cli.cli_main(
                ["cstg", prop, "--dot", str(self.out_dir / "prop.dot")])
            split_rc = fpx_cli.cli_main(
                ["cstg", prop, "--split", "0.1", "--dot", str(self.out_dir / "prop-split.dot")])
        checks["cstg_graph_exit_0"] = graph_rc == 0
        checks["cstg_split_exit_0"] = split_rc == 0
        checks.update(log_checks(session, paths, parsed))
        rep = _repetition(clock, session, paths, plain_s, checks)
        rep.checks["log_digest_golden"] = (
            rep.log_digest == self.GOLDEN_DIGESTS.get((self.steps, self.cells)))
        return rep

    def trace_checks(self, rep, layers):
        return {"predict.accepted_equals_lines_equals_events":
                layers["ledger.record.accepted"] == rep.log_lines == rep.events}


# ------------------------------------------------------------ fuzz / replay

KERNEL_NAME = "poly_residual_kernel"


def poly_residual_kernel(points, coeffs, targets, tol):
    """|p(x) - target| at each point by Horner's rule, then a `<` test.

    An injected NaN is a gen, rides the remaining Horner steps and the
    residual as props, and dies in the comparison as a kill. Over plain
    floats this same function is the twin.
    """
    residuals = []
    passed = 0
    for x, target in zip(points, targets):
        acc = coeffs[0]
        for c in coeffs[1:]:
            acc = acc * x + c
        r = abs(acc - target)
        residuals.append(r)
        if r < tol:
            passed += 1
    return residuals, passed


@dataclass(frozen=True)
class KernelInputs:
    points: tuple
    coeffs: tuple
    targets: tuple
    tol: float


def make_inputs(seed, n_points, degree) -> KernelInputs:
    rng = random.Random(seed)
    tol = 1.0e-3
    coeffs = tuple(rng.uniform(-1.0, 1.0) for _ in range(degree + 1))
    points = tuple(rng.uniform(-1.0, 1.0) for _ in range(n_points))

    def p(x):
        acc = coeffs[0]
        for c in coeffs[1:]:
            acc = acc * x + c
        return acc

    # Targets within about one tolerance of p(x): the `<` test splits the points.
    targets = tuple(p(x) + rng.gauss(0.0, tol) for x in points)
    return KernelInputs(points, coeffs, targets, tol)


def native_session(injector) -> TrackerSession:
    return TrackerSession(ledger=Ledger(), injector=injector, traces=NativeTraceProvider())


def run_kernel(session, inputs):
    points = [TrackedFloat64(x) for x in inputs.points]
    with use_session(session):
        residuals, passed = poly_residual_kernel(
            points, inputs.coeffs, inputs.targets, inputs.tol)
    return [r.value for r in residuals], passed


def replay_checks(fuzz_session, fuzz_outcome, replay_session, replay_outcome) -> dict:
    return {
        "replay.events_equal": replay_session.ledger.events() == fuzz_session.ledger.events(),
        "replay.outcome_equal": same_bits(replay_outcome[0], fuzz_outcome[0])
        and replay_outcome[1] == fuzz_outcome[1],
        "replay.no_divergences": not replay_session.injector.divergences,
        "replay.all_points_consumed": not replay_session.injector.unconsumed_points(),
    }


def fuzz_checks(session, outcome, plain_outcome) -> dict:
    """Points without an injection match the plain twin bit for bit; each
    point an injection reached is a NaN residual with exactly one kill."""
    residuals, plain = outcome[0], plain_outcome[0]
    nan_points = [i for i, r in enumerate(residuals) if r != r]
    nan_set = set(nan_points)
    clean = [i for i in range(len(residuals)) if i not in nan_set]
    kills = session.ledger.counts()[EventKind.KILL]
    injections = len(session.injector.recording.points)
    return {
        "fuzz.clean_points_bit_identical": same_bits(
            [residuals[i] for i in clean], [plain[i] for i in clean]),
        "fuzz.one_kill_per_nan_point": kills == len(nan_points),
        "fuzz.injected": 0 < len(nan_points) <= injections,
    }


class FuzzReplayNative(Workload):
    name = "fuzz_replay_native"

    def __init__(self, seed, out_dir, n_points=300, degree=8, odds=300):
        self.inputs = make_inputs(seed, n_points, degree)
        # n_inject never binds, so every decision filters on a native trace.
        self.config = InjectionConfig(odds=odds, n_inject=n_points * (2 * degree + 2),
                                      functions=(KERNEL_NAME,), seed=seed)
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.recording_path = self.out_dir / "recording.jsonl"
        inputs = self.inputs
        self.plain = lambda: poly_residual_kernel(
            inputs.points, inputs.coeffs, inputs.targets, inputs.tol)

    def _injector(self, phase, fuzz_session):
        if phase == "run":
            return Injector.fuzz(self.config)
        fpx_injector.save_recording(fuzz_session.injector.recording, self.recording_path)
        return Injector.replay(fpx_injector.load_recording(self.recording_path))

    def repetition(self, clock):
        plain_times, _ = _time_calls(self.plain, PLAIN_RUNS)
        sessions, outcomes = {}, {}
        for phase in ("run", "replay"):
            if phase == "replay":
                more_times, plain_outcome = _time_calls(self.plain, PLAIN_RUNS)
                with clock.phase("flush"):
                    paths = sessions["run"].ledger.flush(self.out_dir)
            with clock.phase(phase):
                session = native_session(self._injector(phase, sessions.get("run")))
                # The one call site of both phases: native fingerprints hold
                # every caller frame, so a replay entered elsewhere diverges.
                outcome = run_kernel(session, self.inputs)
            sessions[phase], outcomes[phase] = session, outcome

        fuzzed = sessions["run"]
        checks = fuzz_checks(fuzzed, outcomes["run"], plain_outcome)
        checks.update(replay_checks(fuzzed, outcomes["run"],
                                    sessions["replay"], outcomes["replay"]))
        checks.update(log_checks(fuzzed, paths))
        return _repetition(clock, fuzzed, paths,
                           statistics.median(plain_times + more_times), checks)

    def trace_checks(self, rep, layers):
        in_fuzz = rep.calls_after["run"]
        return {"predict.native_captures_cover_fuzz_decisions":
                in_fuzz.get("traces.native.capture", 0)
                >= in_fuzz.get("injector.decide", 0) > 0}


WORKLOADS = {w.name: w for w in (CleanStencil, BlowupReport, FuzzReplayNative)}


def make(name, seed, out_dir, **sizes) -> Workload:
    return WORKLOADS[name](seed, out_dir, **sizes)
