"""Small instrumented programs that exercise the tracker end to end.

Each demo runs over tracked scalars inside a fresh (or caller-supplied)
session with explicit scopes, so the resulting logs and stack graphs are
byte-stable across platforms. They are desk-scale stand-ins for the failure
shapes the tracker is built to expose: silent comparison kills, a NaN'd loop
guard that livelocks, and a finite-difference update that blows up through
Inf into NaN.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .session import TrackerSession, explicit_session, use_session
from .tracked import TrackedFloat64, unwrap

_MAX_FILE = "demo/find_max.py"
_LOOP_FILE = "demo/integrate.py"
_SIM_FILE = "demo/heat1d.py"
_LOOP_T0, _LOOP_STOP, _LOOP_STEP = 0.0, 10.0, 1.0


@dataclass
class MaxDemoResult:
    max1: float
    max2: float
    session: TrackerSession


@dataclass
class LoopDemoResult:
    work_iterations: int
    guard_evaluations: int
    livelocked: bool        # stopped at the bound by a guard that made no progress
    stopped: bool           # the bound ended the loop before it reached its stop
    session: TrackerSession


@dataclass
class SimDemoResult:
    field: list
    session: TrackerSession


def demo_max(values=(1.0, 5.0, float("nan"), 4.0), session=None) -> MaxDemoResult:
    """Two ways to find a maximum: a `not (x <= best)` scan that kills NaNs
    versus a fold over the propagating max."""
    sess = session or explicit_session()
    scope = sess.traces.scope
    xs = [TrackedFloat64(v) for v in values]
    with use_session(sess), scope("demo_max", _MAX_FILE, 5):
        with scope("max1", _MAX_FILE, 12):
            best = TrackedFloat64(0.0)
            for x in xs:
                # swap unless x compares too small; NaN comparisons are false
                if not (x <= best):
                    best = x
        with scope("max2", _MAX_FILE, 21):
            folded = functools.reduce(np.maximum, xs)
    return MaxDemoResult(float(unwrap(best)), float(unwrap(folded)), sess)


def demo_loop_kill(inject_tdir=False, max_iters=100, session=None) -> LoopDemoResult:
    """Time-stepping loop from t = 0 to 10 in unit steps, whose guard is
    `tdir * t < next_stop`.

    With tdir NaN'd, the multiplication props and the `<` kills on every
    evaluation, the guard is permanently false, and the loop makes no
    progress; the harness stops after max_iters guard evaluations and flags
    the livelock. A loop that reaches the bound while its last guard still
    advanced is stopped, not livelocked.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    sess = session or explicit_session()
    scope = sess.traces.scope
    tdir = TrackedFloat64(float("nan") if inject_tdir else 1.0)
    t = TrackedFloat64(_LOOP_T0)
    dt = TrackedFloat64(_LOOP_STEP)
    time_stops = [_LOOP_STOP]
    work_iterations = 0
    guard_evaluations = 0
    advance = True
    with use_session(sess), scope("run_integration", _LOOP_FILE, 7):
        while time_stops:
            if guard_evaluations >= max_iters:
                break
            with scope("loop_guard", _LOOP_FILE, 15):
                guard_evaluations += 1
                advance = bool(tdir * t < time_stops[0])
            if advance:
                with scope("integration_step", _LOOP_FILE, 22):
                    t = t + dt
                work_iterations += 1
                if float(unwrap(t)) >= time_stops[0]:
                    time_stops.pop(0)
    stopped = bool(time_stops)
    return LoopDemoResult(work_iterations, guard_evaluations, stopped and not advance,
                          stopped, sess)


def demo_sim(steps=12, cells=16, blowup=False, session=None) -> SimDemoResult:
    """Explicit 1-D diffusion of a spike. A stable coefficient decays cleanly;
    an unstable one overflows to Inf and then cancels Inf against Inf into NaN,
    so the gen log shows Inf gens followed by NaN gens."""
    if cells < 1:
        raise ValueError("cells must be >= 1")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    sess = session or explicit_session()
    scope = sess.traces.scope
    coefficient = TrackedFloat64(1.0e150 if blowup else 0.25)
    two = TrackedFloat64(2.0)
    u = [TrackedFloat64(0.0) for _ in range(cells)]
    u[cells // 2] = TrackedFloat64(1.0)
    with use_session(sess), scope("run_sim", _SIM_FILE, 9):
        for _ in range(steps):
            with scope("sim_step", _SIM_FILE, 14):
                nxt = list(u)
                for i in range(1, cells - 1):
                    with scope("stencil_update", _SIM_FILE, 18):
                        curvature = u[i + 1] - two * u[i] + u[i - 1]
                        nxt[i] = u[i] + coefficient * curvature
                u = nxt
    return SimDemoResult([unwrap(x) for x in u], sess)
