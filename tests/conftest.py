import operator
import sys
import threading

import numpy as np
import pytest

from fpx import fpbits
from fpx.injector import InjectionRecording, Injector
from fpx.session import explicit_session, use_session
from fpx.tracked import TrackedFloat16, TrackedFloat32, TrackedFloat64, unwrap

# The op oracle: (name, arity) -> (numpy ufunc, Python operator, or None where
# numpy's name alone reaches the row, the reflected dunder of an arithmetic
# operator, and whether the row is a comparison or truth test: a bool result
# and no injector decision). It is written by hand, in the order of the
# operation table in fpx/tracked.py and never read from it, so a row there
# that names the wrong ufunc or operator fails against this one. Every test
# table of rows is derived from it; a new row goes here.
ROWS = {
    ("+", 2): (np.add, operator.add, "__radd__", False),
    ("-", 2): (np.subtract, operator.sub, "__rsub__", False),
    ("*", 2): (np.multiply, operator.mul, "__rmul__", False),
    ("/", 2): (np.divide, operator.truediv, "__rtruediv__", False),
    ("pow", 2): (np.power, operator.pow, "__rpow__", False),
    ("min", 2): (np.minimum, None, None, False),
    ("max", 2): (np.maximum, None, None, False),
    ("atan2", 2): (np.arctan2, None, None, False),
    ("hypot", 2): (np.hypot, None, None, False),
    ("rem", 2): (np.fmod, None, None, False),
    ("-", 1): (np.negative, operator.neg, None, False),
    ("abs", 1): (np.abs, abs, None, False),
    ("sqrt", 1): (np.sqrt, None, None, False),
    ("exp", 1): (np.exp, None, None, False),
    ("log", 1): (np.log, None, None, False),
    ("sin", 1): (np.sin, None, None, False),
    ("cos", 1): (np.cos, None, None, False),
    ("tan", 1): (np.tan, None, None, False),
    ("floor", 1): (np.floor, None, None, False),
    ("ceil", 1): (np.ceil, None, None, False),
    ("<", 2): (np.less, operator.lt, None, True),
    ("<=", 2): (np.less_equal, operator.le, None, True),
    (">", 2): (np.greater, operator.gt, None, True),
    (">=", 2): (np.greater_equal, operator.ge, None, True),
    ("==", 2): (np.equal, operator.eq, None, True),
    ("!=", 2): (np.not_equal, operator.ne, None, True),
    ("bool", 1): (np.bool_, bool, None, True),
}
# A comparison whose left operand is a Python number runs as the right one's
# mirror-image method: x < t is t > x. A numpy scalar on the left runs numpy's
# ufunc, which keeps the order.
MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
# width -> (tracked class, numpy type)
WIDTHS = {64: (TrackedFloat64, np.float64), 32: (TrackedFloat32, np.float32),
          16: (TrackedFloat16, np.float16)}


@pytest.fixture
def session():
    """Fresh tracking session with deterministic explicit-scope traces."""
    return explicit_session()


def scalar_bits(x):
    """A bool as itself; a float as its width and bit pattern."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    return (fpbits.width_of(x), fpbits.to_bits(x))


def run_calls(calls, injector):
    """Each call's result type and bits, or the OverflowError it raised, then
    the events, op count and injection points of the calls run in order in
    one session under injector."""
    session = explicit_session(injector=injector)
    outcomes = []
    with use_session(session):
        for call in calls:
            try:
                r = call()
            except OverflowError as e:
                outcomes.append((OverflowError, str(e)))
            else:
                outcomes.append((type(r), scalar_bits(unwrap(r))))
    return (outcomes, session.ledger.events(), session.injector.op_counter,
            session.injector.recording.points)


def assert_matches_apply(calls, applied, fuzz_configs):
    """The calls give the results, events, op count and injection points of
    the apply calls they stand for under an OFF injector, under each fuzz
    config and under the replay of its recording: injections land on the
    same op numbers. Returns the apply calls' run under each fuzz config."""
    assert run_calls(calls, Injector()) == run_calls(applied, Injector())
    runs = []
    for fuzz in fuzz_configs:
        expected = run_calls(applied, Injector.fuzz(fuzz))
        assert run_calls(calls, Injector.fuzz(fuzz)) == expected, fuzz
        recording = InjectionRecording(seed=fuzz.seed, points=expected[3])
        replayed = run_calls(calls, Injector.replay(recording))
        assert replayed == run_calls(applied, Injector.replay(recording))
        assert replayed[:3] == expected[:3]
        runs.append(expected)
    return runs


def run_threads(worker, args):
    """Runs worker(arg) for each arg, one thread each, started together on a
    barrier while the interpreter switches threads every microsecond, and
    returns the workers' results in arg order. Every thread is joined, each
    within 60 s, before the first exception a worker raised is raised here."""
    args = list(args)
    barrier = threading.Barrier(len(args), timeout=60)
    results, errors = [None] * len(args), []

    def run(k):
        try:
            barrier.wait()
            results[k] = worker(args[k])
        except BaseException as exc:        # raised below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(len(args))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a worker ran past 60 s"
    if errors:
        raise errors[0]
    return results


def thread_changes(idents) -> int:
    """How often consecutive entries of idents, thread idents noted in the
    order the threads ran, came from different threads."""
    return sum(a != b for a, b in zip(idents, idents[1:]))
