"""Operator wiring: every operator method, public function and numpy ufunc
reaches the registry row it names, with its operands in the right order.

The expected wiring is written out here, independent of the operation table
in tracked.py, so a row whose methods name the wrong operation, or a
reflected method that passes its operands unswapped, fails.
"""

import dataclasses
import inspect
import operator

import numpy as np
import pytest

import fpx
from fpx import demos, fpbits
from fpx.injector import InjectionConfig, InjectionRecording, Injector
from fpx.session import explicit_session, use_session
from fpx.tracked import (_REGISTRY, TrackedFloat16, TrackedFloat32,
                         TrackedFloat64, apply, unwrap)

INF = float("inf")

# Python syntax that must reach each operator row, forward (tracked on the left).
OPERATORS = {
    ("+", 2): operator.add, ("-", 2): operator.sub, ("*", 2): operator.mul,
    ("/", 2): operator.truediv, ("pow", 2): operator.pow,
    ("<", 2): operator.lt, ("<=", 2): operator.le, (">", 2): operator.gt,
    (">=", 2): operator.ge, ("==", 2): operator.eq, ("!=", 2): operator.ne,
    ("-", 1): operator.neg, ("abs", 1): abs, ("bool", 1): bool,
}
# With a Python number on the left, Python calls the tracked operand's
# reflected method; a comparison reflects to its mirror image. A numpy scalar
# on the left calls numpy's ufunc, which keeps the operands in order.
MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
# numpy's ufunc of every row but the truth test, whose np.bool_ is a type.
UFUNCS = {
    ("+", 2): np.add, ("-", 2): np.subtract, ("*", 2): np.multiply,
    ("/", 2): np.divide, ("pow", 2): np.power, ("min", 2): np.minimum,
    ("max", 2): np.maximum, ("atan2", 2): np.arctan2, ("hypot", 2): np.hypot,
    ("rem", 2): np.fmod, ("-", 1): np.negative, ("abs", 1): np.absolute,
    ("sqrt", 1): np.sqrt, ("exp", 1): np.exp, ("log", 1): np.log, ("sin", 1): np.sin,
    ("cos", 1): np.cos, ("tan", 1): np.tan, ("floor", 1): np.floor, ("ceil", 1): np.ceil,
    ("<", 2): np.less, ("<=", 2): np.less_equal, (">", 2): np.greater,
    (">=", 2): np.greater_equal, ("==", 2): np.equal, ("!=", 2): np.not_equal,
}
# Public function name of each remaining row: fpx's name for its ufunc.
PUBLIC = {
    ("sqrt", 1): "sqrt", ("exp", 1): "exp", ("log", 1): "log",
    ("sin", 1): "sin", ("cos", 1): "cos", ("tan", 1): "tan",
    ("floor", 1): "floor", ("ceil", 1): "ceil", ("atan2", 2): "atan2",
    ("hypot", 2): "hypot", ("rem", 2): "rem", ("min", 2): "minimum",
    ("max", 2): "maximum",
}

WIDTHS = ((TrackedFloat64, np.float64), (TrackedFloat32, np.float32),
          (TrackedFloat16, np.float16))
# Plain operands on either side of a tracked one: with a plain number on the
# left, a reflected method that swapped its operands would compute 1.5 - 3.0
# for 3.0 - 1.5. Ints past 2**53 round at float64 and overflow the narrow
# widths, 10**400 raises before the op is numbered, and a numpy scalar of any
# width is cast to the tracked operand's.
PLAIN = (3.0, -0.5, 2, INF, 0, 1, -1, 2**53, -2**53, 2**53 + 1, 10**400,
         np.float64(2.5), np.float32(-0.75), np.float16(3.0), np.int32(7))


def _bits(x):
    if isinstance(x, (bool, np.bool_)):
        return ("bool", bool(x))
    return (fpbits.width_of(x), fpbits.to_bits(x))


def _tracked_pool(cls, np_type):
    values = [np_type(1.5), np_type(-2.0), np_type(0.0), np_type(-0.0),
              np_type(INF), np_type(-INF),
              fpbits.nan_with_payload(0x2B, np.dtype(np_type).itemsize * 8)]
    return [cls(v) for v in values]


def _run(calls, injector):
    """Result bits, or the OverflowError raised, per call, then the events,
    op count and injection points of the whole program."""
    session = explicit_session(injector=injector)
    outcomes = []
    with use_session(session):
        for call in calls:
            try:
                result = call()
            except OverflowError as e:
                outcomes.append(("raises", str(e)))
                continue
            if not isinstance(result, bool):
                assert isinstance(result, fpx.TrackedFloat)
            outcomes.append(_bits(unwrap(result)))
    events = [(e.seq, e.op, tuple(map(_bits, e.operands)), _bits(e.result), e.kind,
               e.value_class, e.injected) for e in session.ledger.events()]
    return outcomes, events, session.injector.op_counter, session.injector.recording.points


def _assert_matches_apply(calls, applied):
    """The calls give the results, events, op numbers and injection points of
    the apply calls they stand for, with injection off, under a fuzz injector
    that fires on some ops, and under replay of its recording."""
    assert _run(calls, Injector()) == _run(applied, Injector())
    fuzz = InjectionConfig(odds=3, n_inject=len(calls), seed=16)
    expected = _run(applied, Injector(fuzz))
    assert _run(calls, Injector(fuzz)) == expected
    recording = InjectionRecording(seed=fuzz.seed, points=expected[3])
    replayed = _run(calls, Injector(recording=recording))
    assert replayed == _run(applied, Injector(recording=recording))
    assert replayed[:3] == expected[:3]


def _cases(arity, cls, np_type):
    tracked = _tracked_pool(cls, np_type)
    if arity == 1:
        return [(t,) for t in tracked]
    return ([(a, b) for a in tracked for b in tracked]
            + [(t, p) for t in tracked for p in PLAIN]
            + [(p, t) for p in PLAIN for t in tracked])


def test_every_row_is_wired_once():
    assert sorted(OPERATORS.keys() | PUBLIC.keys(), key=str) == sorted(_REGISTRY, key=str)
    assert not OPERATORS.keys() & PUBLIC.keys()
    assert UFUNCS.keys() == _REGISTRY.keys() - {("bool", 1)}


@pytest.mark.parametrize("width", range(len(WIDTHS)), ids=("f64", "f32", "f16"))
@pytest.mark.parametrize("name_arity", sorted(OPERATORS, key=str), ids=str)
def test_operator_methods_match_apply(name_arity, width):
    name, arity = name_arity
    cls, np_type = WIDTHS[width]
    python_op = OPERATORS[name_arity]
    calls, applied = [], []
    for operands in _cases(arity, cls, np_type):
        reached, args = name, operands
        if name in MIRRORED and not isinstance(operands[0], (fpx.TrackedFloat, np.generic)):
            reached, args = MIRRORED[name], operands[::-1]
        # a reflected arithmetic method keeps the plain left operand first
        calls.append(lambda o=operands: python_op(*o))
        applied.append(lambda r=reached, a=args: apply(r, a))
    _assert_matches_apply(calls, applied)


@pytest.mark.parametrize("width", range(len(WIDTHS)), ids=("f64", "f32", "f16"))
@pytest.mark.parametrize("name_arity", sorted(PUBLIC, key=str), ids=str)
def test_public_functions_match_apply(name_arity, width):
    name, arity = name_arity
    cls, np_type = WIDTHS[width]
    fn = getattr(fpx, PUBLIC[name_arity])
    cases = _cases(arity, cls, np_type)
    _assert_matches_apply([lambda o=o: fn(*o) for o in cases],
                          [lambda o=o: apply(name, o) for o in cases])


@pytest.mark.parametrize("width", range(len(WIDTHS)), ids=("f64", "f32", "f16"))
@pytest.mark.parametrize("name_arity", sorted(OPERATORS.keys() & UFUNCS.keys(), key=str), ids=str)
def test_numpy_ufuncs_match_apply(name_arity, width):
    """numpy's own name of an operator row runs the row over tracked values,
    with a plain operand of any kind on either side kept in its place."""
    name, arity = name_arity
    cls, np_type = WIDTHS[width]
    ufunc = UFUNCS[name_arity]
    cases = _cases(arity, cls, np_type)
    _assert_matches_apply([lambda o=o: ufunc(*o) for o in cases],
                          [lambda o=o: apply(name, o) for o in cases])


def test_numpy_entry_refuses_what_it_does_not_map():
    """A ufunc without a row, a call with a keyword, a ufunc method other than
    a call and an array operand are each numpy's TypeError, which names it,
    before any op is numbered or decided."""
    session = explicit_session(injector=Injector.fuzz(InjectionConfig(odds=1, n_inject=10)))
    t = TrackedFloat64(1.5)
    calls = {"isnan": lambda: np.isnan(t), "divmod": lambda: np.divmod(t, t),
             "dtype=": lambda: np.add(t, t, dtype=float), "'outer'": lambda: np.add.outer(t, t),
             r"'ndarray', 'Tracked": lambda: np.add(np.array([1.0]), t),
             r"'Tracked\w*', 'ndarray'": lambda: np.add(t, np.array([1.0]))}
    with use_session(session):
        for named, call in calls.items():
            with pytest.raises(TypeError, match=named):
                call()
    assert session.injector.op_counter == 0 and session.injector.recording.points == []
    assert session.ledger.events() == []


@pytest.mark.parametrize("public", sorted(PUBLIC.values()))
def test_public_function_names(public):
    """Each public function is its row's numpy ufunc, so `fpx.*` and `np.*` are one path."""
    row, = [row for row, name in PUBLIC.items() if name == public]
    assert getattr(fpx, public) is getattr(fpx.tracked, public) is UFUNCS[row]
    assert public in fpx.__all__


def test_every_exported_name_resolves():
    """`fpx.__all__` names only what the package defines, so `import *` works."""
    assert [name for name in fpx.__all__ if not hasattr(fpx, name)] == []
    namespace = {}
    exec("from fpx import *", namespace)
    assert set(fpx.__all__) <= namespace.keys()
    assert len(set(fpx.__all__)) == len(fpx.__all__)


def test_public_surface_is_pinned():
    """Every export, config option and operation parameter is listed here, so a
    new one must change this test in the same change that adds it."""
    assert sorted(fpx.__all__) == [
        "EMPTY_TRACE", "EventKind", "ExceptionEvent", "ExplicitContextProvider",
        "Frame", "InjectionConfig", "InjectionRecording", "Injector", "InjectorMode",
        "Ledger", "LedgerConfig", "LogFormatError", "NativeTraceProvider", "OpIdentity",
        "RecordedInjection", "RecordingFormatError", "ReplayDivergenceWarning",
        "StackTrace", "TrackedFloat", "TrackedFloat16", "TrackedFloat32",
        "TrackedFloat64", "TrackerSession", "ValueClass", "apply", "atan2", "ceil",
        "cos", "current_session", "exp", "explicit_session", "floor",
        "hypot", "is_exceptional", "load_recording", "log", "maximum", "minimum",
        "parse_log", "propagate_payload", "rem", "render_human", "save_recording",
        "sin", "sqrt", "tan", "trace_fingerprint", "unwrap", "use_session"]
    assert [f.name for f in dataclasses.fields(fpx.LedgerConfig)] == [
        "max_logs", "log_kinds"]
    assert [f.name for f in dataclasses.fields(fpx.InjectionConfig)] == [
        "odds", "n_inject", "functions", "libraries", "value", "seed"]
    # Injector() is the off injector; fuzz and replay are the other spellings
    assert [name for name, attr in vars(fpx.Injector).items()
            if isinstance(attr, classmethod)] == ["fuzz", "replay"]
    # every event field is given by the ledger or the log decoder; none defaults
    assert [f.name for f in dataclasses.fields(fpx.ExceptionEvent)] == [
        "seq", "kind", "value_class", "op", "operands", "result", "injected", "trace"]
    assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(fpx.ExceptionEvent))
    # the session of an operation is the one a use_session block selects
    assert list(inspect.signature(fpx.apply).parameters) == ["name", "operands"]
    for row, public in PUBLIC.items():
        assert getattr(fpx, public) is UFUNCS[row]
    # no parameter that only tests would set; the injector derives its mode
    for fn, params in [
        (fpx.NativeTraceProvider, []),
        (fpx.Ledger.record, ["self", "kind", "value_class", "op", "operands", "result",
                             "injected", "capture"]),
        (fpx.Ledger.events, ["self", "kind"]),
        (fpx.Injector.__init__, ["self", "config", "recording"]),
        (demos.demo_loop_kill, ["inject_tdir", "max_iters", "session"]),
        (fpbits.hex_bits, ["x"]),
    ]:
        assert list(inspect.signature(fn).parameters) == params, fn
