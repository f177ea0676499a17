"""Operator wiring: every operator method and public function reaches the
registry row it names, with its operands in the right order.

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
from fpx import fpbits
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
# With a plain number on the left, Python calls the tracked operand's
# reflected method; a comparison reflects to its mirror image.
MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
# Public function name of each remaining row.
PUBLIC = {
    ("sqrt", 1): "sqrt", ("exp", 1): "exp", ("log", 1): "log",
    ("sin", 1): "sin", ("cos", 1): "cos", ("tan", 1): "tan",
    ("floor", 1): "floor", ("ceil", 1): "ceil", ("atan2", 2): "atan2",
    ("hypot", 2): "hypot", ("rem", 2): "rem", ("min", 2): "minimum",
    ("max", 2): "maximum",
}

WIDTHS = ((TrackedFloat64, np.float64), (TrackedFloat32, np.float32),
          (TrackedFloat16, np.float16))
# Plain operands, exact at every width, on either side of a tracked one: with
# a plain number on the left, a reflected method that swapped its operands
# would compute 1.5 - 3.0 for 3.0 - 1.5.
PLAIN = (3.0, -0.5, 2, INF)


def _bits(x):
    if isinstance(x, (bool, np.bool_)):
        return ("bool", bool(x))
    return (fpbits.width_of(x), fpbits.to_bits(x))


def _tracked_pool(cls, np_type):
    values = [np_type(1.5), np_type(-2.0), np_type(0.0), np_type(-0.0),
              np_type(INF), np_type(-INF),
              fpbits.nan_with_payload(0x2B, np.dtype(np_type).itemsize * 8)]
    return [cls(v) for v in values]


def _outcome(compute):
    """Result bits and (op, operand bits, result bits, kind, class) per event."""
    session = explicit_session()
    with use_session(session):
        result = compute()
    if not isinstance(result, bool):
        assert isinstance(result, fpx.TrackedFloat)
    events = [(e.op, tuple(map(_bits, e.operands)), _bits(e.result), e.kind,
               e.value_class) for e in session.ledger.events()]
    return _bits(unwrap(result)), events


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


@pytest.mark.parametrize("width", range(len(WIDTHS)), ids=("f64", "f32", "f16"))
@pytest.mark.parametrize("name_arity", sorted(OPERATORS, key=str), ids=str)
def test_operator_methods_match_apply(name_arity, width):
    name, arity = name_arity
    cls, np_type = WIDTHS[width]
    python_op = OPERATORS[name_arity]
    for operands in _cases(arity, cls, np_type):
        reached, args = name, operands
        if name in MIRRORED and not isinstance(operands[0], fpx.TrackedFloat):
            reached, args = MIRRORED[name], operands[::-1]
        # a reflected arithmetic method keeps the plain left operand first
        expected = _outcome(lambda: apply(reached, args))
        assert _outcome(lambda: python_op(*operands)) == expected, (name_arity, operands)


@pytest.mark.parametrize("width", range(len(WIDTHS)), ids=("f64", "f32", "f16"))
@pytest.mark.parametrize("name_arity", sorted(PUBLIC, key=str), ids=str)
def test_public_functions_match_apply(name_arity, width):
    name, arity = name_arity
    cls, np_type = WIDTHS[width]
    fn = getattr(fpx, PUBLIC[name_arity])
    for operands in _cases(arity, cls, np_type):
        expected = _outcome(lambda: apply(name, operands))
        assert _outcome(lambda: fn(*operands)) == expected, (name_arity, operands)


@pytest.mark.parametrize("public", sorted(PUBLIC.values()))
def test_public_function_names(public):
    fn = getattr(fpx, public)
    assert fn is getattr(fpx.tracked, public)
    assert fn.__name__ == fn.__qualname__ == public
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
        "Frame", "GraphDiff", "InjectionConfig", "InjectionRecording", "Injector",
        "InjectorMode", "Ledger", "LedgerConfig", "LogFormatError",
        "NativeTraceProvider", "OpIdentity", "RecordedInjection",
        "RecordingFormatError", "ReplayDivergenceWarning", "StackGraph",
        "StackTrace", "TrackedFloat", "TrackedFloat16", "TrackedFloat32",
        "TrackedFloat64", "TrackerSession", "ValueClass", "apply", "atan2", "ceil",
        "classify", "cos", "current_session", "demo_loop_kill", "demo_max",
        "demo_sim", "exp", "explicit_session", "floor", "hypot", "is_exceptional",
        "load_recording", "log", "maximum", "minimum", "parse_log",
        "propagate_payload", "rem", "render_human", "save_recording", "sin",
        "sqrt", "supported_operations", "tan", "trace_fingerprint", "unwrap",
        "use_session"]
    assert [f.name for f in dataclasses.fields(fpx.LedgerConfig)] == [
        "max_logs", "log_kinds"]
    assert [f.name for f in dataclasses.fields(fpx.InjectionConfig)] == [
        "odds", "n_inject", "functions", "libraries", "value", "seed"]
    # the session of an operation is the one a use_session block selects
    assert list(inspect.signature(fpx.apply).parameters) == ["name", "operands"]
    for (_, arity), public in PUBLIC.items():
        assert list(inspect.signature(getattr(fpx, public)).parameters) == (
            ["x"] if arity == 1 else ["x", "y"])
    # no parameter that only tests would set; the injector derives its mode
    for fn, params in [
        (fpx.NativeTraceProvider, []),
        (fpx.Ledger.record, ["self", "kind", "value_class", "op", "operands", "result",
                             "injected", "capture"]),
        (fpx.Ledger.events, ["self", "kind"]),
        (fpx.Injector.__init__, ["self", "config", "recording"]),
        (fpx.demo_loop_kill, ["inject_tdir", "max_iters", "session"]),
        (fpbits.hex_bits, ["x"]),
    ]:
        assert list(inspect.signature(fn).parameters) == params, fn
