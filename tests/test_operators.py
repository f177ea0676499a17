"""Operator wiring: every operator method and numpy ufunc reaches the
registry row it names, with its operands in the right order.

The expected wiring is the op oracle of tests/conftest.py, written
independently of the operation table in tracked.py, so a row whose methods
name the wrong operation, or a reflected method that passes its operands
unswapped, fails.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import fpx
from conftest import MIRRORED, ROWS, WIDTHS, assert_matches_apply
from fpx import demos, fpbits
from fpx.injector import InjectionConfig, Injector
from fpx.session import explicit_session, use_session
from fpx.tracked import _OPERATIONS, _REGISTRY, TrackedFloat64, apply

INF = float("inf")

# Python syntax that must reach each operator row, forward (tracked on the
# left). With a Python number on the left, Python calls the tracked operand's
# reflected method, the mirror image of a comparison.
OPERATORS = {key: pyop for key, (_, pyop, _, _) in ROWS.items() if pyop is not None}
# numpy's ufunc of every row but the truth test, whose np.bool_ is a type;
# it is the only name of each row that backs no operator.
UFUNCS = {key: ufunc for key, (ufunc, *_) in ROWS.items() if isinstance(ufunc, np.ufunc)}
# Plain operands on either side of a tracked one: with a plain number on the
# left, a reflected method that swapped its operands would compute 1.5 - 3.0
# for 3.0 - 1.5. Ints past 2**53 round at float64 and overflow the narrow
# widths, 10**400 raises before the op is numbered, and a numpy scalar of any
# width is cast to the tracked operand's.
PLAIN = (3.0, -0.5, 2, INF, 0, 1, -1, 2**53, -2**53, 2**53 + 1, 10**400,
         np.float64(2.5), np.float32(-0.75), np.float16(3.0), np.int32(7))


def _cases(arity, width):
    """Every operand tuple of a row at a width: tracked values of the width,
    with a plain operand on either side of a binary row."""
    cls, np_type = WIDTHS[width]
    tracked = [cls(np_type(v)) for v in (1.5, -2.0, 0.0, -0.0, INF, -INF)]
    tracked.append(cls(fpbits.nan_with_payload(0x2B, width)))
    if arity == 1:
        return [(t,) for t in tracked]
    return ([(a, b) for a in tracked for b in tracked]
            + [(t, p) for t in tracked for p in PLAIN]
            + [(p, t) for p in PLAIN for t in tracked])


def _fuzz(calls):
    """A fuzz config that fires on some of the calls' ops."""
    return (InjectionConfig(odds=3, n_inject=len(calls), seed=16),)


def test_every_row_is_wired_once():
    """The oracle names every row in the table's order, the table installs
    only dunders, and exactly the rows with an operator back one; every
    other row is its ufunc's."""
    assert list(ROWS) == [row[:2] for row in _OPERATIONS]
    assert UFUNCS.keys() == _REGISTRY.keys() - {("bool", 1)}
    for name, arity, _, _, methods, _ in _OPERATIONS:
        assert all(m[:2] == m[-2:] == "__" for m in methods.split()), methods
        assert bool(methods) == ((name, arity) in OPERATORS), name


@pytest.mark.parametrize("width", WIDTHS, ids=lambda width: f"f{width}")
@pytest.mark.parametrize("name_arity", sorted(OPERATORS, key=str), ids=str)
def test_operator_methods_match_apply(name_arity, width):
    name, arity = name_arity
    python_op = OPERATORS[name_arity]
    calls, applied = [], []
    for operands in _cases(arity, width):
        reached, args = name, operands
        if name in MIRRORED and not isinstance(operands[0], (fpx.TrackedFloat, np.generic)):
            reached, args = MIRRORED[name], operands[::-1]
        # a reflected arithmetic method keeps the plain left operand first
        calls.append(lambda o=operands: python_op(*o))
        applied.append(lambda r=reached, a=args: apply(r, a))
    assert_matches_apply(calls, applied, _fuzz(calls))


def _assert_ufunc_matches_apply(name_arity, width):
    name, arity = name_arity
    ufunc = UFUNCS[name_arity]
    cases = _cases(arity, width)
    calls = [lambda o=o: ufunc(*o) for o in cases]
    assert_matches_apply(calls, [lambda o=o: apply(name, o) for o in cases], _fuzz(calls))


@pytest.mark.parametrize("width", WIDTHS, ids=lambda width: f"f{width}")
@pytest.mark.parametrize("name_arity", sorted(UFUNCS.keys() & OPERATORS.keys(), key=str), ids=str)
def test_numpy_ufuncs_match_apply(name_arity, width):
    """numpy's own name of an operator row runs the row over tracked values,
    with a plain operand of any kind on either side kept in its place."""
    _assert_ufunc_matches_apply(name_arity, width)


@pytest.mark.parametrize("width", WIDTHS, ids=lambda width: f"f{width}")
@pytest.mark.parametrize("name_arity", sorted(UFUNCS.keys() - OPERATORS.keys(), key=str), ids=str)
def test_public_functions_match_apply(name_arity, width):
    """A row that backs no operator, sqrt or maximum say, runs under numpy's
    name, its only name, as apply runs it."""
    _assert_ufunc_matches_apply(name_arity, width)


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


@pytest.mark.parametrize("public", ["atan2", "ceil", "cos", "exp", "floor", "hypot", "log",
                                    "maximum", "minimum", "rem", "sin", "sqrt", "tan"])
def test_public_function_names(public):
    """numpy's name is a function row's only one: fpx gives it no second
    spelling, so `np.sqrt(t)` is the one way to write it."""
    assert not hasattr(fpx, public) and not hasattr(fpx.tracked, public)
    assert public not in fpx.__all__


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
        "TrackedFloat64", "TrackerSession", "ValueClass", "apply", "current_session",
        "explicit_session", "is_exceptional", "load_recording", "parse_log",
        "propagate_payload", "render_human", "save_recording", "trace_fingerprint",
        "unwrap", "use_session"]
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
