"""The one cast to a tracked width, in construction and in every op: a number
too big for the width is an Inf gen, and one that cannot convert raises."""

import math
import warnings

import numpy as np
import pytest

import fpx
from fpx.classify import EventKind, OpIdentity, ValueClass
from fpx.injector import InjectionConfig, Injector
from fpx.ledger import parse_log
from fpx.session import explicit_session, use_session
from fpx.tracked import TrackedFloat16, TrackedFloat32, TrackedFloat64

CAST = OpIdentity("cast", 1)
INF = float("inf")

OVERFLOWING = {
    "f16-int": lambda: TrackedFloat16(100000),
    "f16-int-past-int64": lambda: TrackedFloat16(10**30),
    "f32-float": lambda: TrackedFloat32(1e300),
    "f32-negative": lambda: TrackedFloat32(np.float64(-1e300)),
    "f16-float": lambda: TrackedFloat16(70000.0),
    "f16-from-tracked-f32": lambda: TrackedFloat16(TrackedFloat32(1e38)),
}


def _construct(make):
    session = explicit_session()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with use_session(session), session.traces.scope("build", "model.py", 7):
            value = make()
    return value, session


@pytest.mark.parametrize("make", OVERFLOWING.values(), ids=OVERFLOWING.keys())
def test_overflowing_construction_is_one_inf_gen(make):
    value, session = _construct(make)
    assert math.isinf(value.value)
    (event,) = session.ledger.events()
    assert (event.kind, event.value_class, event.op) == (EventKind.GEN, ValueClass.INF, CAST)
    assert math.isfinite(event.operands[0])
    assert event.result == value.value
    assert [f.function for f in event.trace] == ["build"]


def test_cast_gen_round_trips_through_the_log(tmp_path):
    _, session = _construct(lambda: TrackedFloat16(100000))
    paths = session.ledger.flush(tmp_path)
    assert parse_log(paths[EventKind.GEN]) == session.ledger.events()


@pytest.mark.parametrize("make", [
    lambda: TrackedFloat16(65504.0), lambda: TrackedFloat32(-INF),
    lambda: TrackedFloat16(float("nan")), lambda: TrackedFloat64(1e300),
    lambda: TrackedFloat32(TrackedFloat16(INF)),
], ids=["f16-max", "f32-inf", "f16-nan", "f64-big", "f32-from-inf"])
def test_construction_that_fits_or_is_already_exceptional_logs_nothing(make):
    _, session = _construct(make)
    assert session.ledger.events() == []


def test_cast_is_not_a_registry_row():
    ops = fpx.supported_operations()
    assert len(ops) == 27
    assert CAST not in ops


# A plain operand too big for the op's width: (op, finite source, result, op's event).
OVERFLOWING_OPERANDS = {
    "f16-add-int": (lambda: TrackedFloat16(1.0) + 100000, 100000.0, INF, EventKind.PROP),
    "f16-reflected-sub": (lambda: 100000 - TrackedFloat16(1.0), 100000.0, INF, EventKind.PROP),
    "f16-less": (lambda: TrackedFloat16(1.0) < 70000.0, 70000.0, True, EventKind.KILL),
    "f16-maximum": (lambda: fpx.maximum(TrackedFloat16(1.0), 1e6), 1e6, INF, EventKind.PROP),
    "f32-mul": (lambda: TrackedFloat32(2.0) * 1e300, 1e300, INF, EventKind.PROP),
}


@pytest.mark.parametrize("make, source, result, kind", OVERFLOWING_OPERANDS.values(),
                         ids=OVERFLOWING_OPERANDS.keys())
def test_overflowing_plain_operand_is_a_cast_gen_before_the_op(make, source, result, kind):
    """The op casts its operand as construction does: the Inf is born in the
    cast, a gen whose operand is the finite source, then flows into the op."""
    value, session = _construct(make)
    assert (value if type(value) is bool else value.value) == result
    gen, event = session.ledger.events()
    assert (gen.kind, gen.value_class, gen.op) == (EventKind.GEN, ValueClass.INF, CAST)
    assert gen.operands == (source,) and gen.result == INF
    assert (event.kind, event.value_class) == (kind, ValueClass.INF)
    assert INF in event.operands and gen.seq < event.seq
    assert [f.function for f in gen.trace] == [f.function for f in event.trace] == ["build"]


# Numbers float64 cannot hold; a np.longdouble only where it is wider than float64.
LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).max > np.finfo(np.float64).max
PAST_FLOAT64 = [10**400] + ([np.longdouble("1e400")] if LONGDOUBLE_IS_WIDER else [])


@pytest.mark.parametrize("cls", [TrackedFloat64, TrackedFloat16])
def test_operand_that_cannot_convert_raises_before_the_op_is_numbered(cls):
    """An int or a np.longdouble past float64 raises OverflowError before the
    injector decides: no op number, no injection point spent, no event."""
    for operand in PAST_FLOAT64:
        session = explicit_session(injector=Injector(InjectionConfig(odds=1)))
        x = cls(1.0)
        with use_session(session), pytest.raises(OverflowError):
            x + operand
        assert session.injector.op_counter == 0
        assert session.injector.recording.points == []
        assert session.ledger.events() == []
        with use_session(session):
            assert math.isnan((x + 1.0).value)      # the injection is still unspent
        assert [p.op_counter for p in session.injector.recording.points] == [1]


@pytest.mark.skipif(not LONGDOUBLE_IS_WIDER, reason="np.longdouble is float64 here")
@pytest.mark.parametrize("cls", [TrackedFloat64, TrackedFloat32, TrackedFloat16])
def test_longdouble_past_float64_does_not_construct(cls):
    """A finite np.longdouble past float64 raises, as an int past it does,
    instead of becoming an Inf that no event explains."""
    session = explicit_session()
    with use_session(session), pytest.raises(OverflowError):
        cls(np.longdouble("-1e400"))
    assert session.ledger.events() == []
