"""Constructing a tracked value: a number too big for the width is an Inf gen."""

import math
import warnings

import numpy as np
import pytest

import fpx
from fpx.classify import EventKind, OpIdentity, ValueClass
from fpx.ledger import parse_log
from fpx.session import explicit_session, use_session
from fpx.tracked import TrackedFloat16, TrackedFloat32, TrackedFloat64

CAST = OpIdentity("cast", 1)
INF = float("inf")

OVERFLOWING = {
    "f16-int": lambda: TrackedFloat16(100000),
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
