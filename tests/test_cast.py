"""The one cast to a tracked width, in construction and in every op: a number
too big for the width is an Inf gen, and one that cannot convert raises."""

import math
import random
import struct
import warnings

import numpy as np
import pytest

import fpx
from fpx import fpbits, tracked
from fpx.classify import EventKind, OpIdentity, ValueClass
from fpx.injector import InjectionConfig, Injector
from fpx.ledger import parse_log
from fpx.session import explicit_session, use_session
from fpx.tracked import _REGISTRY, TrackedFloat16, TrackedFloat32, TrackedFloat64, apply

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
    ops = [row[2] for row in _REGISTRY.values()]
    assert len(ops) == 27
    assert CAST not in ops


# A plain operand too big for the op's width: (op, finite source, result, op's event).
OVERFLOWING_OPERANDS = {
    "f16-add-int": (lambda: TrackedFloat16(1.0) + 100000, 100000.0, INF, EventKind.PROP),
    "f16-reflected-sub": (lambda: 100000 - TrackedFloat16(1.0), 100000.0, INF, EventKind.PROP),
    "f16-less": (lambda: TrackedFloat16(1.0) < 70000.0, 70000.0, True, EventKind.KILL),
    "f16-maximum": (lambda: np.maximum(TrackedFloat16(1.0), 1e6), 1e6, INF, EventKind.PROP),
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


# What apply refuses as an operand, construction refuses before any cast.
REFUSED = {
    "f64-str": (TrackedFloat64, "1.5"),
    "f16-overflowing-str": (TrackedFloat16, "1e10"),
    "none": (TrackedFloat64, None),
    "list": (TrackedFloat32, [1.0]),
    "np-bool": (TrackedFloat64, np.bool_(True)),
}


@pytest.mark.parametrize("cls, value", REFUSED.values(), ids=REFUSED.keys())
def test_construction_refuses_what_apply_refuses(cls, value):
    """One operand rule for the way in and for ops: a value apply refuses is
    a TypeError at construction, before any cast, event or op number."""
    session = explicit_session(injector=Injector(InjectionConfig(odds=1)))
    with use_session(session):
        with pytest.raises(TypeError, match="unsupported operand type for \\+: "):
            apply("+", (cls(1.0), value))
        with pytest.raises(TypeError, match=f"unsupported operand type for {cls.__name__}: "):
            cls(value)
    assert session.ledger.events() == []
    assert session.injector.op_counter == 0


@pytest.mark.parametrize("value", [1.0, 1e300, np.float64(70000.0), float("nan"), 2,
                                   TrackedFloat16(1.0)])
def test_base_class_refuses_construction(value):
    """The base class has no width: constructing it names the width classes,
    before any cast or event, whatever the value would do at a width."""
    session = explicit_session(injector=Injector(InjectionConfig(odds=1)))
    with use_session(session), pytest.raises(
            TypeError, match="TrackedFloat64, TrackedFloat32 or TrackedFloat16"):
        fpx.TrackedFloat(value)
    assert session.ledger.events() == []
    assert session.injector.op_counter == 0


def _ints():
    """Python ints of every bit length up to 1023 and both signs, the rounding
    edges of float64, and the extremes of every numpy integer type."""
    rng = random.Random(16)
    ints = [rng.getrandbits(bits) * rng.choice((1, -1)) for bits in range(1, 1024)]
    ints += [0, 1, -1, 2**53 - 1, 2**53, 2**53 + 1, -(2**53 + 1), 2**63 - 1, -2**63,
             2**64 - 1, 2**64, 2**64 + 1, 2**1024 - 2**970 - 1, True, False]
    for t in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
              np.uint64):
        ints += [np.iinfo(t).min, np.iinfo(t).max, t(np.iinfo(t).min), t(np.iinfo(t).max)]
    return ints


def _floats():
    """Every float16 pattern, seeded float32 patterns with signalling and
    payload NaNs among them, the float extremes of every width and +-0."""
    rng = np.random.default_rng(16)
    f16 = list(np.arange(2**16, dtype=np.uint16).view(np.float16))
    f32 = list(rng.integers(0, 2**32, 4000, dtype=np.uint32).view(np.float32))
    f32 += [fpbits.from_bits(b, 32) for b in (0x7F800001, 0xFFA00001, 0x7FC12345, 0xFFBFFFFF)]
    extremes = [t(x) for t in (np.float16, np.float32, np.float64)
                for info in (np.finfo(t),)
                for x in (info.max, -info.max, info.tiny, info.smallest_subnormal,
                          info.eps, 0.0, -0.0)]
    plain = [0.0, -0.0, 5e-324, float(np.finfo(np.float64).max), fpbits.nan_with_payload(0x77)]
    in_range = [np.longdouble(1) / 3, np.longdouble("-1e-320"), np.longdouble("1.7e308")]
    return f16 + f32 + extremes + plain + in_range


CAST_POOL = _ints() + _floats()
INTS_PAST_FLOAT64 = [2**1024, -(2**1024), 10**400, 2**1024 - 2**970]


def _float64_outcome(convert, v):
    try:
        with np.errstate(all="ignore"):
            return "bits", struct.pack("<d", convert(v))
    except OverflowError as e:
        return "raises", str(e)


def test_float64_cast_is_numpys_float64_bit_for_bit():
    """At float64 _cast gives np.float64's bits as a Python float, NaN payloads
    and signalling NaNs included, and raises OverflowError, with numpy's
    message, for the ints numpy refuses."""
    for v in CAST_POOL + INTS_PAST_FLOAT64:
        expected = _float64_outcome(np.float64, v)
        assert _float64_outcome(lambda x: tracked._cast(TrackedFloat64, (x,))[0], v) == (
            expected), (type(v), v)
        if expected[0] == "bits":
            assert type(tracked._cast(TrackedFloat64, (v,))[0]) is float
    assert [_float64_outcome(np.float64, v)[0] for v in INTS_PAST_FLOAT64] == ["raises"] * 4
    for v in PAST_FLOAT64:      # a np.longdouble too, where it is wider than float64
        with pytest.raises(OverflowError):
            tracked._cast(TrackedFloat64, (v,))


class _Touched(Exception):
    pass


def test_float64_cast_of_python_and_numpy_scalars_enters_no_errstate(monkeypatch):
    """A float, int, bool, np.float16/32/64 or numpy integer reaches float64,
    in construction and as an operand, without numpy's trap suppression."""
    def touched(**_):
        raise _Touched
    monkeypatch.setattr(np, "errstate", touched)
    with pytest.raises(_Touched):       # the guard does see the narrow cast
        tracked._cast(TrackedFloat16, (1.0,))
    session = explicit_session()
    with use_session(session):
        for v in CAST_POOL:
            if type(v) is not np.longdouble:
                tracked._cast(TrackedFloat64, (v,))
                TrackedFloat64(v)
                TrackedFloat64(1.5) + v      # one NaN at most: the twin computes


# The prop line of NaN * 2 and of NaN * np.float64(2.0), written when apply
# still computed these with the ufunc over np.float64 operands: the float()
# cast and the twin must reproduce every byte.
_NAN_TIMES_TWO = (
    '{{"seq": {}, "kind": "prop", "class": "nan", "op": "*", "arity": 2, '
    '"operands": [{{"dec": "NaN", "hex": "0xfff800000000002a"}}, '
    '{{"dec": "2.0", "hex": "0x4000000000000000"}}], '
    '"result": {{"dec": "NaN", "hex": "0xfff800000000002a"}}, "injected": false, '
    '"trace": [{{"fn": "step", "file": "model.py", "line": 3}}]}}\n')


def test_nan_times_an_int_or_numpy_scalar_logs_the_golden_prop_line(tmp_path):
    session = explicit_session()
    n = TrackedFloat64(fpbits.from_bits(0xFFF800000000002A))
    with use_session(session), session.traces.scope("step", "model.py", 3):
        results = [n * 2, n * np.float64(2.0)]
    assert [fpbits.to_bits(r.value) for r in results] == [0xFFF800000000002A] * 2
    path = session.ledger.flush(tmp_path)[EventKind.PROP]
    assert path.read_text(encoding="utf-8") == _NAN_TIMES_TWO.format(1) + _NAN_TIMES_TWO.format(2)
