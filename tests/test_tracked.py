"""Tracked scalar semantics: the intercept pipeline, transparency, payloads.
Transparency over random programs and the payload chain are acceptance
criteria 8 and 9."""

import contextlib
import copy
import math
import pickle
import random
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (ROWS, WIDTHS, assert_matches_apply, run_threads, scalar_bits,
                      thread_changes)
from fpx import fpbits, tracked
from fpx.classify import (EventKind, OpIdentity, ValueClass, classify,
                          propagate_payload)
from fpx.fpbits import _pack_dd, _unpack_qq
from fpx.injector import (InjectionConfig, InjectionRecording, Injector, RecordedInjection,
                          ReplayDivergenceWarning, load_recording, save_recording)
from fpx.session import explicit_session, use_session
from fpx.traces import trace_fingerprint
from fpx.tracked import (_REGISTRY, TrackedFloat, TrackedFloat16,
                         TrackedFloat32, TrackedFloat64, apply, unwrap)

NAN = float("nan")
INF = float("inf")

COMPARISONS = {key for key, (_, _, _, comparison) in ROWS.items() if comparison}
LEAF_POOL_64 = [
    0.0, -0.0, 1.0, -1.0, 2.5, -3.75, 1e-300, -1e308, 1e308, 0.5, 1234.5678,
    INF, -INF, NAN, 5e-324,
]


def test_wrap_unwrap_bit_identity():
    for x in (1.5, -0.0, 0.0, INF, -INF, 5e-324):
        assert fpbits.to_bits(unwrap(TrackedFloat64(x))) == fpbits.to_bits(x)
    p = fpbits.nan_with_payload(0x123)
    assert fpbits.to_bits(unwrap(TrackedFloat64(p))) == fpbits.to_bits(p)
    n32 = fpbits.from_bits(0x7FC00123, 32)
    assert fpbits.to_bits(unwrap(TrackedFloat32(n32))) == 0x7FC00123


@given(st.integers(0, 2**64 - 1))
def test_wrap_unwrap_bit_identity_exhaustive(bits):
    x = fpbits.from_bits(bits, 64)
    assert fpbits.to_bits(unwrap(TrackedFloat64(x))) == bits


def test_apply_examples(session):
    with use_session(session):
        r = apply("/", (TrackedFloat64(0.0), TrackedFloat64(0.0)))
        assert math.isnan(unwrap(r))
        events = session.ledger.events()
        assert len(events) == 1
        assert events[0].kind is EventKind.GEN
        assert events[0].value_class is ValueClass.NAN

        avogadro, planck = 6.02214076e23, 6.62607015e-34
        r = apply("+", (TrackedFloat64(avogadro), TrackedFloat64(planck)))
        assert unwrap(r) == avogadro

        r = apply("max", (TrackedFloat64(5.0), TrackedFloat64(NAN)))
        assert math.isnan(unwrap(r))
        props = session.ledger.events(kind=EventKind.PROP)
        assert len(props) == 1 and props[0].op == OpIdentity("max", 2)

        r = apply("pow", (TrackedFloat64(1.0), TrackedFloat64(NAN)))
        assert unwrap(r) == 1.0
        kills = session.ledger.events(kind=EventKind.KILL)
        assert any(e.op == OpIdentity("pow", 2) and e.value_class is ValueClass.NAN
                   for e in kills)


def test_dual_class_event(session):
    with use_session(session):
        r = TrackedFloat64(-INF) - TrackedFloat64(-INF)
    assert math.isnan(unwrap(r))
    events = session.ledger.events()
    assert len(events) == 2
    kinds = {(e.value_class, e.kind) for e in events}
    assert kinds == {(ValueClass.NAN, EventKind.GEN), (ValueClass.INF, EventKind.KILL)}


def test_transitive_tracking(session):
    with use_session(session):
        assert isinstance(TrackedFloat64(2.0) * 3.0, TrackedFloat64)
        assert isinstance(3.0 * TrackedFloat64(2.0), TrackedFloat64)
        assert isinstance(2 + TrackedFloat64(1.0), TrackedFloat64)
        assert isinstance(TrackedFloat64(1.0) < 2.0, bool)
        assert isinstance(np.sqrt(TrackedFloat64(2.0)), TrackedFloat64)


def test_mixed_width_promotes_to_wider(session):
    with use_session(session):
        assert isinstance(TrackedFloat64(1.0) + TrackedFloat32(1.0), TrackedFloat64)
        assert isinstance(TrackedFloat32(1.0) + TrackedFloat64(1.0), TrackedFloat64)
        assert isinstance(TrackedFloat32(1.0) + TrackedFloat16(1.0), TrackedFloat32)
        # plain operands are weak: they coerce to the tracked width
        assert isinstance(TrackedFloat32(1.0) + 2.0, TrackedFloat32)
        assert isinstance(TrackedFloat16(1.0) * 2, TrackedFloat16)


def test_comparison_kills(session):
    nan = TrackedFloat64(NAN)
    three = TrackedFloat64(3.0)
    with use_session(session):
        assert (nan < three) is False
        assert (nan <= three) is False
        assert (nan > three) is False
        assert (nan >= three) is False
        assert (nan == three) is False
        assert (nan != three) is True
    events = session.ledger.events()
    assert len(events) == 6
    assert all(e.kind is EventKind.KILL and e.value_class is ValueClass.NAN
               for e in events)


def test_clean_comparisons_emit_nothing(session):
    with use_session(session):
        assert bool(TrackedFloat64(1.0) < TrackedFloat64(2.0))
        assert TrackedFloat64(2.0) == TrackedFloat64(2.0)
    assert session.ledger.events() == []


def test_min_max_propagate_nan(session):
    with use_session(session):
        assert math.isnan(unwrap(np.maximum(TrackedFloat64(5.0), TrackedFloat64(NAN))))
        assert math.isnan(unwrap(np.minimum(TrackedFloat64(NAN), TrackedFloat64(5.0))))


def test_unsupported_and_untracked():
    with pytest.raises(ValueError):
        apply("@", (TrackedFloat64(1.0), TrackedFloat64(2.0)))
    with pytest.raises(TypeError):
        apply("+", (1.0, 2.0))


def test_immutability_and_conversions():
    t = TrackedFloat64(2.5)
    with pytest.raises(AttributeError):
        t._value = 3.0
    assert int(t) == 2
    assert bool(t) is True
    assert bool(TrackedFloat64(0.0)) is False
    assert bool(TrackedFloat64(-0.0)) is False
    with pytest.raises(ValueError):
        int(TrackedFloat64(NAN))
    assert repr(t) == "TrackedFloat64(2.5)"


# Per width: a quiet NaN with a payload, a signalling NaN, a negative
# signalling NaN, the signed zeros and the infinities.
EDGE_BITS = {64: (0x7FF8000000000001, 0x7FF0000000000ABC, 0xFFF4000000000123, 0x0,
                  0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000),
             32: (0x7FC00123, 0x7F800001, 0xFFA00005, 0x0, 0x80000000, 0x7F800000, 0xFF800000),
             16: (0x7E01, 0x7C03, 0xFC01, 0x0, 0x8000, 0x7C00, 0xFC00)}


@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_copy_and_pickle_keep_the_class_and_bits(width):
    """copy.copy, copy.deepcopy and a pickle round trip rebuild a tracked
    value through its constructor, with its class and bits, and log no
    event and count no op, even under an injector that fires on every op."""
    cls = WIDTHS[width][0]
    session = explicit_session(injector=Injector.fuzz(InjectionConfig(odds=1, n_inject=99)))
    with use_session(session):
        for bits in EDGE_BITS[width]:
            t = cls(fpbits.from_bits(bits, width))
            for round_trip in (copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))):
                u = round_trip(t)
                assert type(u) is cls and type(u.value) is type(t.value)
                assert fpbits.to_bits(u.value) == bits, (round_trip, hex(bits))
    assert session.ledger.events() == [] and session.injector.op_counter == 0
    assert session.injector.recording.points == []


@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_truth_of_exceptional_value_is_a_kill(width):
    """bool() of NaN or Inf is True and logs a kill; of a finite value, nothing.
    Truth takes no injector decision, like the comparisons."""
    cls = WIDTHS[width][0]
    cases = [(NAN, True, [(EventKind.KILL, ValueClass.NAN)]),
             (INF, True, [(EventKind.KILL, ValueClass.INF)]),
             (-INF, True, [(EventKind.KILL, ValueClass.INF)]),
             (0.0, False, []), (-0.0, False, []), (2.5, True, [])]
    for value, truth, expected in cases:
        session = explicit_session()
        with use_session(session):
            assert bool(cls(value)) is truth
            assert (not cls(value)) is (not truth)
        events = session.ledger.events()
        assert [(e.kind, e.value_class) for e in events] == expected * 2, value
        assert all(e.op == OpIdentity("bool", 1) for e in events)
        assert session.injector.op_counter == 0


@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_format_is_the_wrapped_value_and_logs_nothing(width):
    """format() and f-strings format the wrapped value, a visible text exit:
    no event, no injector decision, no op counted, even when exceptional."""
    cls = WIDTHS[width][0]
    session = explicit_session(injector=Injector.fuzz(InjectionConfig(odds=1, n_inject=9)))
    with use_session(session):
        for value in (2.5, -0.1, 0.0, NAN, INF, -INF):
            x = cls(value)
            for spec in ("", ".2f", ">12.3e", "g", "+.1%"):
                assert format(x, spec) == format(unwrap(x), spec), (value, spec)
            assert f"{x:.2f}" == f"{unwrap(x):.2f}"
    assert session.ledger.events() == []
    assert session.injector.op_counter == 0
    assert session.injector.recording.points == []


def test_numpy_does_not_absorb_tracked(session):
    with use_session(session):
        r = np.float64(2.0) * TrackedFloat64(3.0)
    assert isinstance(r, TrackedFloat64)
    assert unwrap(r) == 6.0


def test_tracked_float16_round_trip():
    t = TrackedFloat16(1.5)
    assert isinstance(unwrap(t), np.float16)
    session = explicit_session()
    with use_session(session):
        r = t / TrackedFloat16(0.0)
    assert math.isinf(float(unwrap(r)))
    assert session.ledger.events()[0].value_class is ValueClass.INF


def test_supported_operations_table():
    ops = [row[2] for row in _REGISTRY.values()]
    assert OpIdentity("+", 2) in ops
    assert OpIdentity("-", 1) in ops
    assert OpIdentity("<", 2) in ops
    assert OpIdentity("bool", 1) in ops
    assert len(ops) == 27


def test_concurrent_apply_serializes_events():
    """Four threads log NaN props into one session, each yielding the GIL
    after every op: every event is stored once, at its own seq."""
    session = explicit_session()
    nan = TrackedFloat64(NAN)
    one = TrackedFloat64(1.0)
    applied_by = []

    def worker(_):
        with use_session(session):
            for _ in range(100):
                apply("+", (nan, one))
                applied_by.append(threading.get_ident())
                time.sleep(0)

    run_threads(worker, range(4))
    events = session.ledger.events()
    assert len(events) == 400
    assert len({e.seq for e in events}) == 400
    assert thread_changes(applied_by) > 100   # about 300 in 400


def _predicted(name_arity, operands, np_type):
    """Bare-ufunc result, NaN payload pinned to its source as the pipeline
    does, and the (kind, class) events classify predicts for it, after an Inf
    gen of the cast for each finite operand too big for the width."""
    impl = ROWS[name_arity][0]      # the plain-scalar oracle, no pipeline
    with np.errstate(all="ignore"):
        xs = tuple(np_type(unwrap(o)) for o in operands)
        raw = impl(*xs)
    op = OpIdentity(*name_arity)
    if name_arity not in COMPARISONS:
        raw = propagate_payload(xs, raw)
    events = [(EventKind.GEN, ValueClass.INF, OpIdentity("cast", 1),
               (scalar_bits(np.float64(unwrap(o))),), scalar_bits(x))
              for o, x in zip(operands, xs)
              if math.isinf(x) and math.isfinite(np.float64(unwrap(o)))]
    events += [(kind, vc, op, tuple(map(scalar_bits, xs)), scalar_bits(raw))
               for vc in (ValueClass.NAN, ValueClass.INF)
               if (kind := classify(vc, xs, raw)) is not None]
    return raw, events


def _observed(name_arity, operands):
    session = explicit_session()
    with use_session(session):
        result = apply(name_arity[0], operands)
    if not isinstance(result, bool):
        assert type(result._value) is type(result)._store
    events = [(e.kind, e.value_class, e.op, tuple(map(scalar_bits, e.operands)),
               scalar_bits(e.result)) for e in session.ledger.events()]
    return unwrap(result), events


def _check_against_reference(name_arity, operands, np_type):
    expected, expected_events = _predicted(name_arity, operands, np_type)
    result, events = _observed(name_arity, operands)
    assert scalar_bits(result) == scalar_bits(expected), (name_arity, operands)
    assert events == expected_events, (name_arity, operands)
    return events


def _value_pool(width):
    """Tracked-width edge values plus plain int/float operands."""
    np_type = WIDTHS[width][1]
    finfo = np.finfo(np_type)
    tiny_subnormal = fpbits.from_bits(1, width)
    return [
        np_type(0.0), np_type(-0.0), tiny_subnormal, -tiny_subnormal,
        np_type(finfo.max), np_type(-finfo.max), np_type(1.5),
        np_type(INF), np_type(-INF), fpbits.nan_with_payload(0x5A, width),
    ], [2, -3, 100000, 0.5, 1e300]


@pytest.mark.parametrize("width", sorted(WIDTHS))
@pytest.mark.parametrize("name_arity", sorted(_REGISTRY, key=str), ids=str)
def test_fast_path_matches_classify_reference(name_arity, width):
    """Every registry row, every width: results are the bare ufunc's, bit for
    bit (NaN payloads pinned), and events are what classify predicts over
    both value classes, so skipping classification on the clean path loses
    nothing."""
    cls, np_type = WIDTHS[width]
    tracked_values, plain_values = _value_pool(width)
    tracked = [cls(v) for v in tracked_values]
    if name_arity[1] == 1:
        cases = [(t,) for t in tracked]
    else:
        cases = [(a, b) for a in tracked for b in tracked + plain_values]
        cases += [(p, t) for p in plain_values for t in tracked]
    for operands in cases:
        _check_against_reference(name_arity, operands, np_type)


@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_fast_path_boundary_events(width):
    """Operations the finiteness test must send down the classifying path."""
    cls, np_type = WIDTHS[width]
    big = cls(np.finfo(np_type).max)
    cases = {
        # Inf operand, finite result: an Inf kill
        (("/", 2), (cls(1.0), cls(INF))): [(EventKind.KILL, ValueClass.INF)],
        (("atan2", 2), (cls(1.0), cls(-INF))): [(EventKind.KILL, ValueClass.INF)],
        # finite operands overflowing to Inf: an Inf gen
        (("*", 2), (big, cls(2.0))): [(EventKind.GEN, ValueClass.INF)],
        (("exp", 1), (big,)): [(EventKind.GEN, ValueClass.INF)],
        # comparisons against NaN: NaN kills
        (("<", 2), (cls(NAN), 1.0)): [(EventKind.KILL, ValueClass.NAN)],
        (("==", 2), (2, cls(NAN))): [(EventKind.KILL, ValueClass.NAN)],
        (("!=", 2), (cls(NAN), cls(NAN))): [(EventKind.KILL, ValueClass.NAN)],
        # clean in, clean out: nothing
        (("+", 2), (cls(1.0), 2)): [],
        (("<", 2), (cls(1.0), cls(2.0))): [],
    }
    if width == 16:
        # a plain int that overflows the tracked width is an Inf gen of the
        # cast, then an Inf operand
        cases[(("+", 2), (cls(1.0), 100000))] = [(EventKind.GEN, ValueClass.INF),
                                                  (EventKind.PROP, ValueClass.INF)]
    for (name_arity, operands), expected in cases.items():
        events = _check_against_reference(name_arity, operands, np_type)
        assert [(kind, vc) for kind, vc, *_ in events] == expected, (name_arity, width)


def test_plain_operand_overflowing_the_width_warns_nothing():
    """A plain operand too big for a narrow tracked width becomes Inf inside
    the pipeline: logged as an Inf gen of the cast, then an Inf prop, with no
    numpy cast warning escaping."""
    session = explicit_session()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with use_session(session):
            results = [TrackedFloat32(1.0) + 1e300, TrackedFloat16(1.0) + 100000]
    assert [r.value for r in results] == [INF, INF]
    assert [(e.kind, e.value_class) for e in session.ledger.events()] == [
        (EventKind.GEN, ValueClass.INF), (EventKind.PROP, ValueClass.INF)] * 2


@pytest.mark.parametrize("width", [64, 16])
def test_every_nan_result_is_pinned_by_propagate_payload(monkeypatch, width):
    """One pin serves every width: a NaN op calls propagate_payload once,
    at float64 on its way into an empty outcome table."""
    cls, _ = WIDTHS[width]
    calls = []
    monkeypatch.setattr(tracked, "_OUTCOMES", {})

    def spy(operands, raw_result):
        calls.append(raw_result)
        return propagate_payload(operands, raw_result)

    monkeypatch.setattr(tracked, "propagate_payload", spy)
    nan = cls(fpbits.nan_with_payload(0x5A, width))
    with use_session(explicit_session()):
        result = nan + 1.0
    assert len(calls) == 1
    assert fpbits.nan_payload(result.value) == 0x5A


EXACT_ROWS = sorted((key for key, row in _REGISTRY.items() if row[3] is not None), key=str)
FLOAT64_MAX = float(np.finfo(np.float64).max)
FLOAT64_EDGES = [0.0, -0.0, 5e-324, -5e-324, FLOAT64_MAX, -FLOAT64_MAX, 1.0, -2.5]
# Pairs that overflow, divide by zero or cancel to zero in the Python operator.
FLOAT64_EDGE_PAIRS = [
    (FLOAT64_MAX, FLOAT64_MAX), (-FLOAT64_MAX, FLOAT64_MAX), (FLOAT64_MAX, 0.5),
    (1e308, 1e-308), (1.0, 0.0), (-1.0, -0.0), (0.0, 0.0), (-0.0, 0.0),
    (5e-324, 0.0), (1.5, 1.5), (5e-324, 2.0), (5e-324, -5e-324),
]


def _random_finite_float64s(rng, n):
    """Finite doubles from uniform bit patterns, so every exponent (and the
    subnormals) turns up about equally often."""
    out = []
    while len(out) < n:
        x = fpbits.from_bits(rng.getrandbits(64), 64)
        if math.isfinite(x):
            out.append(x)
    return out


def _result_np_type(operands):
    widest = max(o._width for o in operands if isinstance(o, TrackedFloat))
    return WIDTHS[widest][1]


@pytest.mark.parametrize("name_arity", EXACT_ROWS, ids=str)
def test_exact_float_rows_bit_transparent(name_arity):
    """Rows with a Python float twin: over finite float64 values the tracked
    result's bits and events are the bare ufunc's. Operands that are not
    plain floats (numpy scalars, ints, narrower tracked widths) take the ufunc
    as before. No floating-point warning escapes either path."""
    rng = random.Random(0xF10A7 + EXACT_ROWS.index(name_arity))
    arity = name_arity[1]
    randoms = _random_finite_float64s(rng, 1500 * arity)
    # operands near one another in magnitude, where rounding actually happens
    randoms += [rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-40, 40)
                for _ in range(1500 * arity)]
    rng.shuffle(randoms)
    if arity == 1:
        cases = [(TrackedFloat64(x),) for x in randoms + FLOAT64_EDGES]
    else:
        pairs = list(zip(randoms[::2], randoms[1::2]))
        pairs += [(a, b) for a in FLOAT64_EDGES for b in FLOAT64_EDGES]
        pairs += FLOAT64_EDGE_PAIRS + [(b, a) for a, b in FLOAT64_EDGE_PAIRS]
        # a plain float on either side takes the Python path as well
        shapes = (lambda a, b: (TrackedFloat64(a), TrackedFloat64(b)),
                  lambda a, b: (TrackedFloat64(a), b),
                  lambda a, b: (a, TrackedFloat64(b)))
        cases = [shapes[i % 3](a, b) for i, (a, b) in enumerate(pairs)]
    others = [np.float64(1.5), np.float64(0.0), np.float64(FLOAT64_MAX), 3, 0,
              TrackedFloat32(1.5), TrackedFloat32(0.0), TrackedFloat16(-2.0),
              TrackedFloat16(0.0)]
    if arity == 1:
        cases += [(o,) for o in others if isinstance(o, TrackedFloat)]
    else:
        for o in others:
            for x in (TrackedFloat64(0.1), TrackedFloat64(FLOAT64_MAX), TrackedFloat64(-0.0)):
                cases += [(x, o), (o, x)]
        cases += [(TrackedFloat32(0.1), TrackedFloat16(0.0)),
                  (TrackedFloat16(3.0), TrackedFloat32(7.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for operands in cases:
            if name_arity in COMPARISONS:
                with use_session(explicit_session()):
                    assert type(apply(name_arity[0], operands)) is bool
            _check_against_reference(name_arity, operands, _result_np_type(operands))


# Operator methods with a fused clean path, and the apply call each stands
# for: a reflected method passes its operands swapped.
FUSED = {
    "__add__": "+", "__radd__": "+", "__sub__": "-", "__rsub__": "-",
    "__mul__": "*", "__rmul__": "*", "__truediv__": "/", "__rtruediv__": "/",
    "__neg__": "-", "__abs__": "abs", "__lt__": "<", "__le__": "<=",
    "__gt__": ">", "__ge__": ">=", "__eq__": "==", "__ne__": "!=", "__bool__": "bool",
}


def _fused_cases(arity):
    """(self, other) pairs, or (self,), over the pool of the bit-transparency
    test: edges, overflow and x/0 pairs, x/inf, NaN and Inf operands, and
    plain ints (past 2**53, and 10**400, which raises before the op is
    numbered), numpy scalars of each width and narrow tracked values on
    either side (a reflected method puts a plain other on the left)."""
    values = FLOAT64_EDGES + [NAN, INF, -INF, fpbits.nan_with_payload(0x77)]
    if arity == 1:
        return [(TrackedFloat64(v),) for v in values] + [
            (TrackedFloat32(1.5),), (TrackedFloat16(-0.0),), (TrackedFloat32(INF),)]
    pairs = [(a, b) for a in values for b in values]
    pairs += FLOAT64_EDGE_PAIRS + [(b, a) for a, b in FLOAT64_EDGE_PAIRS]
    pairs += [(1.0, INF), (-3.0, -INF), (0.0, INF)]
    cases = [(TrackedFloat64(a), b) for a, b in pairs]
    cases += [(TrackedFloat64(a), TrackedFloat64(b)) for a, b in pairs]
    others = [np.float64(1.5), np.float64(FLOAT64_MAX), 3, 0, 1, -1, 2**53, -2**53,
              2**53 + 1, 10**400, np.float32(-0.75), fpbits.from_bits(0x7FC00123, 32),
              np.float16(3.0), np.float16(-INF), TrackedFloat32(1.5), TrackedFloat32(0.0),
              TrackedFloat16(-2.0)]
    for o in others:
        for x in (0.1, FLOAT64_MAX, -0.0, NAN):
            cases.append((TrackedFloat64(x), o))
            if isinstance(o, TrackedFloat):
                cases.append((o, TrackedFloat64(x)))
    return cases + [(TrackedFloat32(1.5), 2.0), (TrackedFloat16(2.0), 0.5),
                    (TrackedFloat16(2.0), 2**53 + 1), (TrackedFloat32(1.5), np.float16(3.0))]


@pytest.mark.parametrize("dunder", sorted(FUSED))
def test_fused_methods_match_apply(dunder):
    """A fused operator method gives apply's result bits, events and op count
    under an OFF injector, fuzz injectors that fire on every op or on some,
    and replays of their recordings: injections land on the same op numbers,
    so the clean path never pre-empts an injector decision."""
    name = FUSED[dunder]
    arity = 1 if dunder in ("__neg__", "__abs__", "__bool__") else 2
    cases = _fused_cases(arity)
    fused = [lambda c=c: getattr(c[0], dunder)(*c[1:]) for c in cases]
    operands = [c if arity == 1 or not dunder.startswith("__r") else c[::-1]
                for c in cases]
    applied = [lambda o=o: apply(name, o) for o in operands]
    # odds=1 fires on every op until its budget ends; odds=3 fires on some
    every, some = assert_matches_apply(fused, applied, (
        InjectionConfig(odds=1, n_inject=len(cases) // 2, seed=5),
        InjectionConfig(odds=3, n_inject=len(cases), seed=7)))
    if (name, arity) not in COMPARISONS:
        raised = sum(r[0] is OverflowError for r in some[0])
        assert raised == (4 if arity == 2 else 0)        # 10**400 after each of 4 values
        assert some[2] == len(cases) - raised
        assert len(every[3]) == len(cases) // 2 and 0 < len(some[3]) < len(cases)


# NaN and Inf operands for the substrate rule: two NaNs of opposite signs and
# different payloads, a signalling NaN (quiet bit clear), both infinities, and
# finite values including both zeros, for x/0 and x/-0.
SPECIAL_FLOAT64 = [fpbits.nan_with_payload(0x123), fpbits.from_bits(0xFFF800000000BEEF),
                   fpbits.from_bits(0x7FF0000000000ABC), INF, -INF,
                   1.5, -2.0, 0.0, -0.0, 5e-324, FLOAT64_MAX]
_DUNDERS = {}
for _dunder, _name in FUSED.items():
    _DUNDERS.setdefault((_name, 1 if _dunder in ("__neg__", "__abs__", "__bool__") else 2),
                        []).append(_dunder)


def _special_cases(arity, shapes):
    if arity == 1:
        return [(TrackedFloat64(a),) for a in SPECIAL_FLOAT64]
    pairs = [(a, b) for a in SPECIAL_FLOAT64 for b in SPECIAL_FLOAT64]
    return [shape(a, b) for a, b in pairs for shape in shapes]


@pytest.mark.parametrize("name_arity", sorted(_REGISTRY, key=str), ids=str)
def test_nan_and_inf_operands_match_the_bare_ufunc(name_arity):
    """Every row over NaN, Inf and zero-divisor operands, through apply and,
    for a row with a fused method, through that method: the result is the
    bare ufunc's after payload pinning, bit for bit, and the events are what
    classify predicts. All of it runs under a caller's np.seterr(all="raise"),
    which no op trips and every op leaves in place."""
    shapes = [lambda a, b: (TrackedFloat64(a), TrackedFloat64(b))]
    if _REGISTRY[name_arity][3] is not None:
        shapes += [lambda a, b: (TrackedFloat64(a), b), lambda a, b: (a, TrackedFloat64(b))]
    cases = _special_cases(name_arity[1], shapes)
    caller = np.seterr(all="raise")
    try:
        raising = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for operands in cases:
                _check_against_reference(name_arity, operands, np.float64)
                assert np.geterr() == raising
                for dunder in _DUNDERS.get(name_arity, ()):
                    self, *other = operands[::-1] if dunder.startswith("__r") else operands
                    if not isinstance(self, TrackedFloat):
                        continue
                    expected, expected_events = _predicted(name_arity, operands, np.float64)
                    session = explicit_session()
                    with use_session(session):
                        result = getattr(self, dunder)(*other)
                    assert np.geterr() == raising
                    assert scalar_bits(unwrap(result)) == scalar_bits(expected), (
                        dunder, operands)
                    assert [(e.kind, e.value_class, e.op, tuple(map(scalar_bits, e.operands)),
                             scalar_bits(e.result)) for e in session.ledger.events()
                            ] == expected_events, (dunder, operands)
    finally:
        np.seterr(**caller)


@pytest.mark.parametrize("name", ["+", "-", "*"])
def test_a_finite_sum_difference_or_product_has_finite_operands(name):
    """The clean test of the + - * methods: `r - r == 0.0` holds exactly when
    r is finite, and a finite r has finite operands, so that one test stands
    for the operand checks. It fails for /, since x / inf is finite."""
    twin = _REGISTRY[name, 2][3]
    pool = SPECIAL_FLOAT64 + LEAF_POOL_64
    for x in pool:
        for y in pool:
            r = twin(x, y)
            assert (r - r == 0.0) is math.isfinite(r)
            if math.isfinite(r):
                assert math.isfinite(x) and math.isfinite(y), (name, x, y)
    assert math.isfinite(1.0 / INF)


# Every ordered pair of the pool's NaNs: quiet/quiet, quiet/signalling and
# signalling/signalling, with both signs.
NAN_PAIRS = [(a, b) for a in SPECIAL_FLOAT64 for b in SPECIAL_FLOAT64 if a != a and b != b]
ARITHMETIC = {name: ROWS[name, 2][0] for name in ("+", "-", "*", "/")}


def _two_nan_calls(a, b, name):
    """The op over NaNs a and b through apply and every operand shape of its
    operator methods."""
    dunder = {"+": "add", "-": "sub", "*": "mul", "/": "truediv"}[name]
    forward, reflected = getattr(TrackedFloat64, f"__{dunder}__"), f"__r{dunder}__"
    return [lambda: apply(name, (TrackedFloat64(a), TrackedFloat64(b))),
            lambda: forward(TrackedFloat64(a), TrackedFloat64(b)),
            lambda: forward(TrackedFloat64(a), b),
            lambda: getattr(TrackedFloat64(b), reflected)(a)]


@pytest.mark.parametrize("caller", ["seterr-raise", "errstate-over-warn"])
def test_two_nan_arithmetic_keeps_the_caller_numpy_state(caller):
    """+ - * / over every pair of quiet and signalling NaNs neither raises nor
    warns under the caller's numpy state, gives the bare ufunc's bits with the
    leftmost NaN's payload pinned, and leaves that state as it was: every
    pair takes the ufunc under np.errstate."""
    previous = np.seterr(all="raise") if caller == "seterr-raise" else None
    try:
        with np.errstate(over="warn") if previous is None else contextlib.nullcontext():
            state = np.geterr()
            with warnings.catch_warnings(), use_session(explicit_session()):
                warnings.simplefilter("error")
                for a, b in NAN_PAIRS:
                    for name, ufunc in ARITHMETIC.items():
                        with np.errstate(all="ignore"):
                            bare = propagate_payload((a, b), ufunc(a, b))
                        for call in _two_nan_calls(a, b, name):
                            assert scalar_bits(unwrap(call())) == scalar_bits(bare), (
                                name, a, b)
                            assert np.geterr() == state
    finally:
        if previous is not None:
            np.seterr(**previous)


def _errstate_spy(monkeypatch):
    """The keyword arguments of each np.errstate entered from now on."""
    entered = []
    real = np.errstate

    def errstate(**kwargs):
        entered.append(kwargs)
        return real(**kwargs)
    monkeypatch.setattr(np, "errstate", errstate)
    return entered


SIGNALLING = fpbits.from_bits(0x7FF0000000000ABC)


def _bare_two_nan_bits(a, b, name):
    with np.errstate(all="ignore"):
        return scalar_bits(propagate_payload((a, b), ARITHMETIC[name](a, b)))


def test_remembered_two_quiet_nan_results_are_the_bare_ufunc_bits(monkeypatch):
    """Every NaN pair of + - * /, quiet or signalling, gives the bare ufunc's
    bits, pinned, on its first call, which computes under np.errstate, on a
    repeat that the outcome table answers, which enters no np.errstate, and
    after the table is cleared, through apply and every operator method
    shape."""
    entered = _errstate_spy(monkeypatch)
    monkeypatch.setattr(tracked, "_OUTCOMES", {})
    with use_session(explicit_session()):
        for a, b in NAN_PAIRS:
            for name in ARITHMETIC:
                bare = _bare_two_nan_bits(a, b, name)
                for call in _two_nan_calls(a, b, name):
                    results = []
                    for cleared in (True, False, True):
                        if cleared:
                            tracked._OUTCOMES.clear()
                        entered.clear()
                        results.append(scalar_bits(unwrap(call())))
                        assert entered == ([{"all": "ignore"}] if cleared else []), (
                            name, a, b, cleared)
                    assert results == [bare] * 3, (name, a, b)


def test_outcome_table_holds_every_exceptional_set_and_is_cleared_past_its_limit(monkeypatch):
    """Keys are the ufunc and both operands' bits. Every NaN pair, quiet or
    signalling, and NaN or Inf operands beside a number go in, of a row with
    a twin or without, one operand or two, a comparison too, and a repeat
    enters no np.errstate; x/0, whose operands are finite, never goes in and
    enters it on every call. The table never grows past OUTCOME_TABLE_LIMIT."""
    monkeypatch.setattr(tracked, "OUTCOME_TABLE_LIMIT", 3)
    monkeypatch.setattr(tracked, "_OUTCOMES", {})
    sizes = []
    with use_session(explicit_session()):
        for k in range(1, 9):
            a, b = fpbits.nan_with_payload(k), fpbits.nan_with_payload(k + 100)
            assert scalar_bits(unwrap(TrackedFloat64(a) * b)) == _bare_two_nan_bits(a, b, "*")
            sizes.append(len(tracked._OUTCOMES))
        assert sizes == [1, 2, 3, 1, 2, 3, 1, 2]
        monkeypatch.setattr(tracked, "OUTCOME_TABLE_LIMIT", 10**6)
        for a, b in NAN_PAIRS:
            for name in ARITHMETIC:
                for call in _two_nan_calls(a, b, name):
                    call()
        for a, b in NAN_PAIRS:
            for name, ufunc in ARITHMETIC.items():
                assert (ufunc, _pack_dd(a, b)) in tracked._OUTCOMES, (name, a, b)
        entered = _errstate_spy(monkeypatch)
        for call, key in (
                (lambda: TrackedFloat64(INF) * 2.0, (np.multiply, INF, 2.0)),
                (lambda: 1.5 - TrackedFloat64(-INF), (np.subtract, 1.5, -INF)),
                (lambda: -TrackedFloat64(NAN), (np.negative, NAN, NAN)),
                (lambda: apply("pow", (TrackedFloat64(NAN), 2.0)), (np.power, NAN, 2.0)),
                (lambda: np.exp(TrackedFloat64(-INF)), (np.exp, -INF, -INF)),
                (lambda: TrackedFloat64(SIGNALLING) + 1.5, (np.add, SIGNALLING, 1.5)),
                (lambda: -TrackedFloat64(SIGNALLING), (np.negative, SIGNALLING, SIGNALLING)),
                (lambda: np.exp(TrackedFloat64(SIGNALLING)), (np.exp, SIGNALLING, SIGNALLING)),
                (lambda: SIGNALLING * TrackedFloat64(NAN), (np.multiply, SIGNALLING, NAN)),
                (lambda: TrackedFloat64(NAN) < NAN, (np.less, NAN, NAN))):
            call()
            assert (key[0], _pack_dd(*key[1:])) in tracked._OUTCOMES, key
            entered.clear()
            call()
            assert entered == [], key
        for _ in range(2):
            entered.clear()
            TrackedFloat64(1.5) / 0.0
            assert entered == [{"all": "ignore"}]
        assert (np.divide, _pack_dd(1.5, 0.0)) not in tracked._OUTCOMES


def test_remembered_two_nan_result_keeps_a_raising_numpy_state(monkeypatch):
    """Under a caller's np.seterr(all="raise"), a hit of the outcome table,
    a signalling NaN pair's or a row without a twin's, raises nothing and
    leaves np.geterr() as it was."""
    monkeypatch.setattr(tracked, "_OUTCOMES", {})
    a, b = SIGNALLING, SIGNALLING
    with use_session(explicit_session()):
        TrackedFloat64(a) / b
        np.log(TrackedFloat64(-INF))
        assert (np.divide, _pack_dd(a, b)) in tracked._OUTCOMES
        assert (np.log, _pack_dd(-INF, -INF)) in tracked._OUTCOMES
        caller = np.seterr(all="raise")
        try:
            raising = np.geterr()
            result, log = TrackedFloat64(a) / b, np.log(TrackedFloat64(-INF))
            assert np.geterr() == raising
        finally:
            np.seterr(**caller)
    assert scalar_bits(unwrap(result)) == _bare_two_nan_bits(a, b, "/")
    with np.errstate(all="ignore"):
        assert scalar_bits(unwrap(log)) == scalar_bits(np.log(-INF))


def _counting_row(monkeypatch, name, arity, calls):
    """Patch apply's registry row with one whose ufunc and twin count their calls."""
    impl, is_comparison, op, exact = _REGISTRY[name, arity]

    def counted(fn):
        return None if fn is None else lambda *xs: calls.append(fn) or fn(*xs)
    monkeypatch.setitem(_REGISTRY, (name, arity), (counted(impl), is_comparison, op,
                                                   counted(exact)))


def test_outcome_table_hit_calls_neither_the_ufunc_nor_the_pin(monkeypatch):
    """A miss computes and pins once on its way into the outcome table; a
    hit calls no ufunc, no twin and no propagate_payload, yet gives the
    same bits: for every NaN pair through apply and every operator method
    shape, and for NaN or Inf operands of a row with a twin and of one
    without."""
    pins = []
    real = tracked.propagate_payload

    def spy(operands, raw_result):
        pins.append(operands)
        return real(operands, raw_result)
    monkeypatch.setattr(tracked, "propagate_payload", spy)
    with use_session(explicit_session()):
        for a, b in NAN_PAIRS:
            for name in ARITHMETIC:
                bare = _bare_two_nan_bits(a, b, name)
                for call in _two_nan_calls(a, b, name):
                    monkeypatch.setattr(tracked, "_OUTCOMES", {})
                    pins.clear()
                    miss = call()
                    assert len(pins) == 1 and len(tracked._OUTCOMES) == 1
                    pins.clear()
                    hit = call()
                    assert pins == [], (name, a, b)
                    assert scalar_bits(unwrap(miss)) == scalar_bits(unwrap(hit)) == bare
        calls = []
        _counting_row(monkeypatch, "*", 2, calls)
        _counting_row(monkeypatch, "pow", 2, calls)
        for name in ("*", "pow"):
            for xs in (NAN_PAIRS[0], (fpbits.nan_with_payload(7), 1.5), (INF, 2.0),
                       (1.5, -INF)):
                monkeypatch.setattr(tracked, "_OUTCOMES", {})
                calls.clear()
                pins.clear()
                miss = apply(name, tuple(map(TrackedFloat64, xs)))
                assert len(calls) == 1 and len(pins) == (miss.value != miss.value)
                calls.clear()
                pins.clear()
                hit = apply(name, tuple(map(TrackedFloat64, xs)))
                assert calls == [] and pins == [], (name, xs)
                assert scalar_bits(unwrap(hit)) == scalar_bits(unwrap(miss))


@pytest.mark.parametrize("mode", ["fuzz", "replay"])
def test_an_injection_on_a_remembered_key_overrides_its_outcome(monkeypatch, mode):
    """Under FUZZ and REPLAY an op whose outcome the table remembers still
    takes its decision: an injection replaces the remembered result, is
    logged as injected, and leaves the table entry as it was."""
    monkeypatch.setattr(tracked, "_OUTCOMES", {})
    nan = fpbits.nan_with_payload(0x77)
    keys = ((np.multiply, _pack_dd(nan, 2.0)), (np.divide, _pack_dd(INF, 3.0)))
    with use_session(explicit_session()):
        remembered = [unwrap(TrackedFloat64(nan) * 2.0), unwrap(TrackedFloat64(INF) / 3.0)]
    entries = [tracked._OUTCOMES[key] for key in keys]
    session = explicit_session(injector=Injector.fuzz(
        InjectionConfig(odds=1, n_inject=2, value=-INF)))
    if mode == "replay":
        with use_session(session):
            TrackedFloat64(nan) * 2.0
            TrackedFloat64(INF) / 3.0
        session = explicit_session(injector=Injector.replay(session.injector.recording))
    with use_session(session):
        results = [unwrap(TrackedFloat64(nan) * 2.0), unwrap(TrackedFloat64(INF) / 3.0)]
    assert scalar_bits(remembered[0]) == scalar_bits(nan) and remembered[1] == INF
    assert results == [-INF, -INF]
    assert [tracked._OUTCOMES[key] for key in keys] == entries
    assert all(tracked._OUTCOMES[key] is entry for key, entry in zip(keys, entries))
    assert [(e.kind, e.value_class, e.injected) for e in session.ledger.events()] == [
        (EventKind.KILL, ValueClass.NAN, True), (EventKind.GEN, ValueClass.INF, True),
        (EventKind.PROP, ValueClass.INF, True)]


def _transfer_payload_reference(raw_result, source_nan):
    """fpbits.transfer_payload before propagate_payload pinned float64 itself."""
    w = 64 if type(raw_result) in (float, np.float64) else fpbits.width_of(raw_result)
    mask = fpbits.PAYLOAD_MASK[w]
    if w == 64:
        bits, source = _unpack_qq(_pack_dd(raw_result, source_nan))
        return fpbits.from_bits(bits & ~mask | source & mask)
    return fpbits.from_bits(fpbits.to_bits(raw_result) & ~mask
                            | fpbits.to_bits(source_nan, w) & mask, w)


@pytest.mark.parametrize("width", [64, 32, 16])
def test_the_pin_matches_the_former_transfer_payload(width):
    """propagate_payload, which pins a float64 result in its own call, and
    transfer_payload give the bits the former transfer_payload gave, over
    every NaN pair of SPECIAL_FLOAT64, and of two NaNs with every payload
    bit set, at each width."""
    nans = [x for x in SPECIAL_FLOAT64 if x != x] + [
        fpbits.from_bits(0x7FFFFFFFFFFFFFFF), fpbits.from_bits(0xFFF7FFFFFFFFFFFF)]
    store = [float, np.float64] if width == 64 else [WIDTHS[width][1]]
    for a, b in [(a, b) for a in nans for b in nans]:
        with np.errstate(all="ignore"):
            raws = [to_width(a) for to_width in store]
            sources = [b, WIDTHS[width][1](b)]
        for raw in raws:
            for source in sources:
                expected = scalar_bits(_transfer_payload_reference(raw, source))
                assert scalar_bits(propagate_payload((1.5, source), raw)) == expected
                assert scalar_bits(fpbits.transfer_payload(raw, source)) == expected
                assert type(propagate_payload((source,), raw)) is type(
                    _transfer_payload_reference(raw, source))


@pytest.mark.parametrize("width, name_arity, slot, payloads", [
    (64, ("+", 2), 3, (None, 0x5A)), (64, ("+", 2), 0, (0x5A, 0x3C)),
    (64, ("exp", 1), 0, (0x5A,)), (32, ("+", 2), 0, (0x5A, 0x3C)),
    (16, ("+", 2), 0, (0x5A, 0x3C))],
    ids=["float64-twin", "float64-two-nans", "float64-no-twin", "float32", "float16"])
def test_nan_result_takes_the_leftmost_nan_operand_payload(monkeypatch, width, name_arity,
                                                          slot, payloads):
    """Whichever substrate computes, a NaN result gets the payload of the
    leftmost NaN operand and keeps its own sign and quiet bit, also when the
    substrate returns a NaN that carries no payload."""
    cls, np_type = WIDTHS[width]
    bare_bits = fpbits.to_bits(np_type(-NAN)) & ~fpbits.PAYLOAD_MASK[width]
    bare = fpbits.from_bits(bare_bits, width)
    row = list(_REGISTRY[name_arity])
    row[slot] = lambda *xs: bare
    monkeypatch.setitem(_REGISTRY, name_arity, tuple(row))
    operands = [cls(1.5 if p is None else fpbits.nan_with_payload(p, width)) for p in payloads]
    session = explicit_session()
    with use_session(session):
        result = apply(name_arity[0], operands)
    assert fpbits.to_bits(unwrap(result)) == bare_bits | 0x5A
    assert fpbits.to_bits(session.ledger.events()[0].result) == bare_bits | 0x5A


def test_threads_sharing_an_off_session_count_every_op():
    """Clean fused ops and NaN ops through _finish both count on the
    injector without its lock and take no decision; with two threads
    switching often, and yielding the GIL every tenth op, the total is
    exact."""
    session = explicit_session()
    n_clean, n_nan = 20000, 200
    counted_by = []

    def worker(_):
        a, one, nan = TrackedFloat64(1.5), TrackedFloat64(1.0), TrackedFloat64(NAN)
        me = threading.get_ident()
        with use_session(session):
            for i in range(n_clean):
                a + one
                counted_by.append(me)
                if i % 10 == 0:
                    time.sleep(0)
                if i % (n_clean // n_nan) == 0:
                    nan * one
    run_threads(worker, range(2))
    assert session.injector.op_counter == 2 * (n_clean + n_nan)
    assert len(session.ledger.events()) == 2 * n_nan
    # yielding every tenth op, consecutive ops changed thread about 2,500
    # times in 40,000; without the yields, 7 to 60 times
    assert thread_changes(counted_by) > 1000


def test_threads_sharing_the_outcome_table_get_the_bare_bits(monkeypatch):
    """Four threads, switching often, run NaN and Inf ops over one small
    pool of operand sets, signalling NaNs among them, so they miss, hit and
    clear the shared outcome table at once. The pin yields the GIL, so
    another thread runs between a miss's compute and its store. Every result
    has the bits of the op computed alone, and the table ends no larger than
    its limit plus one entry per thread."""
    monkeypatch.setattr(tracked, "OUTCOME_TABLE_LIMIT", 5)
    monkeypatch.setattr(tracked, "_OUTCOMES", {})
    signalling = [fpbits.from_bits(0x7FF0000000000000 | k) for k in range(1, 4)]
    pool = [(fpbits.nan_with_payload(k), fpbits.nan_with_payload(k + 50)) for k in range(6)]
    pool += [(fpbits.nan_with_payload(k), float(k)) for k in range(6)] + [(INF, 2.0), (-INF, INF)]
    pool += [(s, fpbits.nan_with_payload(9)) for s in signalling] + [(-NAN, s) for s in signalling]
    pool += [(s, 1.5) for s in signalling]
    expected = {}
    with np.errstate(all="ignore"):
        for a, b in pool:
            for name, ufunc in ARITHMETIC.items():
                expected[name, a, b] = scalar_bits(propagate_payload((a, b), ufunc(a, b)))
    pinned_by, real = [], tracked.propagate_payload

    def pin(operands, raw_result):
        time.sleep(0)
        pinned_by.append(threading.get_ident())
        return real(operands, raw_result)
    monkeypatch.setattr(tracked, "propagate_payload", pin)

    def worker(k):
        rng = random.Random(k)
        with use_session(explicit_session()):
            for _ in range(3000):
                a, b = rng.choice(pool)
                name = rng.choice(list(ARITHMETIC))
                got = scalar_bits(unwrap(apply(name, (TrackedFloat64(a), b))))
                assert got == expected[name, a, b], (name, a, b)
    run_threads(worker, range(4))
    assert len(tracked._OUTCOMES) <= tracked.OUTCOME_TABLE_LIMIT + 4
    # without the yield, consecutive pins changed thread about 20 times in
    # 10,500; with it, thousands of times
    assert thread_changes(pinned_by) > 100


def test_threads_sharing_a_replay_session_fire_every_point_once():
    """Replay decisions pop their op number without the lock; with two
    threads switching often, and yielding the GIL every tenth op, points
    fall on both threads' ops and each one fires exactly once."""
    n_clean, n_nan = 20000, 200
    points = [RecordedInjection(n, "+", NAN, trace_fingerprint(()))
              for n in range(5, 2 * (n_clean + n_nan), 97)]
    session = explicit_session(injector=Injector.replay(
        InjectionRecording(seed=0, points=points)))
    decided_by = []

    def worker(_):
        a, one, nan = TrackedFloat64(1.5), TrackedFloat64(1.0), TrackedFloat64(NAN)
        injected, me = 0, threading.get_ident()
        with use_session(session):
            for i in range(n_clean):
                injected += math.isnan(unwrap(a + one))
                decided_by.append(me)
                if i % 10 == 0:
                    time.sleep(0)
                if i % (n_clean // n_nan) == 0:
                    nan + one
        return injected
    injected_by_thread = run_threads(worker, range(2))
    injector = session.injector
    assert injector.op_counter == 2 * (n_clean + n_nan)
    assert injector.unconsumed_points() == [] and injector.divergences == []
    assert injector.injected_so_far == len(points)
    assert sum(e.injected for e in session.ledger.events()) == len(points)
    assert all(injected_by_thread)
    # about 2,800 times in 40,000, as in the OFF test above
    assert thread_changes(decided_by) > 1000


def test_replay_shifted_onto_another_op_in_one_scope_is_a_divergence():
    """Ops in one scope share a trace fingerprint, so only the op name tells
    that an extra op shifted a recorded `*` onto a `+`. Replay injects there
    anyway, and reports it."""
    def kernel(session, extra):
        with use_session(session), session.traces.scope("kernel", "k.py", 1):
            a, b = TrackedFloat64(2.0), TrackedFloat64(3.0)
            if extra:
                a = a + 0.0
            return a * b - a

    fuzzed = explicit_session(injector=Injector.fuzz(InjectionConfig(odds=1, n_inject=1)))
    kernel(fuzzed, extra=False)
    recording = fuzzed.injector.recording
    assert [(p.op_counter, p.op) for p in recording.points] == [(1, "*")]
    assert [(e.kind, e.op.name) for e in fuzzed.ledger.events()] == [
        (EventKind.GEN, "*"), (EventKind.PROP, "-")]

    replayed = explicit_session(injector=Injector.replay(recording))
    with pytest.warns(ReplayDivergenceWarning):
        kernel(replayed, extra=True)
    assert [(e.kind, e.op.name) for e in replayed.ledger.events()] == [
        (EventKind.GEN, "+"), (EventKind.PROP, "*"), (EventKind.PROP, "-")]
    assert replayed.injector.divergences == [
        "replay divergence at op 1: recorded op '*', current '+'; injecting anyway"]
    assert replayed.injector.unconsumed_points() == []


def test_replay_onto_an_op_of_another_arity_is_a_divergence(tmp_path):
    """Unary and binary `-` share a name: the recorded arity tells that a
    point recorded at `a - b` fell on `-a`. Replay injects there anyway, and
    reports it; a point saved without an arity is checked by name only."""
    def kernel(session, unary):
        with use_session(session), session.traces.scope("kernel", "k.py", 1):
            a, b = TrackedFloat64(2.0), TrackedFloat64(3.0)
            return -a if unary else a - b

    fuzzed = explicit_session(injector=Injector.fuzz(InjectionConfig(odds=1, n_inject=1)))
    kernel(fuzzed, unary=False)
    path = tmp_path / "rec.jsonl"
    save_recording(fuzzed.injector.recording, path)
    assert '"op": "-", "arity": 2, ' in path.read_text(encoding="utf-8")

    replayed = explicit_session(injector=Injector.replay(load_recording(path)))
    with pytest.warns(ReplayDivergenceWarning):
        kernel(replayed, unary=True)
    assert [(e.kind, e.op) for e in replayed.ledger.events()] == [
        (EventKind.GEN, OpIdentity("-", 1))]
    assert replayed.injector.divergences == [
        "replay divergence at op 1: recorded arity 2, current 1; injecting anyway"]

    path.write_text(path.read_text(encoding="utf-8").replace('"arity": 2, ', ""),
                    encoding="utf-8")
    unchecked = explicit_session(injector=Injector.replay(load_recording(path)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel(unchecked, unary=True)
    assert unchecked.injector.divergences == []
    assert [(e.kind, e.op) for e in unchecked.ledger.events()] == [
        (EventKind.GEN, OpIdentity("-", 1))]


def _watch_apply_and_decide(monkeypatch):
    """A list that each later call of tracked.apply or Injector.decide appends
    its name to."""
    calls = []
    real_apply, real_decide = tracked.apply, Injector.decide
    monkeypatch.setattr(tracked, "apply", lambda *a, **k: calls.append("apply") or real_apply(*a, **k))
    monkeypatch.setattr(Injector, "decide",
                        lambda *a, **k: calls.append("decide") or real_decide(*a, **k))
    return calls


# Injectors of each mode that never inject.
QUIET_INJECTORS = {
    "off": Injector,
    "fuzz": lambda: Injector.fuzz(InjectionConfig(odds=1, n_inject=0)),
    "replay": lambda: Injector.replay(InjectionRecording()),
}


def test_clean_float64_ops_bypass_apply_and_decide(monkeypatch):
    """The fused path is wired in: under an OFF injector a clean float64 op
    reaches neither apply nor Injector.decide, yet is counted; so is an op
    with a NaN operand, which _finish counts, unless an operand needs a cast
    or the width is narrow, which apply takes, still without a decision."""
    calls = _watch_apply_and_decide(monkeypatch)
    session = explicit_session()
    a, b = TrackedFloat64(1.5), TrackedFloat64(-2.0)
    with use_session(session):
        results = [a + b, 2.0 + a, a - b, 1.0 - a, a * b, 3.0 * a, a / b, 1.0 / a,
                   -a, abs(b), a < b, a <= b, a > b, a >= b, a == b, a != b, bool(a)]
        assert calls == [] and session.injector.op_counter == 10
        assert [unwrap(r) for r in results[:10]] == [-0.5, 3.5, 3.5, -0.5, -3.0, 4.5,
                                                    -0.75, 2.0 / 3.0, -1.5, 2.0]
        TrackedFloat64(NAN) + a
        assert calls == []
        TrackedFloat64(NAN) + 2
        assert calls == ["apply"]
        calls.clear()
        TrackedFloat32(NAN) + TrackedFloat32(1.5)
    assert calls == ["apply"] and session.injector.op_counter == 13


@pytest.mark.parametrize("mode", ["fuzz", "replay"])
def test_clean_float64_ops_decide_in_their_method(monkeypatch, mode):
    """Under FUZZ and REPLAY a clean float64 op calls Injector.decide once
    and never apply, and an injected one is finished and logged there too;
    so does an op with a NaN operand, while one with an int operand or at a
    narrow width goes through apply, which decides."""
    calls = _watch_apply_and_decide(monkeypatch)
    session = explicit_session(injector=QUIET_INJECTORS[mode]())
    a, b = TrackedFloat64(1.5), TrackedFloat64(-2.0)
    ops = [lambda: a + b, lambda: 2.0 + a, lambda: a - b, lambda: 1.0 - a,
           lambda: a * b, lambda: 3.0 * a, lambda: a / b, lambda: 1.0 / a,
           lambda: -a, lambda: abs(b)]
    with use_session(session):
        for op in ops:
            calls.clear()
            op()
            assert calls == ["decide"]
        calls.clear()
        TrackedFloat64(NAN) + a
        assert calls == ["decide"]
        calls.clear()
        TrackedFloat64(NAN) + 2
        assert calls == ["apply", "decide"]
        calls.clear()
        TrackedFloat32(NAN) + TrackedFloat32(1.5)
    assert calls == ["apply", "decide"] and session.injector.op_counter == len(ops) + 3

    injector = (Injector.fuzz(InjectionConfig(odds=1, n_inject=1)) if mode == "fuzz" else
                Injector.replay(InjectionRecording(points=[
                    RecordedInjection(1, "*", NAN, trace_fingerprint(()))])))
    session = explicit_session(injector=injector)
    with use_session(session):
        calls.clear()
        result = a * b
    assert calls == ["decide"] and math.isnan(unwrap(result))
    [event] = session.ledger.events()
    assert (event.kind, event.value_class, event.op, event.injected) == (
        EventKind.GEN, ValueClass.NAN, OpIdentity("*", 2), True)


@pytest.mark.parametrize("mode", sorted(QUIET_INJECTORS))
def test_clean_comparisons_call_neither_apply_nor_decide(monkeypatch, mode):
    calls = _watch_apply_and_decide(monkeypatch)
    session = explicit_session(injector=QUIET_INJECTORS[mode]())
    a, b, zero = TrackedFloat64(1.5), TrackedFloat64(-2.0), TrackedFloat64(-0.0)
    with use_session(session):
        results = [a < b, a <= 2.0, a > b, 3.0 >= a, a == b, a != b, bool(a), bool(zero)]
    assert results == [False, True, True, True, False, True, True, False]
    assert calls == [] and session.injector.op_counter == 0


def test_clean_ops_through_apply_or_finish_are_counted_not_decided(monkeypatch):
    """Under an OFF injector a clean op that apply takes, for an operand to
    cast, is counted once without Injector.decide, and `**` or a function
    row's numpy ufunc over Python floats goes straight to _finish, past apply too."""
    calls = _watch_apply_and_decide(monkeypatch)
    session = explicit_session()
    a = TrackedFloat64(1.5)
    ops = [(lambda: a + 2, ["apply"], 3.5),
           (lambda: np.sqrt(a), [], math.sqrt(1.5)),
           (lambda: a ** 2.0, [], 2.25)]
    with use_session(session):
        for counted, (op, expected_calls, expected) in enumerate(ops, 1):
            calls.clear()
            assert unwrap(op()) == expected
            assert calls == expected_calls and session.injector.op_counter == counted
    assert session.ledger.events() == []


def test_unsupported_operand_under_fuzz_counts_nothing():
    """An operand of another type raises TypeError before any decision, from
    an operator (NotImplemented), a numpy ufunc or apply, so the op
    number is not spent and nothing is logged: "inf" and None make no Inf
    or NaN, and "4" adds to nothing."""
    session = explicit_session(injector=Injector.fuzz(InjectionConfig(odds=1, n_inject=10)))
    x = TrackedFloat64(1.5)
    ops = [lambda: x + "s", lambda: "s" + x, lambda: x * [1], lambda: x / None]
    for bad in ("4", "inf", None, [1.0]):
        ops += [lambda bad=bad: np.maximum(x, bad), lambda bad=bad: np.hypot(bad, x),
                lambda bad=bad: apply("+", (x, bad)), lambda bad=bad: apply("<", (bad, x))]
    with use_session(session):
        for op in ops:
            with pytest.raises(TypeError):
                op()
    assert session.injector.op_counter == 0 and session.injector.recording.points == []
    assert session.ledger.events() == [] and session.ledger.dropped() == {}


def test_str_and_unary_plus_log_nothing_and_count_nothing():
    """str formats the wrapped value and +t is t: neither is an operation."""
    session = explicit_session(injector=Injector.fuzz(InjectionConfig(odds=1, n_inject=10)))
    values = [TrackedFloat64(NAN), TrackedFloat64(-0.0), TrackedFloat32(-INF),
              TrackedFloat16(2.5)]
    with use_session(session):
        for t in values:
            assert str(t) == str(unwrap(t))
            assert +t is t
    assert session.injector.op_counter == 0 and session.injector.recording.points == []
    assert session.ledger.events() == [] and session.ledger.dropped() == {}
