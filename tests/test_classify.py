"""Classification semantics: classify over any values against the gen/prop/kill
table, whose cells acceptance criterion 1 checks per op kind, and the payload
rules."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from fpx import fpbits
from fpx.classify import EventKind, ValueClass, classify, is_exceptional, propagate_payload

NAN = float("nan")
INF = float("inf")

_EXPECTED = {
    (False, False): None,
    (False, True): EventKind.GEN,
    (True, True): EventKind.PROP,
    (True, False): EventKind.KILL,
}


def test_is_exceptional():
    assert is_exceptional(ValueClass.NAN, NAN)
    assert is_exceptional(ValueClass.INF, -INF)
    assert not is_exceptional(ValueClass.NAN, -INF)
    assert not is_exceptional(ValueClass.INF, NAN)
    assert not is_exceptional(ValueClass.NAN, 0.0)
    # subnormals are not exceptional
    assert not is_exceptional(ValueClass.NAN, 5e-324)
    assert not is_exceptional(ValueClass.INF, 5e-324)


def test_classify_examples():
    # subtracting two negative infinities generates a NaN
    assert classify(ValueClass.NAN, [-INF, -INF], NAN) is EventKind.GEN
    # a comparison against NaN kills it
    assert classify(ValueClass.NAN, [NAN, 3.0e6], False) is EventKind.KILL
    # the same subtraction, judged for the Inf class, is a kill
    assert classify(ValueClass.INF, [-INF, -INF], NAN) is EventKind.KILL
    assert classify(ValueClass.NAN, [1.0, 2.0], 3.0) is None


def test_boolean_outputs_never_exceptional():
    for value_class in ValueClass:
        assert classify(value_class, [NAN, INF], True) is EventKind.KILL
        assert classify(value_class, [1.0, 2.0], False) is None
        assert classify(value_class, [1.0], np.bool_(True)) is None


@given(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4),
    st.one_of(st.booleans(), st.floats(allow_nan=True, allow_infinity=True)),
)
def test_classify_matches_table_for_any_values(inputs, output):
    for value_class in ValueClass:
        exn_in = any(is_exceptional(value_class, x) for x in inputs)
        exn_out = not isinstance(output, bool) and is_exceptional(value_class, output)
        assert classify(value_class, inputs, output) is _EXPECTED[(exn_in, exn_out)]


class TestPropagatePayload:
    def test_leftmost_nan_wins(self):
        p = fpbits.nan_with_payload(0x123)
        q = fpbits.nan_with_payload(0x456)
        out = propagate_payload([p, q], float("nan"))
        assert fpbits.nan_payload(out) == 0x123
        out = propagate_payload([1.0, q], float("nan"))
        assert fpbits.nan_payload(out) == 0x456

    def test_generated_nan_keeps_own_payload(self):
        raw = fpbits.nan_with_payload(0x7)
        out = propagate_payload([-INF, -INF], raw)
        assert fpbits.to_bits(out) == fpbits.to_bits(raw)

    def test_non_nan_result_unchanged(self):
        assert propagate_payload([2.0, 3.0], 6.0) == 6.0
        out = propagate_payload([NAN, 0.0], INF)
        assert out == INF

    def test_result_sign_and_quiet_bit_kept(self):
        # negation flips the result sign bit; the payload still points home
        p = fpbits.nan_with_payload(0x123)
        raw = fpbits.from_bits(fpbits.to_bits(p) | (1 << 63))
        out = propagate_payload([p], raw)
        assert fpbits.to_bits(out) == fpbits.to_bits(raw)
        assert fpbits.nan_payload(out) == 0x123
