"""Bit packing, payload surgery, and decimal rendering."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpx import fpbits


@given(st.integers(0, 2**64 - 1))
def test_bits_roundtrip_64(bits):
    assert fpbits.to_bits(fpbits.from_bits(bits, 64), 64) == bits


@given(st.integers(0, 2**32 - 1))
def test_bits_roundtrip_32(bits):
    value = fpbits.from_bits(bits, 32)
    assert isinstance(value, np.float32)
    assert fpbits.to_bits(value) == bits


@given(st.integers(0, 2**16 - 1))
def test_bits_roundtrip_16(bits):
    value = fpbits.from_bits(bits, 16)
    assert isinstance(value, np.float16)
    assert fpbits.to_bits(value) == bits


@given(st.integers(0, 2**64 - 1))
def test_hex_roundtrip(bits):
    x = fpbits.from_bits(bits, 64)
    s = fpbits.hex_bits(x)
    assert len(s) == 18
    assert fpbits.to_bits(fpbits.from_hex_bits(s)) == bits


def test_bits_roundtrip_16_exhaustive():
    """Every float16 bit pattern, signalling NaNs and payload NaNs included,
    survives from_bits -> to_bits and the hex encoding unchanged."""
    for bits in range(1 << 16):
        value = fpbits.from_bits(bits, 16)
        assert fpbits.to_bits(value) == bits
        assert fpbits.to_bits(fpbits.from_hex_bits(fpbits.hex_bits(value))) == bits


@pytest.mark.parametrize("bits", [
    0x7F800001,   # smallest signalling NaN
    0x7FBFFFFF,   # largest positive signalling NaN
    0xFF800123,   # negative signalling NaN with a payload
    0x7FC00001,   # quiet NaN, payload 1
    0x7FC12345,   # quiet NaN with a payload
    0xFFFFFFFF,   # negative quiet NaN, all payload bits set
])
def test_float32_nan_bits_survive(bits):
    value = fpbits.from_bits(bits, 32)
    assert isinstance(value, np.float32) and math.isnan(value)
    assert fpbits.to_bits(value) == bits
    assert fpbits.hex_bits(value) == f"0x{bits:08x}"
    assert fpbits.to_bits(fpbits.from_hex_bits(fpbits.hex_bits(value))) == bits


class _Float32Subclass(np.float32):
    pass


def _reference_width(x):
    return 32 if isinstance(x, np.float32) else 16 if isinstance(x, np.float16) else 64


def _reference_bits(x, width):
    """to_bits by a float conversion or a numpy view, with no type dispatch."""
    if width == 64:
        return struct.unpack("<Q", struct.pack("<d", float(x)))[0]
    np_type, uint = {32: (np.float32, np.uint32), 16: (np.float16, np.uint16)}[width]
    return int((x if isinstance(x, np_type) else np_type(float(x))).view(uint))


@pytest.mark.parametrize("value", [
    1.5, -0.0, 0.0, float("inf"), -float("inf"), float("nan"), 5e-324,
    fpbits.from_bits(0xFFF8000000000077), fpbits.from_bits(0x7FF0000000000001),
    np.float64(-0.0), np.float64(2.5), np.float64(fpbits.from_bits(0x7FF8000000012345)),
    np.float32(-0.0), np.float32(0.1), fpbits.from_bits(0x7FC12345, 32),
    fpbits.from_bits(0xFF800123, 32), np.float16(-0.0), np.float16(0.1),
    fpbits.from_bits(0x7E23, 16), True, False, 3, -(2**60), _Float32Subclass(1.25),
], ids=repr)
def test_bits_and_width_by_exact_type_match_reference(value):
    """Dispatch on the exact type gives the bits and width that a float
    conversion or a numpy view gives, NaN payloads and -0.0 included, at
    the value's own width and at every other width."""
    assert fpbits.width_of(value) == _reference_width(value)
    assert fpbits.to_bits(value) == _reference_bits(value, _reference_width(value))
    for width in (64, 32, 16):
        with np.errstate(all="ignore"):
            assert fpbits.to_bits(value, width) == _reference_bits(value, width)


def test_hex_width_inference():
    assert fpbits.width_of(fpbits.from_hex_bits("0x7fc00000")) == 32
    assert fpbits.width_of(fpbits.from_hex_bits("0x7e00")) == 16
    assert fpbits.width_of(fpbits.from_hex_bits("0x" + "0" * 16)) == 64
    with pytest.raises(ValueError):
        fpbits.from_hex_bits("0x123")
    with pytest.raises(ValueError):
        fpbits.from_hex_bits("7fc00000")


@pytest.mark.parametrize("encoded", [0x7FC00000, None, ["0x7e00"]])
def test_from_hex_bits_rejects_non_strings(encoded):
    with pytest.raises(ValueError, match="bad hex bit pattern"):
        fpbits.from_hex_bits(encoded)


@pytest.mark.parametrize("encoded", [
    "0x7ff0_00000000000",     # int() reads an underscore as a separator
    "0x7ff000000000000 ",     # and strips surrounding whitespace
    " 0x7ff000000000000",
    "0x+7ff000000000000",     # a sign
    "0x7fc0000g",
    "0x7e0\u0663",            # a non-ASCII digit
    "0x7ff00000000000000000",  # 20 digits: no such width
])
def test_from_hex_bits_rejects_malformed_digits(encoded):
    with pytest.raises(ValueError, match="bad hex bit pattern"):
        fpbits.from_hex_bits(encoded)


def test_payload_helpers():
    p = fpbits.nan_with_payload(0x123)
    assert math.isnan(p)
    assert fpbits.nan_payload(p) == 0x123
    assert fpbits.nan_payload(1.5) == 0
    p16 = fpbits.nan_with_payload(0x23, width=16)
    assert fpbits.nan_payload(p16) == 0x23
    moved = fpbits.transfer_payload(float("nan"), p)
    assert fpbits.nan_payload(moved) == 0x123


@pytest.mark.parametrize("value, expected", [
    (float("nan"), "NaN"),
    (float("inf"), "Inf"),
    (float("-inf"), "-Inf"),
    (0.0, "0.0"),
    (-0.0, "-0.0"),
    (1.5, "1.5"),
    (-42.0, "-42.0"),
    (3.0e6, "3.0e6"),
    (999999.0, "999999.0"),
    (1e6, "1.0e6"),
    (123456.78, "123456.78"),
    (6.02214076e23, "6.02214076e23"),
    (6.62607015e-34, "6.62607015e-34"),
    (0.0001, "0.0001"),
    (1e-5, "1.0e-5"),
    (-1.515e31, "-1.515e31"),
])
def test_format_dec(value, expected):
    assert fpbits.format_dec(value) == expected


def test_format_dec_narrow_widths():
    assert fpbits.format_dec(np.float32(3e6)) == "3.0e6"
    assert fpbits.format_dec(np.float32("nan")) == "NaN"
    assert fpbits.format_dec(np.float16(0.1)) == "0.1"
    assert fpbits.format_dec(np.float16(1910.0)) == "1.91e3"    # numpy's own switch
    assert fpbits.format_dec(np.float32(1e-4)) == "1.0e-4"


def _reference_sci(sign, mantissa, exponent):
    if "." not in mantissa:
        mantissa += ".0"
    return f"{sign}{mantissa}e{exponent}"


def _reference_format_dec(x):
    """format_dec by slicing the digits and the exponent out of repr or str."""
    f = float(x)
    if math.isnan(f):
        return "NaN"
    if math.isinf(f):
        return "Inf" if f > 0 else "-Inf"
    s = str(x) if isinstance(x, np.floating) else repr(f)
    sign, s = ("-", s[1:]) if s.startswith("-") else ("", s)
    if "e" in s:
        mantissa, _, exp = s.partition("e")
        return _reference_sci(sign, mantissa, int(exp))
    intpart, _, fracpart = s.partition(".")
    if intpart != "0":
        exponent = len(intpart) - 1
    else:
        stripped = fracpart.lstrip("0")
        exponent = -(len(fracpart) - len(stripped) + 1) if stripped else 0
    if exponent >= 6 or exponent <= -5:
        digits = (intpart + fracpart).strip("0") or "0"
        return _reference_sci(sign, digits[0] + "." + (digits[1:] or "0"), exponent)
    return sign + s


def test_format_dec_matches_reference():
    """numpy's e-notation gives the bytes of the digit slicing it replaced:
    every float16 pattern, seeded float32 and float64 patterns, decade sweeps
    at every width, and the bools, ints, zeros and subnormals a log holds."""
    rng = np.random.default_rng(15)
    values = [fpbits.from_bits(b, 16) for b in range(1 << 16)]
    values += [fpbits.from_bits(b, 32) for b in rng.integers(0, 2**32, 15000).tolist()]
    values += [fpbits.from_bits(b, 64) for b in rng.integers(0, 2**64, 15000, np.uint64).tolist()]
    decades = [sign * m * 10.0 ** e for e in range(-330, 309) for m in (1.0, 9.99, 1.5)
               for sign in (1.0, -1.0)]
    with np.errstate(all="ignore"):
        for np_type in (float, np.float64, np.float32, np.float16):
            values += [np_type(d) for d in decades]
    values += [True, False, 0, -7, 10**6, 2**60, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
               np.float32(1e-45), np.float16(6e-8), 999999.9999999999, 9.999999999999999e-5]
    for x in values:
        assert fpbits.format_dec(x) == _reference_format_dec(x), (type(x), fpbits.hex_bits(x))


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_dec_roundtrips(x):
    assert float(fpbits.format_dec(x)) == x


def test_python_float_and_float64_render_alike():
    """Events store float64 operands as Python floats or np.float64, so both
    must log the same bytes: over random bit patterns, the edges of the
    e-notation switch and the subnormals."""
    rng = np.random.default_rng(12)
    patterns = rng.integers(0, 2**64, size=20000, dtype=np.uint64).tolist()
    edges = [1e6, 1e16, 1e-4, 1e-5, 999999.9999999999, 1e6 - 1, 1e16 - 2, 9.999999999999999e-5,
             0.0001000000000001, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
             1.5e-310, 0.0, 123456.789, 1.7976931348623157e308]
    values = [fpbits.from_bits(b, 64) for b in patterns]
    values += [sign * x for x in edges for sign in (1.0, -1.0)]
    for x in values:
        assert type(x) is float
        assert fpbits.format_dec(x) == fpbits.format_dec(np.float64(x)), x
        assert fpbits.hex_bits(x) == fpbits.hex_bits(np.float64(x)), x
