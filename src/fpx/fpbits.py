"""Bit-level IEEE-754 helpers shared by the tracked types, logs, and recordings.

All serialization of floating-point values goes through the functions here so
that NaN payloads, signed zeros, and infinities survive round trips exactly.
Values are dual-rendered: a human decimal (shortest digits that round-trip,
with e-notation for large/small magnitudes) and an authoritative hex bit
pattern whose digit count encodes the width (16/8/4 digits for 64/32/16 bits).
"""

from __future__ import annotations

import math
import struct

import numpy as np

_UINT_TYPE = {32: np.uint32, 16: np.uint16}
_HEX_DIGITS = {64: 16, 32: 8, 16: 4}
_WIDTH_BY_HEX_DIGITS = {v: k for k, v in _HEX_DIGITS.items()}

# Low significand bits below the quiet-NaN bit; the provenance-carrying part.
PAYLOAD_MASK = {64: (1 << 51) - 1, 32: (1 << 22) - 1, 16: (1 << 9) - 1}

# Canonical quiet NaN bit patterns, positive sign, zero payload.
QNAN_BITS = {64: 0x7FF8 << 48, 32: 0x7FC0 << 16, 16: 0x7E00}

NUMPY_TYPE = {64: np.float64, 32: np.float32, 16: np.float16}


# Exact scalar type -> width, so the common types skip the isinstance chain.
_WIDTH_BY_TYPE = {float: 64, np.float64: 64, bool: 64, int: 64, np.float32: 32, np.float16: 16}
_FLOAT64_TYPES = frozenset((float, np.float64))
_pack_double = struct.Struct("<d").pack
_unpack_uint64 = struct.Struct("<Q").unpack


def width_of(x) -> int:
    """Bit width of a scalar; plain Python floats count as 64-bit."""
    width = _WIDTH_BY_TYPE.get(type(x))
    if width is None:
        width = 32 if isinstance(x, np.float32) else 16 if isinstance(x, np.float16) else 64
    return width


def to_bits(x, width: int | None = None) -> int:
    """Bit pattern of a scalar. Reinterpretation, never a float conversion,
    when x already has the requested width (NaN payloads survive)."""
    if type(x) in _FLOAT64_TYPES and (width is None or width == 64):
        return _unpack_uint64(_pack_double(x))[0]
    w = width_of(x) if width is None else width
    if w == 64:
        return _unpack_uint64(_pack_double(float(x)))[0]
    scalar = x if isinstance(x, NUMPY_TYPE[w]) else NUMPY_TYPE[w](float(x))
    return int(scalar.view(_UINT_TYPE[w]))


def from_bits(bits: int, width: int = 64):
    """Inverse of to_bits; 64-bit values come back as plain floats."""
    if width == 64:
        return struct.unpack("<d", struct.pack("<Q", bits))[0]
    return _UINT_TYPE[width](bits).view(NUMPY_TYPE[width])


def hex_bits(x) -> str:
    """The bit pattern of x in hex, with the digit count of its width."""
    w = width_of(x)
    return "0x{0:0{1}x}".format(to_bits(x, w), _HEX_DIGITS[w])


def from_hex_bits(s: str):
    """Decode a hex bit pattern produced by hex_bits; width inferred from length."""
    is_hex = isinstance(s, str) and s.startswith("0x")
    width = _WIDTH_BY_HEX_DIGITS.get(len(s) - 2) if is_hex else None
    if width is None:
        raise ValueError(f"bad hex bit pattern: {s!r}")
    return from_bits(int(s, 16), width)


def nan_payload(x) -> int:
    """Provenance payload bits of a NaN (zero for non-NaN values)."""
    return to_bits(x) & PAYLOAD_MASK[width_of(x)] if math.isnan(float(x)) else 0


def nan_with_payload(payload: int, width: int = 64):
    """A quiet NaN carrying the given payload in its low significand bits."""
    return from_bits(QNAN_BITS[width] | (payload & PAYLOAD_MASK[width]), width)


def transfer_payload(raw_result, source_nan):
    """Copy source_nan's payload bits into raw_result, keeping its sign and quiet bit."""
    w = width_of(raw_result)
    mask = PAYLOAD_MASK[w]
    bits = (to_bits(raw_result) & ~mask) | (to_bits(source_nan, w) & mask)
    return from_bits(bits, w)


def _sci(sign: str, mantissa: str, exponent: int) -> str:
    if "." not in mantissa:
        mantissa += ".0"
    return f"{sign}{mantissa}e{exponent}"


def format_dec(x) -> str:
    """Shortest round-trip decimal; NaN/Inf spelled out, e-notation past 1e6/1e-4."""
    f = float(x)
    if math.isnan(f):
        return "NaN"
    if math.isinf(f):
        return "Inf" if f > 0 else "-Inf"
    s = str(x) if isinstance(x, np.floating) else repr(f)
    sign, s = ("-", s[1:]) if s.startswith("-") else ("", s)
    if "e" in s:
        mantissa, _, exp = s.partition("e")
        return _sci(sign, mantissa, int(exp))
    intpart, _, fracpart = s.partition(".")
    if intpart != "0":
        exponent = len(intpart) - 1
    else:
        stripped = fracpart.lstrip("0")
        exponent = -(len(fracpart) - len(stripped) + 1) if stripped else 0
    if exponent >= 6 or exponent <= -5:
        digits = (intpart + fracpart).strip("0") or "0"
        return _sci(sign, digits[0] + "." + (digits[1:] or "0"), exponent)
    return sign + s
