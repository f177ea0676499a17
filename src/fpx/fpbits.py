"""Bit-level IEEE-754 helpers shared by the tracked types, logs, and recordings.

All serialization of floating-point values goes through the functions here so
that NaN payloads, signed zeros, and infinities survive round trips exactly.
Values are dual-rendered: a human decimal (shortest digits that round-trip at
the value's width, see format_dec) and an authoritative hex bit pattern of
exactly width // 4 hex digits (16/8/4 for 64/32/16 bits), which is how a
reader tells the width.
"""

from __future__ import annotations

import math
import struct

import numpy as np

_UINT_TYPE = {32: np.uint32, 16: np.uint16}
_HEX_CHARS = frozenset("0123456789abcdefABCDEF")

# Low significand bits below the quiet-NaN bit; the provenance-carrying part.
PAYLOAD_MASK = {64: (1 << 51) - 1, 32: (1 << 22) - 1, 16: (1 << 9) - 1}

# Canonical quiet NaN bit patterns, positive sign, zero payload.
QNAN_BITS = {64: 0x7FF8 << 48, 32: 0x7FC0 << 16, 16: 0x7E00}

NUMPY_TYPE = {64: np.float64, 32: np.float32, 16: np.float16}


# Exact scalar type -> width, so the common types skip the isinstance chain.
_WIDTH_BY_TYPE = {float: 64, np.float64: 64, bool: 64, int: 64, np.float32: 32, np.float16: 16}
_FLOAT64_TYPES = frozenset((float, np.float64))
_pack_double, _unpack_double = struct.Struct("<d").pack, struct.Struct("<d").unpack
_pack_uint64, _unpack_uint64 = struct.Struct("<Q").pack, struct.Struct("<Q").unpack
_pack_dd, _unpack_qq = struct.Struct("<dd").pack, struct.Struct("<QQ").unpack


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
        return _unpack_double(_pack_uint64(bits))[0]
    return _UINT_TYPE[width](bits).view(NUMPY_TYPE[width])


def hex_bits(x) -> str:
    """The bit pattern of x in hex, with the digit count of its width."""
    w = width_of(x)
    return "0x{0:0{1}x}".format(to_bits(x, w), w // 4)


def from_hex_bits(s: str):
    """Decode hex_bits output: "0x" then exactly 4, 8 or 16 hex digits, their count the width."""
    is_hex = isinstance(s, str) and s.startswith("0x") and _HEX_CHARS.issuperset(s[2:])
    width = (len(s) - 2) * 4 if is_hex else None
    if width not in NUMPY_TYPE:
        raise ValueError(f"bad hex bit pattern: {s!r}")
    return from_bits(int(s, 16), width)


def nan_payload(x) -> int:
    """Provenance payload bits of a NaN (zero for non-NaN values)."""
    return to_bits(x) & PAYLOAD_MASK[width_of(x)] if math.isnan(float(x)) else 0


def nan_with_payload(payload: int, width: int = 64):
    """A quiet NaN carrying the given payload in its low significand bits."""
    return from_bits(QNAN_BITS[width] | (payload & PAYLOAD_MASK[width]), width)


def transfer_payload(raw_result, source_nan):
    """Copy source_nan's payload bits into raw_result, keeping its sign and
    quiet bit, at raw_result's width; a float64 result comes back a plain float.
    classify.propagate_payload, the pin of tracked ops, pins float64 itself."""
    w = width_of(raw_result)
    mask = PAYLOAD_MASK[w]
    return from_bits(to_bits(raw_result) & ~mask | to_bits(source_nan, w) & mask, w)


def format_dec(x) -> str:
    """Shortest round-trip decimal at x's width: NaN/Inf spelled out, else the
    repr of float(x) or the str of a numpy scalar, unless that uses e-notation
    (numpy's str does at narrow widths: np.float16(1910.0)) or its exponent is
    >= 6 or <= -5; then numpy's unique e-notation without "+" (1e6 -> "1.0e6")."""
    f = float(x)
    if not math.isfinite(f):
        return "NaN" if f != f else "Inf" if f > 0 else "-Inf"
    x = x if isinstance(x, np.floating) else f      # a bool or an int renders as its float
    s = str(x)
    sci = np.format_float_scientific(x, unique=True, trim="0", exp_digits=1).replace("+", "")
    return sci if "e" in s or not -5 < int(sci.partition("e")[2]) < 6 else s
