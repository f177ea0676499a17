"""Lifetime classification for operations that touch exceptional values.

Every intercepted operation is judged once per value class (NaN, Inf) from the
exceptional status of its inputs and output:

    inputs clean,       output exceptional  -> gen
    inputs exceptional, output exceptional  -> prop
    inputs exceptional, output clean        -> kill
    inputs clean,       output clean        -> (no event)

Boolean outputs (comparisons) are never exceptional, so any comparison that
sees an exceptional input is a kill. The two classes are judged independently:
subtracting two infinities is simultaneously a NaN gen and an Inf kill.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import fpbits
from .fpbits import _FLOAT64_TYPES, _pack_dd, _pack_uint64, _unpack_double, _unpack_qq


# Members are singletons, so they hash by identity, not by Enum's Python-level hash.
class ValueClass(enum.Enum):
    NAN = "nan"
    INF = "inf"
    __hash__ = object.__hash__


class EventKind(enum.Enum):
    GEN = "gen"
    PROP = "prop"
    KILL = "kill"
    __hash__ = object.__hash__


@dataclass(frozen=True)
class OpIdentity:
    """An intercepted operation: its symbol and operand count."""

    name: str
    arity: int


_PAYLOAD64 = fpbits.PAYLOAD_MASK[64]
_MEMBERSHIP = {ValueClass.NAN: math.isnan, ValueClass.INF: math.isinf}


def is_exceptional(value_class: ValueClass, x) -> bool:
    """NaN class matches any NaN; Inf class matches either infinity. Subnormals are normal."""
    return _MEMBERSHIP[value_class](x)


def classify(value_class: ValueClass, inputs, output) -> EventKind | None:
    member = _MEMBERSHIP[value_class]
    exn_in = any(map(member, inputs))
    exn_out = member(output)            # False for a comparison's bool
    if exn_out:
        return EventKind.PROP if exn_in else EventKind.GEN
    return EventKind.KILL if exn_in else None


def propagate_payload(operands, raw_result):
    """The one NaN payload pin of every width: a NaN result takes the payload
    bits of the leftmost NaN operand and keeps its own sign and quiet bit, so
    pure bit operations like negation stay bit-transparent. A float64 result
    is pinned here, both bit patterns in one unpack and the spliced bits in
    one pack, and comes back a plain float; a narrow one by
    fpbits.transfer_payload. Over Python floats, tracked ops pin only on a
    miss of their outcome table."""
    if raw_result == raw_result:        # not a NaN
        return raw_result
    for x in operands:
        if x != x:
            if type(raw_result) in _FLOAT64_TYPES:
                bits, source = _unpack_qq(_pack_dd(raw_result, x))
                return _unpack_double(_pack_uint64(bits & ~_PAYLOAD64 | source & _PAYLOAD64))[0]
            return fpbits.transfer_payload(raw_result, x)
    return raw_result
