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

import numpy as np

from . import fpbits


class ValueClass(enum.Enum):
    NAN = "nan"
    INF = "inf"


class EventKind(enum.Enum):
    GEN = "gen"
    PROP = "prop"
    KILL = "kill"


@dataclass(frozen=True)
class OpIdentity:
    """An intercepted operation: its symbol and operand count."""

    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


_MEMBERSHIP = {ValueClass.NAN: math.isnan, ValueClass.INF: math.isinf}


def is_exceptional(value_class: ValueClass, x) -> bool:
    """NaN class matches any NaN; Inf class matches either infinity. Subnormals are normal."""
    return _MEMBERSHIP[value_class](x)


def classify(value_class: ValueClass, inputs, output) -> EventKind | None:
    member = _MEMBERSHIP[value_class]
    exn_in = any(map(member, inputs))
    exn_out = not isinstance(output, (bool, np.bool_)) and member(output)
    if exn_out:
        return EventKind.PROP if exn_in else EventKind.GEN
    return EventKind.KILL if exn_in else None


def propagate_payload(operands, raw_result):
    """Give a NaN result the payload bits of the leftmost NaN operand.

    The sign and quiet bit of the computed result are kept, so pure bit
    operations like negation stay bit-transparent; only the provenance
    payload is pinned to the originating NaN.
    """
    if not math.isnan(float(raw_result)):
        return raw_result
    for x in operands:
        if math.isnan(float(x)):
            return fpbits.transfer_payload(raw_result, x)
    return raw_result
