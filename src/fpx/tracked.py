"""Tracked floating-point scalars and the operation intercept pipeline.

Every operation on a tracked value consults the injector, computes (or
substitutes the injected value), pins NaN payloads to their source, logs one
event per value class whose exceptional status it touched, and re-wraps the
result. An operation is one row of the table below: name, arity, numpy ufunc,
exact Python float twin, and the operator methods or public function it
backs; the registry, methods and functions are built from it. Every operation
runs in the current session, which a `use_session` block picks. The operator
methods of a row with a twin fuse the clean path: with finite float64
operands and result they compute with the twin. A comparison then returns its
bool. A numeric op is counted without a lock under an OFF injector, or takes
its Injector.decide call in the method under FUZZ or REPLAY, and is wrapped
unless a value is injected, which _finish, the tail apply shares, then logs.
An op that is not clean goes to apply, which makes its decision.

Two substrates compute, with the same bits either way. A twin (+ - * /,
negation, abs, sqrt, the comparisons and truth) is IEEE correctly rounded or
exact, so over Python float operands it gives the ufunc's bits, NaN and Inf
included, except that with two NaN operands the ufunc keeps the first one's
sign and the compiled operator may keep the second's. Those, a twin that
raises (x/0, sqrt of a negative), narrow widths, numpy scalar or int operands
and rows without a twin take numpy scalar ufuncs with floating-point traps
suppressed, so 0/0, log(0) and overflow yield IEEE results instead of
raising. With injection off, unwrapped results are bit-identical to the same
computation over plain numpy scalars. A number too big for the width of a
tracked value being constructed becomes Inf, logged as a cast gen. Formatting
a tracked value formats the wrapped one: a text exit that logs nothing.
"""

from __future__ import annotations

import math
import operator
import struct
from math import isfinite

import numpy as np

from .classify import EventKind, OpIdentity, ValueClass, classify, propagate_payload
from .fpbits import PAYLOAD_MASK
from .injector import InjectorMode
from .session import current_session

# One row per operation: name, arity, numpy ufunc, Python float twin, and the
# methods it backs (forward then reflected dunder, or a public function name).
# A twin rounds exactly like the ufunc on finite float64 operands; there is
# none for pow (1 ulp off), exp/log/trig/atan2/hypot (libm and numpy differ),
# floor (math.floor drops -0.0) and min/max (signed zero).
_NUMERIC = (
    ("+", 2, np.add, operator.add, "__add__ __radd__"),
    ("-", 2, np.subtract, operator.sub, "__sub__ __rsub__"),
    ("*", 2, np.multiply, operator.mul, "__mul__ __rmul__"),
    ("/", 2, np.divide, operator.truediv, "__truediv__ __rtruediv__"),
    ("pow", 2, np.power, None, "__pow__ __rpow__"),
    ("min", 2, np.minimum, None, "minimum"),     # NaN-propagating, not IEEE minNum
    ("max", 2, np.maximum, None, "maximum"),
    ("atan2", 2, np.arctan2, None, "atan2"),
    ("hypot", 2, np.hypot, None, "hypot"),
    ("rem", 2, np.fmod, None, "rem"),
    ("-", 1, np.negative, operator.neg, "__neg__"),
    ("abs", 1, np.abs, abs, "__abs__"),
    ("sqrt", 1, np.sqrt, math.sqrt, "sqrt"),
    ("exp", 1, np.exp, None, "exp"),
    ("log", 1, np.log, None, "log"),
    ("sin", 1, np.sin, None, "sin"),
    ("cos", 1, np.cos, None, "cos"),
    ("tan", 1, np.tan, None, "tan"),
    ("floor", 1, np.floor, None, "floor"),
    ("ceil", 1, np.ceil, None, "ceil"),
)

# Comparisons and truth: a bool result, no injector decision.
_COMPARISONS = (
    ("<", 2, np.less, operator.lt, "__lt__"),
    ("<=", 2, np.less_equal, operator.le, "__le__"),
    (">", 2, np.greater, operator.gt, "__gt__"),
    (">=", 2, np.greater_equal, operator.ge, "__ge__"),
    ("==", 2, np.equal, operator.eq, "__eq__"),
    ("!=", 2, np.not_equal, operator.ne, "__ne__"),
    ("bool", 1, np.bool_, bool, "__bool__"),
)

# (name, arity) -> (ufunc, is_comparison, OpIdentity, twin); a plain tuple,
# which unpacks faster than a namedtuple on every operation.
_REGISTRY = {(name, arity): (impl, is_comparison, OpIdentity(name, arity), exact)
             for is_comparison, rows in ((False, _NUMERIC), (True, _COMPARISONS))
             for name, arity, impl, exact, _ in rows}

_CAST = OpIdentity("cast", 1)

# (kind, class) events by operand status (bit 1: a NaN, bit 2: an Inf) and
# result status (0 finite or a bool, 1 NaN, 2 Inf), NaN class first; read off
# classify, the reference, so the hot path reads no enum and hashes none.
_EVENTS = tuple(tuple(tuple((kind, vc) for vc in ValueClass
                            if (kind := classify(vc, ins, out)) is not None)
                      for out in (0.0, math.nan, math.inf))
                for ins in ((), (math.nan,), (math.inf,), (math.nan, math.inf)))
_pack_dd, _unpack_qq = struct.Struct("<dd").pack, struct.Struct("<QQ").unpack
_pack_q, _unpack_d = struct.Struct("<Q").pack, struct.Struct("<d").unpack
_PAYLOAD = PAYLOAD_MASK[64]
_OFF = InjectorMode.OFF
_UNARY = object()       # the absent second operand of a one-operand op


def supported_operations() -> tuple:
    return tuple(sorted((row[2] for row in _REGISTRY.values()), key=str))


class TrackedFloat:
    """Immutable scalar wrapper; all arithmetic goes through the intercept pipeline."""

    __slots__ = ("_value",)
    __array_ufunc__ = None      # keep numpy from absorbing mixed expressions
    _width = 0
    _np_type = None
    _store = None

    def __init__(self, value):
        if isinstance(value, TrackedFloat):
            value = value._value
        if type(value) in _PLAIN and self._width == 64:
            # a float is kept; an int rounds to a finite float64 or raises
            # OverflowError, so no Inf is born in this cast
            _set_value(self, float(value))
            return
        with np.errstate(all="ignore"):
            cast = self._np_type(value)
            source = np.float64(value) if math.isinf(cast) else None
        _set_value(self, type(self)._store(cast))
        if source is not None and math.isfinite(source):
            # too big for this width: an Inf is born in the cast
            sess = current_session()
            sess.ledger.record(EventKind.GEN, ValueClass.INF, _CAST, (source,), cast,
                               False, sess.traces.capture)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def value(self):
        return self._value

    def __repr__(self):
        return f"{type(self).__name__}({self._value!r})"

    def __str__(self):
        return str(self._value)

    def __format__(self, spec):
        return format(self._value, spec)

    def __int__(self):
        return int(self._value)

    def __hash__(self):
        return hash(self._value)

    def __pos__(self):
        return self


class TrackedFloat64(TrackedFloat):
    __slots__ = ()
    _width = 64
    _np_type = np.float64
    _store = staticmethod(float)


class TrackedFloat32(TrackedFloat):
    __slots__ = ()
    _width = 32
    _np_type = np.float32
    _store = staticmethod(np.float32)


class TrackedFloat16(TrackedFloat):
    __slots__ = ()
    _width = 16
    _np_type = np.float16
    _store = staticmethod(np.float16)


_OPERANDS = (TrackedFloat, int, float, np.floating, np.integer)
_PLAIN = (float, int)
_new = object.__new__
_set_value = TrackedFloat._value.__set__     # the slot, past the immutability guard


def unwrap(t):
    """The plain scalar inside a tracked value; plain scalars pass through."""
    return t._value if isinstance(t, TrackedFloat) else t


def _wrap_result(cls, value):
    """Wrap a computed value of cls's width without __init__'s second conversion."""
    t = _new(cls)
    _set_value(t, cls._store(value))
    return t


def apply(name: str, operands):
    """Run one intercepted operation over tracked (or mixed) operands in the
    current session, which a `use_session` block selects.

    Operands are tracked values, Python or numpy floats and ints, at least one
    tracked; any other raises TypeError before the op is numbered. Returns a
    tracked scalar at the widest tracked operand width, or a plain bool for
    comparisons. One event is recorded per value class whose exceptional
    status changed or persisted across the operation; an uninjected
    operation with finite operands and a finite (or boolean) result records
    none.
    """
    cls = None                          # the widest tracked operand's class
    for o in operands:
        if isinstance(o, TrackedFloat):
            if cls is None or o._width > cls._width:
                cls = type(o)
        elif not isinstance(o, _OPERANDS):
            raise TypeError(f"unsupported operand type for {name}: {type(o).__name__}")
    if cls is None:
        raise TypeError("apply requires at least one tracked operand")
    try:
        row = _REGISTRY[(name, len(operands))]
    except KeyError:
        raise ValueError(f"unsupported operation: {name}/{len(operands)}") from None
    _, is_comparison, op, _ = row
    sess = current_session()
    values = [o._value if isinstance(o, TrackedFloat) else o for o in operands]
    injected_value = None if is_comparison else sess.injector.decide(op, sess.traces.capture)
    return _finish(sess, cls, row, values, injected_value)


def _finish(sess, cls, row, values, injected_value):
    """The op after its injector decision: compute with the substrate the
    module docstring names (or substitute the injected value), pin NaN
    payloads, then classify both value classes in one pass and log."""
    impl, is_comparison, op, exact = row
    injected = injected_value is not None
    xs, result = values, injected_value
    if type(xs[0]) is not float or type(xs[-1]) is not float:   # arity <= 2
        # under errstate, a plain operand too big for a narrow width is a quiet Inf
        with np.errstate(all="ignore"):
            xs = tuple(map(cls._np_type, xs))
            result = cls._np_type(injected_value) if injected else None
    elif not injected and exact is not None and (
            len(xs) == 1 or xs[0] == xs[0] or xs[1] == xs[1]):
        try:
            result = exact(*xs)
        except (ZeroDivisionError, ValueError):    # x/0, sqrt(-x)
            pass
    if result is None:
        with np.errstate(all="ignore"):
            result = impl(*xs)

    status = 0                  # bit 1: a NaN operand, bit 2: an Inf one, as in _EVENTS
    for x in xs:
        if not isfinite(x):
            status |= 1 if x != x else 2
    if is_comparison:
        result = bool(result)       # what the ledger stores and the caller gets
    result_status = 0 if is_comparison or isfinite(result) else 2 if result == result else 1
    if result_status == 1 and status & 1 and not injected:   # pin the leftmost NaN's payload
        if cls._width == 64:
            bits, source = _unpack_qq(_pack_dd(result, xs[0] if xs[0] != xs[0] else xs[-1]))
            result = _unpack_d(_pack_q(bits & ~_PAYLOAD | source & _PAYLOAD))[0]
        else:
            result = propagate_payload(xs, result)
    for kind, value_class in _EVENTS[status][result_status]:
        sess.ledger.record(kind, value_class, op, xs, result, injected, sess.traces.capture)
    return result if is_comparison else _wrap_result(cls, result)


def _operator_method(name, arity, reflected):
    """An operator method, with the fused clean path of the module docstring.
    An op that is not clean goes on to apply, looked up as a module global, so
    a patched apply sees every call that falls through, and apply decides."""
    row = _REGISTRY[name, arity]
    _, is_comparison, op, exact = row

    def method(self, other=_UNARY):
        if exact is not None:
            if reflected:
                x, y = other, self._value       # a tracked left operand is left to apply
            else:
                x, y = self._value, (other._value if isinstance(other, TrackedFloat) else other)
            # Finite Python floats are float64-wide, and the twin rounds like the
            # ufunc there: a finite result is the ufunc's, and cannot be an event.
            if type(x) is float and isfinite(x) and (
                    y is _UNARY or type(y) is float and isfinite(y)):
                try:
                    result = exact(x) if y is _UNARY else exact(x, y)
                except (ZeroDivisionError, ValueError):    # x/0, sqrt(-x): not clean
                    result = math.inf
                if is_comparison:
                    return result
                if isfinite(result):
                    session = current_session()
                    injector = session.injector
                    if injector.mode is _OFF:
                        injector.count_op()
                        return _wrap_result(type(self), result)
                    injected = injector.decide(op, session.traces.capture)
                    if injected is None:
                        return _wrap_result(type(self), result)
                    return _finish(session, type(self), row,
                                   (x,) if y is _UNARY else (x, y), injected)
        if other is _UNARY:
            return apply(name, (self,))
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return apply(name, (other, self) if reflected else (self, other))
    return method


def _public(name, arity, public):
    if arity == 1:
        def fn(x):
            return apply(name, (x,))
    else:
        def fn(x, y):
            return apply(name, (x, y))
    fn.__name__ = fn.__qualname__ = public
    fn.__doc__ = f"Tracked {name}({'x' if arity == 1 else 'x, y'})."
    return fn


# The operator methods of TrackedFloat, and the public functions sqrt, exp,
# log, sin, cos, tan, floor, ceil, atan2, hypot, rem, minimum and maximum.
for _name, _arity, _, _, _methods in _NUMERIC + _COMPARISONS:
    for _method, _reflected in zip(_methods.split(), (False, True)):
        if _method.startswith("__"):
            setattr(TrackedFloat, _method, _operator_method(_name, _arity, _reflected))
        else:
            globals()[_method] = _public(_name, _arity, _method)
