"""Tracked floating-point scalars and the operation intercept pipeline.

Every operation on a tracked value consults the injector, then computes (or
substitutes the injected value). A clean operation, one whose operands and
result are all finite, cannot be an event, so it stops there and re-wraps the
result. Any other operation goes on to pin NaN payloads to their source,
classify the event per value class, and re-wrap the result. The pipeline is
written once, and an operation is one row of the table below: name, arity,
numpy ufunc, exact Python float twin, and the operator methods or public
function it backs. The registry, methods and functions are built from it.

Two substrates compute, with the same bits either way. Rows whose Python float
operator is IEEE correctly rounded or exact (+ - * /, negation, abs, sqrt, the
comparisons and truth) compute over finite float64 operands in Python floats;
if that raises or gives a non-finite result, the operation is redone by the
ufunc. Everything else is delegated to numpy scalar ufuncs with floating-point
traps suppressed, so 0/0, log(0), overflow, and friends yield IEEE results
instead of raising. With injection off, unwrapped results are bit-identical
to the same computation over plain numpy scalars. A number too big for the
width of a tracked value being constructed becomes Inf, logged as a cast gen.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .classify import EventKind, OpIdentity, ValueClass, classify, propagate_payload
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
        with np.errstate(all="ignore"):
            cast = self._np_type(value)
            source = np.float64(value) if math.isinf(cast) else None
        object.__setattr__(self, "_value", type(self)._store(cast))
        if source is not None and math.isfinite(source):
            # too big for this width: an Inf is born in the cast
            sess = current_session()
            sess.ledger.record(EventKind.GEN, ValueClass.INF, _CAST, (source,), cast,
                               trace=sess.traces.capture)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def value(self):
        return self._value

    def __repr__(self):
        return f"{type(self).__name__}({self._value!r})"

    def __str__(self):
        return str(self._value)

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


def unwrap(t):
    """The plain scalar inside a tracked value; plain scalars pass through."""
    return t._value if isinstance(t, TrackedFloat) else t


def _result_class(operands):
    cls = None
    for o in operands:
        if isinstance(o, TrackedFloat) and (cls is None or o._width > cls._width):
            cls = type(o)
    return cls


def _wrap_result(cls, value):
    """Wrap a computed value of cls's width without __init__'s second conversion."""
    t = object.__new__(cls)
    object.__setattr__(t, "_value", cls._store(value))
    return t


def _all_finite_floats(values) -> bool:
    for v in values:
        if type(v) is not float or not math.isfinite(v):
            return False
    return True


def apply(name: str, operands, session=None):
    """Run one intercepted operation over tracked (or mixed) operands.

    Returns a tracked scalar at the widest tracked operand width, or a plain
    bool for comparisons. One event is recorded per value class whose
    exceptional status changed or persisted across the operation; an
    uninjected operation with finite operands and a finite (or boolean)
    result records none, so it returns without classifying.
    """
    cls = _result_class(operands)
    if cls is None:
        raise TypeError("apply requires at least one tracked operand")
    try:
        impl, is_comparison, op, exact = _REGISTRY[(name, len(operands))]
    except KeyError:
        raise ValueError(f"unsupported operation: {name}/{len(operands)}") from None
    sess = session if session is not None else current_session()
    values = [o._value if isinstance(o, TrackedFloat) else o for o in operands]
    injected_value = None if is_comparison else sess.injector.decide(op, sess.traces.capture)
    injected = injected_value is not None
    # Plain float values are float64-wide, so only a TrackedFloat64 result
    # gets here. An exception or a non-finite result redoes the op in numpy
    # below, which yields the IEEE special value and classifies it.
    if not injected and exact is not None and _all_finite_floats(values):
        try:
            result = exact(*values)
        except (ZeroDivisionError, ValueError):    # x/0, sqrt(-x)
            pass
        else:
            if is_comparison:
                return result
            if math.isfinite(result):
                return _wrap_result(cls, result)

    np_type = cls._np_type
    # The cast runs under errstate too: a plain operand too big for a narrow
    # width becomes Inf without a RuntimeWarning, and is classified as one.
    with np.errstate(all="ignore"):
        xs = tuple(map(np_type, values))
        result = np_type(injected_value) if injected else impl(*xs)
    if not injected:
        if all(map(math.isfinite, xs)) and (is_comparison or math.isfinite(result)):
            return bool(result) if is_comparison else _wrap_result(cls, result)
        if not is_comparison:
            result = propagate_payload(xs, result)

    for value_class in (ValueClass.NAN, ValueClass.INF):
        kind = classify(value_class, xs, result)
        if kind is not None:
            sess.ledger.record(kind, value_class, op, xs, result,
                               injected=injected, trace=sess.traces.capture)
    return bool(result) if is_comparison else _wrap_result(cls, result)


def _is_operand(x) -> bool:
    return isinstance(x, _OPERANDS)


def _forward(name):
    def method(self, other):
        if not _is_operand(other):
            return NotImplemented
        return apply(name, (self, other))
    return method


def _reflected(name):
    def method(self, other):
        if not _is_operand(other):
            return NotImplemented
        return apply(name, (other, self))
    return method


def _unary(name):
    def method(self):
        return apply(name, (self,))
    return method


def _public(name, arity, public):
    if arity == 1:
        def fn(x, session=None):
            return apply(name, (x,), session=session)
    else:
        def fn(x, y, session=None):
            return apply(name, (x, y), session=session)
    fn.__name__ = fn.__qualname__ = public
    fn.__doc__ = f"Tracked {name}({'x' if arity == 1 else 'x, y'})."
    return fn


# The operator methods of TrackedFloat, and the public functions sqrt, exp,
# log, sin, cos, tan, floor, ceil, atan2, hypot, rem, minimum and maximum.
for _name, _arity, _, _, _methods in _NUMERIC + _COMPARISONS:
    _makers = (_unary,) if _arity == 1 else (_forward, _reflected)
    for _method, _make in zip(_methods.split(), _makers):
        if _method.startswith("__"):
            setattr(TrackedFloat, _method, _make(_name))
        else:
            globals()[_method] = _public(_name, _arity, _method)
