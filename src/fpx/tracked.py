"""Tracked floating-point scalars and the operation intercept pipeline.

Every operation on a tracked value consults the injector, then computes (or
substitutes the injected value). A clean operation, one whose operands and
result are all finite, cannot be an event, so it stops there and re-wraps the
result. Any other operation goes on to pin NaN payloads to their source,
classify the event per value class, and re-wrap the result. The pipeline is
written once; individual operations are rows in a table and their operator
methods are installed mechanically.

Two substrates compute, with the same bits either way. Rows whose Python float
operator is IEEE correctly rounded or exact (+ - * /, negation, abs, sqrt, the
comparisons and truth) compute over finite float64 operands in Python floats;
if that raises or gives a non-finite result, the operation is redone by the
ufunc. Everything else is delegated to numpy scalar ufuncs with floating-point
traps suppressed, so 0/0, log(0), overflow, and friends yield IEEE results
instead of raising. With injection off, unwrapped results are bit-identical
to the same computation over plain numpy scalars.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .classify import OpIdentity, ValueClass, classify, propagate_payload
from .session import current_session

_BINARY_IMPLS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "pow": np.power,
    "min": np.minimum,      # NaN-propagating, not IEEE minNum
    "max": np.maximum,
    "atan2": np.arctan2,
    "hypot": np.hypot,
    "rem": np.fmod,
}

_UNARY_IMPLS = {
    "-": np.negative,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "floor": np.floor,
    "ceil": np.ceil,
}

_COMPARISON_IMPLS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}

# Truth has comparison semantics: a bool result, no injector decision.
_TRUTH_IMPLS = {"bool": np.bool_}

# Python float twins that round exactly like the ufunc on finite float64
# operands. Not here: pow (1 ulp off), exp/log/trig/atan2/hypot (libm and
# numpy differ), floor (math.floor drops -0.0), min/max (signed zero).
_EXACT_FLOAT_IMPLS = {
    ("+", 2): operator.add,
    ("-", 2): operator.sub,
    ("*", 2): operator.mul,
    ("/", 2): operator.truediv,
    ("-", 1): operator.neg,
    ("abs", 1): abs,
    ("sqrt", 1): math.sqrt,
    ("<", 2): operator.lt,
    ("<=", 2): operator.le,
    (">", 2): operator.gt,
    (">=", 2): operator.ge,
    ("==", 2): operator.eq,
    ("!=", 2): operator.ne,
    ("bool", 1): bool,
}

# (name, arity) -> (numpy implementation, is_comparison, OpIdentity,
#                   exact float twin or None)
_REGISTRY = {}
for _impls, _arity, _is_comparison in ((_BINARY_IMPLS, 2, False),
                                       (_UNARY_IMPLS, 1, False),
                                       (_COMPARISON_IMPLS, 2, True),
                                       (_TRUTH_IMPLS, 1, True)):
    for _name, _fn in _impls.items():
        _REGISTRY[(_name, _arity)] = (_fn, _is_comparison, OpIdentity(_name, _arity),
                                      _EXACT_FLOAT_IMPLS.get((_name, _arity)))


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
        object.__setattr__(self, "_value", type(self)._store(self._np_type(value)))

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


_CLASS_BY_WIDTH = {64: TrackedFloat64, 32: TrackedFloat32, 16: TrackedFloat16}

_OPERANDS = (TrackedFloat, int, float, np.floating, np.integer)


def wrap(x, width: int = 64) -> TrackedFloat:
    return _CLASS_BY_WIDTH[width](x)


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


def _once(capture):
    cell = []

    def thunk():
        if not cell:
            cell.append(capture())
        return cell[0]

    return thunk


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
    thunk = _once(sess.traces.capture)

    injected_value = None if is_comparison else sess.injector.decide(op, thunk)
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
            result = propagate_payload(op, xs, result)

    for value_class in (ValueClass.NAN, ValueClass.INF):
        kind = classify(value_class, xs, result)
        if kind is not None:
            sess.ledger.record(kind, value_class, op, xs, result,
                               injected=injected, trace=thunk)
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


def _install_operators():
    binary = [
        ("__add__", "__radd__", "+"),
        ("__sub__", "__rsub__", "-"),
        ("__mul__", "__rmul__", "*"),
        ("__truediv__", "__rtruediv__", "/"),
        ("__pow__", "__rpow__", "pow"),
    ]
    comparisons = [
        ("__lt__", "<"),
        ("__le__", "<="),
        ("__gt__", ">"),
        ("__ge__", ">="),
        ("__eq__", "=="),
        ("__ne__", "!="),
    ]
    for dunder, rdunder, name in binary:
        setattr(TrackedFloat, dunder, _forward(name))
        setattr(TrackedFloat, rdunder, _reflected(name))
    for dunder, name in comparisons:
        setattr(TrackedFloat, dunder, _forward(name))
    setattr(TrackedFloat, "__neg__", _unary("-"))
    setattr(TrackedFloat, "__abs__", _unary("abs"))
    setattr(TrackedFloat, "__bool__", _unary("bool"))


_install_operators()


def _unary_fn(name):
    def fn(x, session=None):
        return apply(name, (x,), session=session)
    fn.__name__ = fn.__qualname__ = name if name.isidentifier() else "neg"
    fn.__doc__ = f"Tracked {name}(x)."
    return fn


def _binary_fn(name, public):
    def fn(x, y, session=None):
        return apply(name, (x, y), session=session)
    fn.__name__ = fn.__qualname__ = public
    fn.__doc__ = f"Tracked {name}(x, y)."
    return fn


sqrt = _unary_fn("sqrt")
exp = _unary_fn("exp")
log = _unary_fn("log")
sin = _unary_fn("sin")
cos = _unary_fn("cos")
tan = _unary_fn("tan")
floor = _unary_fn("floor")
ceil = _unary_fn("ceil")

atan2 = _binary_fn("atan2", "atan2")
hypot = _binary_fn("hypot", "hypot")
rem = _binary_fn("rem", "rem")
minimum = _binary_fn("min", "minimum")
maximum = _binary_fn("max", "maximum")
