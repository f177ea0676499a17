"""Tracked floating-point scalars and the operation intercept pipeline.

Every operation on a tracked value computes, then decides: under an OFF
injector it is only counted, without a lock; under FUZZ or REPLAY it
consults the injector, which may substitute an injected value. It pins NaN
payloads to their source, logs one event per value class whose exceptional
status it touched, and re-wraps the result. An operation is one row of the
table below: name, arity, numpy ufunc, exact Python float twin, the operator
methods it backs, if any, and whether it is a comparison; the registry, the
methods and numpy's entry are built from it. numpy's entry, __array_ufunc__,
runs a row's ufunc over a tracked value as the row's method of that value's
class, so np.add(x, y) is x + y and np.sqrt(x) is the sqrt row, which numpy's
name alone reaches, and a ufunc without a row, a keyword or an array is
numpy's TypeError.
Every operation runs in the current session, which a `use_session` block
picks. Each row has a method on two classes. TrackedFloat's is a router to
apply, which the narrow widths inherit. TrackedFloat64's comes from one
maker and binds cls = TrackedFloat64: every value of that class is a Python
float, so an other operand that is a cls or a Python float makes the op one
over Python floats, and any other goes to the router. A method wraps in the
class it binds, so the width classes are final: subclassing one is a
TypeError. Over Python floats a comparison or truth test with finite
operands returns the twin's bool, and a row without a twin goes to _finish.
A row with a twin (+ - * /, negation, abs, sqrt) runs it once, and one test
of the result stands for the operand tests: r - r == 0.0, since a finite
sum, difference, product, negation, absolute value or square root has
finite operands, and r - r == y - y for /, since x / inf is finite. Such a
clean op is counted or decided in the method, and wrapped unless a value is
injected. Under an OFF injector, a binary one with a NaN or an Inf operand
is finished in the method too, from the outcome table. Every other op goes
to _finish, which apply shares, with the twin's result or the fact that the
twin raised, so nothing computes twice. _finish takes the op's outcome from
the outcome table or from _outcome, the outcome step, then runs the tail: a
comparison takes no decision, and any other op, clean or not, is counted
under an OFF injector and takes Injector.decide under FUZZ or REPLAY;
_logged, the tail's log and wrap, ends it. apply takes the operands that
need a cast, the narrow widths and direct calls.

Two substrates compute, with the same bits either way, by one rule:
- A twin (+ - * /, negation, abs, sqrt, the comparisons and truth) computes
  over Python floats with at most one NaN operand. It is IEEE correctly
  rounded or exact, so it gives the ufunc's bits, NaN and Inf included; not
  so with two NaN operands, whose sign the ufunc takes from the first and
  the compiled operator may take from the second.
- A numpy scalar ufunc under np.errstate(all="ignore") computes everything
  else: two NaN operands, a twin that raises (x/0, sqrt of a negative),
  narrow widths and rows without a twin. So 0/0, log(0), overflow and a
  signalling NaN operand yield IEEE results instead of raising, whatever
  the caller's numpy state.
- The outcome table remembers every exceptional set: an op over Python
  floats with a NaN or an Inf operand (x - x != y - y) computes once per
  ufunc and pair of operand bit patterns, since its pinned result and both
  statuses are a function of those bits. _OUTCOMES, keyed by them, is
  cleared past OUTCOME_TABLE_LIMIT entries. A remembered op still counts or
  decides, logs and wraps: under an OFF injector a binary twin row over
  Python floats is counted, logged and wrapped by its method, any other op
  in _finish.
With injection off, unwrapped results are bit-identical to the same
computation over plain numpy scalars.
Construction and ops share one operand rule and one cast: a value that is not
a number is a TypeError before any event; at float64 every value becomes a
Python float, so int and numpy scalar operands take the twin; a number too
big for a narrow width becomes Inf, logged as a cast gen before the op's
events; and one that cannot convert raises before the op is numbered. One
pin, propagate_payload, serves every width. Formatting a tracked value
formats the wrapped one: a text exit that logs nothing.
"""

from __future__ import annotations

import math
import operator
from math import isfinite

import numpy as np

from .classify import EventKind, OpIdentity, ValueClass, classify, propagate_payload
from .fpbits import _pack_dd
from .injector import InjectorMode
from .session import current_session

# One row per operation: name, arity, numpy ufunc, Python float twin, the
# dunders it backs (forward then reflected; none where only the ufunc names
# it), and whether it is a comparison or truth test: a bool result, no injector
# decision. A twin rounds exactly like the ufunc on finite float64 operands;
# there is none for pow (1 ulp off), exp/log/trig/atan2/hypot (libm and numpy
# differ), floor (math.floor drops -0.0) and min/max (signed zero).
_OPERATIONS = (
    ("+", 2, np.add, operator.add, "__add__ __radd__", False),
    ("-", 2, np.subtract, operator.sub, "__sub__ __rsub__", False),
    ("*", 2, np.multiply, operator.mul, "__mul__ __rmul__", False),
    ("/", 2, np.divide, operator.truediv, "__truediv__ __rtruediv__", False),
    ("pow", 2, np.power, None, "__pow__ __rpow__", False),
    ("min", 2, np.minimum, None, "", False),     # NaN-propagating, not IEEE minNum
    ("max", 2, np.maximum, None, "", False),
    ("atan2", 2, np.arctan2, None, "", False),
    ("hypot", 2, np.hypot, None, "", False),
    ("rem", 2, np.fmod, None, "", False),
    ("-", 1, np.negative, operator.neg, "__neg__", False),
    ("abs", 1, np.abs, abs, "__abs__", False),
    ("sqrt", 1, np.sqrt, math.sqrt, "", False),
    ("exp", 1, np.exp, None, "", False),
    ("log", 1, np.log, None, "", False),
    ("sin", 1, np.sin, None, "", False),
    ("cos", 1, np.cos, None, "", False),
    ("tan", 1, np.tan, None, "", False),
    ("floor", 1, np.floor, None, "", False),
    ("ceil", 1, np.ceil, None, "", False),
    ("<", 2, np.less, operator.lt, "__lt__", True),
    ("<=", 2, np.less_equal, operator.le, "__le__", True),
    (">", 2, np.greater, operator.gt, "__gt__", True),
    (">=", 2, np.greater_equal, operator.ge, "__ge__", True),
    ("==", 2, np.equal, operator.eq, "__eq__", True),
    ("!=", 2, np.not_equal, operator.ne, "__ne__", True),
    ("bool", 1, np.bool_, bool, "__bool__", True),
)

# (name, arity) -> (ufunc, is_comparison, OpIdentity, twin); a plain tuple,
# which unpacks faster than a namedtuple on every operation.
_REGISTRY = {(name, arity): (impl, is_comparison, OpIdentity(name, arity), exact)
             for name, arity, impl, exact, _, is_comparison in _OPERATIONS}

_CAST = OpIdentity("cast", 1)

# (kind, class) events by operand status (bit 1: a NaN, bit 2: an Inf) and
# result status (0 finite or a bool, 1 NaN, 2 Inf), NaN class first; read off
# classify, the reference, so the hot path reads no enum and hashes none.
_EVENTS = tuple(tuple(tuple((kind, vc) for vc in ValueClass
                            if (kind := classify(vc, ins, out)) is not None)
                      for out in (0.0, math.nan, math.inf))
                for ins in ((), (math.nan,), (math.inf,), (math.nan, math.inf)))
_OFF = InjectorMode.OFF
_UNARY = object()       # the absent second operand of a one-operand op
_NOT_RUN = object()     # the twin's result of an op whose caller did not run it
# (ufunc, packed bits of the first and last operand) -> (pinned result, operand
# status, result status) of an op over Python floats with a NaN or an Inf
# operand: a pure function of its key, so threads share the table without a
# lock, and a hit skips the compute, the status tests and the pin.
_OUTCOMES = {}
OUTCOME_TABLE_LIMIT = 1024


class TrackedFloat:
    """Immutable scalar wrapper; all arithmetic goes through the intercept pipeline."""

    __slots__ = ("_value",)
    _width = 0
    _ufuncs = {}

    @staticmethod
    def _store(value):
        """The base class has no width, so constructing it raises at its first cast."""
        raise TypeError("TrackedFloat has no width; construct TrackedFloat64, "
                        "TrackedFloat32 or TrackedFloat16")

    def __init__(self, value):
        if (type(value) is float or type(value) is int) and self._width == 64:
            _set_value(self, float(value))      # _cast's float64 rule, past its tuples
            return
        if isinstance(value, TrackedFloat):
            value = value._value
        elif not isinstance(value, _OPERANDS):
            raise TypeError(f"unsupported operand type for {type(self).__name__}: "
                            f"{type(value).__name__}")
        _set_value(self, _cast(type(self), (value,))[0])

    def __init_subclass__(cls):
        """A width class is final: TrackedFloat64's methods bind it, so they
        would wrap a subclass's results in it."""
        if cls.__base__ is not TrackedFloat:
            raise TypeError(f"{cls.__base__.__name__} is final and cannot be subclassed")

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

    def __reduce__(self):
        """copy and pickle rebuild through the constructor, whose value of
        the class's own width logs no event and counts no op."""
        return type(self), (self._value,)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """numpy's entry: a row's ufunc called with no keyword runs the row's
        operator method, the reflected one when the tracked value is on the
        right. A numpy scalar left of a comparison comes as a 0-d array, and
        a np.float64 is read as the Python float it is, bits and all. Any
        other ufunc, method, keyword or operand returns NotImplemented:
        numpy's TypeError, which names them, before any op is counted."""
        methods = self._ufuncs.get((ufunc, len(inputs)))
        if methods is None or method != "__call__" or kwargs:
            return NotImplemented
        x = inputs[0]
        if isinstance(x, TrackedFloat):
            return methods[0](*inputs)
        if type(x) is np.ndarray and x.shape == ():
            x = x[()]
        return methods[1](inputs[1], float(x) if type(x) is np.float64 else x)


class TrackedFloat64(TrackedFloat):
    __slots__ = ()
    _width = 64
    _ufuncs = {}
    _store = staticmethod(float)


class TrackedFloat32(TrackedFloat):
    __slots__ = ()
    _width = 32
    _store = staticmethod(np.float32)


class TrackedFloat16(TrackedFloat):
    __slots__ = ()
    _width = 16
    _store = staticmethod(np.float16)


_OPERANDS = (TrackedFloat, int, float, np.floating, np.integer)
_new = object.__new__
_set_value = TrackedFloat._value.__set__     # the slot, past the immutability guard


def unwrap(t):
    """The plain scalar inside a tracked value; plain scalars pass through."""
    return t._value if isinstance(t, TrackedFloat) else t


def _cast(cls, values):
    """values at cls's width, each of the type cls stores: how every value
    reaches a width. At float64, float() rounds as np.float64 does and raises
    OverflowError past float64. A np.longdouble, whose float() is a silent Inf
    there, and the narrow widths take numpy: a finite number too big for the
    width becomes Inf, an Inf gen of the cast, logged in operand order once
    every value converted, unless one past float64 raised OverflowError."""
    if cls._width == 64 and np.longdouble not in map(type, values):
        return tuple(map(float, values))
    with np.errstate(all="ignore"):
        casts = tuple(map(cls._store, values))
        born = [(np.float64(v), cast) for v, cast in zip(values, casts)
                if math.isinf(cast) and np.isfinite(np.longdouble(v))]
    if any(math.isinf(source) for source, _ in born):      # finite only past float64
        raise OverflowError("number too large to convert to float64")
    for source, cast in born:
        sess = current_session()
        sess.ledger.record(EventKind.GEN, ValueClass.INF, _CAST, (source,), cast, False,
                           sess.traces.capture)
    return casts


def apply(name: str, operands):
    """Run one intercepted operation over tracked (or mixed) operands in the
    current session, which a `use_session` block selects.

    Operands are tracked values, Python or numpy floats and ints, at least one
    tracked; any other raises TypeError, and a number past float64 raises
    OverflowError, before the op is numbered. Returns a tracked scalar at the
    widest tracked operand width, or a plain bool for comparisons. An operand
    too big for that width logs a cast gen first; then one event is recorded
    per value class whose exceptional status changed or persisted across the
    operation, and an uninjected operation with finite operands and a finite
    (or boolean) result records none.
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
    row = _REGISTRY.get((name, len(operands)))
    if row is None:
        raise ValueError(f"unsupported operation: {name}/{len(operands)}")
    values = [o._value if isinstance(o, TrackedFloat) else o for o in operands]
    return _finish(current_session(), cls, row, _cast(cls, values))


def _finish(sess, cls, row, xs, twin=_NOT_RUN, injected_value=None):
    """The op over operands already at cls's width: its outcome, looked up
    in _OUTCOMES over Python floats with a NaN or an Inf operand, else
    _outcome's, given twin, the twin's result if the caller ran it, then the
    tail. A comparison takes no decision. Not given an injected value, any
    other op under an OFF injector is only counted, and under FUZZ or
    REPLAY takes Injector.decide; an injected value, stored at cls's width,
    replaces the result and its status. Then _logged logs and wraps it."""
    impl, is_comparison, op, _ = row
    x, y = xs[0], xs[-1]
    key = outcome = None
    if type(x) is type(y) is float and x - x != y - y:     # a NaN or an Inf operand
        key = impl, _pack_dd(x, y)      # a one-operand op packs its operand twice
        outcome = _OUTCOMES.get(key)
    result, status, result_status = outcome or _outcome(row, xs, key, twin)
    if is_comparison:
        return _logged(sess, None, op, xs, result, False, _EVENTS[status][0], result)
    if injected_value is None:
        injector = sess.injector
        if injector.mode is _OFF:
            injector.count_op()
        else:
            injected_value = injector.decide(op, sess.traces.capture)
    if injected_value is not None:
        result = cls._store(injected_value)
        result_status = 2 if result == result else 1
    return _logged(sess, cls, op, xs, result, injected_value is not None,
                   _EVENTS[status][result_status], cls._store(result))


def _outcome(row, xs, key, twin=_NOT_RUN):
    """The outcome step: (result, operand status, result status) of the op
    over xs. It computes by the module docstring's rule, the twin over
    Python floats with at most one NaN operand and the ufunc under
    np.errstate otherwise; twin is the twin's result if the caller ran it,
    None if it raised. It pins a NaN result's payload with
    propagate_payload and tests both value classes in one pass; a key
    remembers the outcome in _OUTCOMES."""
    impl, is_comparison, _, exact = row
    x, y = xs[0], xs[-1]
    result = None
    if exact is not None and type(x) is type(y) is float and (len(xs) == 1 or x == x or y == y):
        try:
            result = exact(*xs) if twin is _NOT_RUN else twin
        except (ZeroDivisionError, ValueError):    # x/0, sqrt(-x)
            pass
    if result is None:
        with np.errstate(all="ignore"):
            result = impl(*xs)
    status = 0              # bit 1: a NaN operand, bit 2: an Inf one, as in _EVENTS
    for v in xs:
        if not isfinite(v):
            status |= 1 if v != v else 2
    if is_comparison:
        result, result_status = bool(result), 0     # what the ledger and the caller get
    else:
        result_status = 0 if isfinite(result) else 2 if result == result else 1
        if result_status == 1 and status & 1:   # pin the leftmost NaN's payload
            result = propagate_payload(xs, result)
    if key is not None:
        if len(_OUTCOMES) >= OUTCOME_TABLE_LIMIT:
            _OUTCOMES.clear()
        _OUTCOMES[key] = result, status, result_status
    return result, status, result_status


def _logged(sess, cls, op, xs, result, injected, events, value):
    """The tail's log and wrap: records each (kind, class) of events for the
    op's result, then returns value, the result as cls stores it, wrapped
    in cls, or as it is for a comparison, whose cls is None. A one-event op
    runs faster looking the ledger and trace provider up in the loop than
    binding them first."""
    for kind, value_class in events:
        sess.ledger.record(kind, value_class, op, xs, result, injected, sess.traces.capture)
    if cls is None:
        return value
    wrapped = _new(cls)
    _set_value(wrapped, value)
    return wrapped


def _router(name, reflected):
    """A row's method on TrackedFloat, which the narrow widths inherit and
    TrackedFloat64's methods fall back to: the op goes to apply, looked up
    as a module global so a patched apply sees every call, with a plain
    left operand kept on the left. An operand of another type returns
    NotImplemented."""
    def method(self, other=_UNARY):
        if other is _UNARY:
            return apply(name, (self,))
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return apply(name, (other, self) if reflected else (self, other))
    return method


def _float64_method(name, arity, reflected, route):
    """TrackedFloat64's method of a row. It binds cls, and every value of
    cls is a Python float, so an other operand that is a cls or a Python
    float makes the op one over Python floats; any other goes to route,
    the base class's method. A comparison or truth test over finite
    operands (x - x is 0.0 for a finite x, NaN otherwise) returns the
    twin's bool here, and a row without a twin goes to _finish. A twin row
    runs its twin once: a clean op is counted or decided here and wrapped
    in cls unless a value is injected. A finite sum, difference, product,
    negation, absolute value or square root has finite operands, so its
    clean test is r - r == 0.0; not so for /, x / inf is finite, so its
    test is r - r == y - y. Under an OFF injector a binary twin row's op
    with a NaN or an Inf operand is finished here too: its outcome is
    looked up in _OUTCOMES, or _outcome's on a miss, then it is counted, and
    _logged logs it and wraps it. Every other op goes to _finish with the twin's
    result, or None when the twin raised (x / 0.0, sqrt(-x)), so its
    NaN/Inf path computes once."""
    cls = TrackedFloat64
    row = _REGISTRY[name, arity]
    impl, is_comparison, op, exact = row
    plain = is_comparison or exact is None      # no clean op to finish here
    divides = name == "/"

    def unary(self):
        x = self._value
        if plain:
            if is_comparison and x - x == 0.0:
                return exact(x)
            return _finish(current_session(), cls, row, (x,))
        try:
            r = exact(x)
        except ValueError:                  # sqrt(-x)
            return _finish(current_session(), cls, row, (x,), None)
        session = current_session()
        if r - r != 0.0:                    # NaN for an Inf or NaN result
            return _finish(session, cls, row, (x,), r)
        injector = session.injector
        if injector.mode is _OFF:
            injector.count_op()
        elif (injected := injector.decide(op, session.traces.capture)) is not None:
            return _finish(session, cls, row, (x,), r, injected)
        wrapped = _new(cls)
        _set_value(wrapped, r)
        return wrapped

    def binary(self, other):
        if type(other) is cls:
            other = other._value
        elif type(other) is not float:
            return route(self, other)
        if reflected:
            x, y = other, self._value
        else:
            x, y = self._value, other
        if plain:
            if is_comparison and x - x == y - y:
                return exact(x, y)
            return _finish(current_session(), cls, row, (x, y))
        try:
            r = exact(x, y)
        except ZeroDivisionError:           # x / 0.0
            return _finish(current_session(), cls, row, (x, y), None)
        injector = (session := current_session()).injector
        if r - r == (y - y if divides else 0.0):
            if injector.mode is _OFF:
                injector.count_op()
            elif (injected := injector.decide(op, session.traces.capture)) is not None:
                return _finish(session, cls, row, (x, y), r, injected)
            wrapped = _new(cls)
            _set_value(wrapped, r)
            return wrapped
        if injector.mode is _OFF and x - x != y - y:    # a NaN or an Inf operand
            key = impl, _pack_dd(x, y)
            result, status, result_status = _OUTCOMES.get(key) or _outcome(row, (x, y), key, r)
            injector.count_op()
            # an outcome of + - * is the twin's Python float or the pinned one
            # of two NaN operands, also a Python float; / stores through cls
            return _logged(session, cls, op, (x, y), result, False, _EVENTS[status][result_status],
                           cls._store(result) if divides else result)
        return _finish(session, cls, row, (x, y), r)
    return unary if arity == 1 else binary


# (ufunc, arity) -> the row's forward and, for two operands, reflected
# method, per class: TrackedFloat's routers, which the narrow widths
# inherit, and TrackedFloat64's own. Each class's dunders are those the row
# names.
for _name, _arity, _ufunc, _, _methods, _ in _OPERATIONS:
    _routers = tuple(_router(_name, r) for r in (False, True)[:_arity])
    _fast = tuple(_float64_method(_name, _arity, r, route) for r, route in enumerate(_routers))
    for _cls, _fns in ((TrackedFloat, _routers), (TrackedFloat64, _fast)):
        _cls._ufuncs[_ufunc, _arity] = _fns
        for _method, _fn in zip(_methods.split(), _fns):
            setattr(_cls, _method, _fn)
