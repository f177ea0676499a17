"""One reference for whole programs: a slow interpreter checks every entry point.

The reference below calls no fpx fast path. Per op it applies the operand
rule and the cast, runs the numpy ufunc under np.errstate, calls classify per
value class and pins a NaN result with propagate_payload; an injection comes
from a schedule of op number -> value. Hypothesis draws one seed, which
builds a straight-line program over tracked values of every width, Python
floats, ints and numpy scalars, reached through the operator methods (forward
and reflected), numpy's ufuncs, apply and construction, and its fuzz and
ledger configs. Each program runs with injection off, under its fuzz config,
and as a replay of that run's recording, and each run must match the
reference on result bits, the full event list with seq, the op counter, the
recorded injections and the flushed jsonl bytes. The reference tallies the
path class of each op it runs (its width, its operands' kinds, a cast gen,
an injection, a NaN pin that changes bits), and each class must be reached
by a floor of the programs. Other
drawn programs run under a drawn cap and kind filter, which must keep the
reference's prefix of each logged kind and count the rest, and change no
result, op number or injection point.
"""

import contextlib
import json
import math
import random
import threading
import time
import warnings
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MIRRORED, ROWS, WIDTHS, run_threads, thread_changes
from fpx import fpbits, tracked
from fpx.classify import EventKind, OpIdentity, ValueClass, classify, propagate_payload
from fpx.injector import InjectionConfig, Injector, InjectorMode
from fpx.ledger import FILE_BY_KIND, ExceptionEvent, LedgerConfig
from fpx.session import explicit_session, use_session
from fpx.traces import Frame, trace_fingerprint
from fpx.tracked import TrackedFloat

COMPARISONS = {name for (name, _), (_, _, _, comparison) in ROWS.items() if comparison}
CLASSES = {width: cls for width, (cls, _) in WIDTHS.items()}
# the type a value of each width is stored as: a Python float at float64
STORE = {**{width: np_type for width, (_, np_type) in WIDTHS.items()}, 64: float}
CAST = OpIdentity("cast", 1)

MAX64 = 1.7976931348623157e308
# Plain operands in families of values that interact; a program draws its
# palette from one or two families, so that they meet in its ops. The NaNs,
# float64 and narrow, are drawn twice as often, and the ints near 2**53, which
# only an exact comparison tells from their float64 cast, three times.
NANS_64 = (fpbits.from_bits(0x7FF8000000000001), fpbits.from_bits(0xFFF800000000BEEF),
           fpbits.from_bits(0x7FF0000000000001), fpbits.from_bits(0xFFF4000000000123),
           np.float64(fpbits.from_bits(0x7FF800000000ABCD)))
NANS_NARROW = (fpbits.from_bits(0x7FC00123, 32), fpbits.from_bits(0x7F800001, 32),
               fpbits.from_bits(0x7E01, 16), fpbits.from_bits(0xFC01, 16),
               fpbits.from_bits(0xFE05, 16), fpbits.from_bits(0x7C03, 16),
               fpbits.from_bits(0x7FF8123400000000))     # a payload a float32 cast keeps
INTS = (2**53 + 1, -(2**53 + 1), 2.0**53, 10**400, np.int64(2**53 + 1))
FAMILIES = (
    NANS_64, NANS_64, NANS_NARROW, NANS_NARROW, INTS, INTS, INTS,
    (1e300, -1e300, MAX64, -MAX64, 65504.0, 70000.0, 6.8e38, math.inf, -math.inf,
     np.float64(math.inf), np.float32(-3.0e38), np.float16(-65504.0), np.longdouble("1e400")),
    (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.float64(-0.0), 0,
     np.float16(0.5)),
    (1.5, -2.0, 3.0, 0.1, 1, -1, 2, True, np.float64(2.5), np.float32(1.5), np.int8(-3),
     np.longdouble(0.5)),
)
FUZZ_VALUES = (math.nan, fpbits.from_bits(0x7FF8000000000042), math.inf, -math.inf)
SCOPES = ((), ("hot",), ("cold",), ("cold", "hot"))
# Path class -> the fewest programs of test_programs_match_the_reference that
# must reach it: at least half the fewest that 80 draws of other seeds reached
# without the @example, and at least 1. A seed's count swings widely, since a
# program draws its operands from one or two value families, so a floor fails
# when a generator change loses a class, not when an edit to the test changes
# the derandomized draw. No float64 pin changes bits: on x86-64 the ufuncs
# already give the leftmost NaN operand's payload.
T = "tracked"
PATH_FLOORS = {
    ("width", 16): 39, ("width", 32): 56, ("width", 64): 43,
    ("cast gen", 16): 7, ("cast gen", 32): 1,
    ("injected", 16): 20, ("injected", 32): 20, ("injected", 64): 19,
    ("pin changes bits", 16): 1, ("pin changes bits", 32): 3,
    ("operands", 16, (T,)): 30, ("operands", 16, (T, T)): 31,
    ("operands", 16, (T, "float")): 17, ("operands", 16, ("float", T)): 10,
    ("operands", 16, (T, "int")): 2, ("operands", 16, ("int", T)): 2,
    ("operands", 16, (T, "numpy")): 6, ("operands", 16, ("numpy", T)): 8,
    ("operands", 32, (T,)): 34, ("operands", 32, (T, T)): 32,
    ("operands", 32, (T, "float")): 8, ("operands", 32, ("float", T)): 9,
    ("operands", 32, (T, "int")): 3, ("operands", 32, ("int", T)): 2,
    ("operands", 32, (T, "numpy")): 7, ("operands", 32, ("numpy", T)): 9,
    ("operands", 64, (T,)): 32, ("operands", 64, (T, T)): 31,
    ("operands", 64, (T, "float")): 9, ("operands", 64, ("float", T)): 9,
    ("operands", 64, (T, "int")): 3, ("operands", 64, ("int", T)): 4,
    ("operands", 64, (T, "numpy")): 6, ("operands", 64, ("numpy", T)): 9,
}


def _kind(operand):
    """An operand's kind: tracked, a numpy scalar, a Python float, or an int
    (a bool too); a numpy float64 is a numpy scalar, not a Python float."""
    return (T if isinstance(operand, TrackedFloat) else
            "numpy" if isinstance(operand, np.generic) else
            "float" if isinstance(operand, float) else "int")


def _frames(scope):
    """The trace of a statement run in nested scopes, innermost first."""
    return tuple(Frame(name, "prog.py", depth + 1) for depth, name in enumerate(scope))[::-1]


class Reference:
    """The slow interpreter: one op at a time, by the documented rules."""

    def __init__(self, schedule):
        self.schedule = schedule        # op number -> injected value
        self.op_counter = 0
        self.events = []
        self.injections = []            # (op number, op name, value bits, fingerprint)
        self.trace = ()
        self.paths = set()              # the path class of every op run

    def record(self, kind, value_class, op, operands, result, injected):
        self.events.append(ExceptionEvent(len(self.events) + 1, kind, value_class, op,
                                          tuple(operands), result, injected, self.trace))

    def cast(self, width, values):
        """Every value at the width: float() at float64, numpy's conversion at a
        narrow width, where a finite value that becomes Inf is a cast gen. A
        value past float64 raises OverflowError before anything is logged."""
        casts, born = [], []
        for v in values:
            with np.errstate(all="ignore"):
                c = STORE[width](v)
                source = np.float64(v)
                finite = np.isfinite(np.longdouble(v))
            if finite and math.isinf(source):
                raise OverflowError(v)
            if finite and math.isinf(c):
                born.append((source, c))
            casts.append(c)
        for source, c in born:
            self.record(EventKind.GEN, ValueClass.INF, CAST, (source,), c, False)
        return casts

    def construct(self, width, value):
        if isinstance(value, TrackedFloat):
            value = value.value
        return CLASSES[width](self.cast(width, [value])[0])    # at its width: no event

    def op(self, name, operands):
        width = max(o._width for o in operands if isinstance(o, TrackedFloat))
        logged = len(self.events)
        xs = self.cast(width, [o.value if isinstance(o, TrackedFloat) else o
                               for o in operands])
        paths = [("width", width), ("operands", width, tuple(map(_kind, operands)))]
        if len(self.events) > logged:
            paths.append(("cast gen", width))
        ufunc = ROWS[name, len(xs)][0]
        op = OpIdentity(name, len(xs))
        injected = None
        if name not in COMPARISONS:
            self.op_counter += 1
            injected = self.schedule.get(self.op_counter)
        with np.errstate(all="ignore"):
            result = ufunc(*xs)
        if name in COMPARISONS:
            result = bool(result)
        elif injected is not None:
            result = STORE[width](injected)
            self.injections.append((self.op_counter, name, fpbits.to_bits(injected),
                                    trace_fingerprint(self.trace)))
            paths.append(("injected", width))
        else:
            raw = STORE[width](result)
            result = propagate_payload(xs, raw)
            if fpbits.to_bits(result) != fpbits.to_bits(raw):
                paths.append(("pin changes bits", width))
        self.paths.update(paths)
        for value_class in ValueClass:
            kind = classify(value_class, xs, result)
            if kind is not None:
                self.record(kind, value_class, op, xs, result, injected is not None)
        return result if name in COMPARISONS else CLASSES[width](result)


def _operand(env, palette, ref):
    kind, i = ref
    if kind == "p":
        return palette[i % len(palette)]
    if not env:
        raise LookupError("no tracked value yet")
    return env[i % len(env)]


def _call(stmt, env, palette, ref=None):
    """One statement, through fpx or, given a Reference, through it."""
    kind = stmt[0]
    if kind == "new":
        _, width, source = stmt
        value = _operand(env, palette, source)
        return ref.construct(width, value) if ref else CLASSES[width](value)
    _, name, form, refs = stmt
    xs = [_operand(env, palette, r) for r in refs]
    ufunc, pyop, rdunder, _ = ROWS[name, len(xs)]
    if ref is None:
        if form == "operator":
            return pyop(*xs)
        if form == "reflected":
            return getattr(xs[1], rdunder)(xs[0])
        if form == "function":
            return ufunc(*xs)
        return tracked.apply(name, tuple(xs))
    if form == "operator" and name in MIRRORED and not isinstance(xs[0], (TrackedFloat,
                                                                           np.generic)):
        name, xs = MIRRORED[name], xs[::-1]
    return ref.op(name, xs)


def _outcome(value):
    """What a statement gave, bit for bit."""
    if isinstance(value, BaseException):
        return type(value).__name__
    if isinstance(value, TrackedFloat):
        return type(value).__name__, fpbits.to_bits(value.value)
    return type(value).__name__, value


def _run(program, enter, ref=None):
    """Every statement's outcome; a tracked result joins the environment."""
    palette, statements = program
    env, outcomes = [], []
    for stmt, scope in statements:
        try:
            with contextlib.ExitStack() as stack:
                enter(stack, scope)
                value = _call(stmt, env, palette, ref)
        except (OverflowError, LookupError) as exc:
            value = exc
        if isinstance(value, TrackedFloat):
            env.append(value)
        outcomes.append(_outcome(value))
    return outcomes


def _run_fpx(program, injector, ledger_config=None):
    # Any warning fails the run.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _run_in_session(program, injector, ledger_config)


def _run_in_session(program, injector, ledger_config=None):
    """The run of _run_fpx, with the warning filters left to the caller: they
    are process-wide, so threads running at once take them from one block."""
    session = explicit_session(ledger_config, injector)

    def enter(stack, scope):
        for depth, name in enumerate(scope):
            stack.enter_context(session.traces.scope(name, "prog.py", depth + 1))
    # Any floating-point flag a bare ufunc raised fails the run.
    with use_session(session), np.errstate(all="raise"):
        outcomes = _run(program, enter)
    return session, outcomes


def _run_reference(program, schedule):
    reference = Reference(schedule)

    def enter(stack, scope):
        reference.trace = _frames(scope)
    return reference, _run(program, enter, reference)


def _line(e):
    """The canonical jsonl line of one event, by json.dumps of its fields."""
    def scalar(x):
        return x if type(x) is bool else {"dec": fpbits.format_dec(x), "hex": fpbits.hex_bits(x)}
    return json.dumps({
        "seq": e.seq, "kind": e.kind.value, "class": e.value_class.value,
        "op": e.op.name, "arity": e.op.arity, "operands": [scalar(x) for x in e.operands],
        "result": scalar(e.result), "injected": e.injected,
        "trace": [{"fn": f.function, "file": f.file, "line": f.line} for f in e.trace],
    }) + "\n"


def _points(session):
    return [(p.op_counter, p.op, fpbits.to_bits(p.value), p.trace_fp)
            for p in session.injector.recording.points]


def _check_flush(session, events, out):
    session.ledger.flush(out)           # rewrites all three files
    for kind, filename in FILE_BY_KIND.items():
        assert (out / filename).read_bytes() == "".join(
            _line(e) for e in events if e.kind is kind).encode("utf-8")


def _check(session, outcomes, reference, expected, out):
    assert outcomes == expected
    assert session.ledger.events() == reference.events
    assert session.injector.op_counter == reference.op_counter
    assert _points(session) == (
        reference.injections if session.injector.mode is InjectorMode.FUZZ else [])
    _check_flush(session, reference.events, out)


def _capped(events, config):
    """What a ledger under config keeps of events: the first max_logs of each
    logged kind, in order and numbered from 1, and the count of the rest by
    (kind, class)."""
    kept, dropped, stored = [], {}, dict.fromkeys(config.log_kinds, 0)
    for e in events:
        if e.kind in stored and (config.max_logs is None or stored[e.kind] < config.max_logs):
            stored[e.kind] += 1
            kept.append(ExceptionEvent(len(kept) + 1, e.kind, e.value_class, e.op, e.operands,
                                       e.result, e.injected, e.trace))
        else:
            dropped[e.kind, e.value_class] = dropped.get((e.kind, e.value_class), 0) + 1
    return kept, dropped


def _ref(rng, is_tracked):
    """An operand: ("t", i) picks a tracked value made so far, ("p", i) the palette."""
    return ("t" if is_tracked else "p"), rng.randrange(64)


# + - * /, the ops most code is made of and the fused path's busiest, weigh three.
_ROW_CHOICES = [row for row in ROWS.items()
                for _ in range(3 if row[0] in {("+", 2), ("-", 2), ("*", 2), ("/", 2)} else 1)]


def _statement(rng, widths):
    if rng.random() < 0.2:
        return "new", rng.choice(widths), _ref(rng, rng.random() < 0.5)
    (name, arity), (_, pyop, rdunder, _) = rng.choice(_ROW_CHOICES)
    forms = ["apply"] + ["operator"] * 3 * (pyop is not None)
    forms += ["reflected"] * 2 * (rdunder is not None) + ["function"] * 2 * (pyop is None)
    form = rng.choice(forms)
    if arity == 1:
        refs = [_ref(rng, True)]
    elif form == "reflected":           # a tracked self, any left operand
        refs = [_ref(rng, rng.random() < 0.5), _ref(rng, True)]
    else:
        refs = [_ref(rng, True), _ref(rng, rng.random() < 0.5)]
        refs = refs if rng.random() < 0.5 else refs[::-1]
    return "op", name, form, refs


def _program(rng):
    """A palette of plain values from one or two families, the widths its
    constructions take, and statements over both, each in a scope."""
    families = rng.sample(FAMILIES, rng.randint(1, 2))
    palette = rng.choices(sum(families, ()), k=rng.randint(1, 3))
    widths = rng.sample([64, 32, 16], rng.choice([1, 1, 2]))
    first = [(("new", rng.choice(widths), _ref(rng, False)), ())
             for _ in range(rng.randint(1, 3))]
    return palette, first + [(_statement(rng, widths), rng.choice(SCOPES))
                             for _ in range(rng.randint(1, 16))]


def _case(seed):
    """A program, a fuzz config and a ledger config, built from one drawn
    seed, which costs far less than a draw per choice. Drawn as separate
    strategies, Hypothesis repeats a few small seeds under other configs:
    300 examples run about 70 distinct programs."""
    rng = random.Random(seed)
    program = _program(rng)
    fuzz = InjectionConfig(odds=rng.randint(1, 4), n_inject=rng.randint(0, 3),
                           seed=rng.getrandbits(32), value=rng.choice(FUZZ_VALUES),
                           functions=rng.choice([(), ("hot",)]))
    # a cap of 1 to 3 in half the runs, so that a stream is both kept and cut
    cap = rng.choice((1, 2, 3) if rng.random() < 0.5 else (0, None))
    ledger = LedgerConfig(cap, rng.sample(list(EventKind), rng.randint(1, 3)))
    return program, fuzz, ledger


# A float64 holding 2**53 against the int 2**53 + 1, which it equals once cast,
# in both orders: the drawn programs meet this pair in about one in two hundred.
@example((([2**53 + 1], [(("new", 64, ("p", 0)), ()),
                         (("op", "<", "operator", [("t", 0), ("p", 0)]), ()),
                         (("op", "==", "operator", [("p", 0), ("t", 0)]), ())]),
          InjectionConfig(), None))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**64).map(_case))
def _programs_match_the_reference(out, paths, case):
    """One program's three runs against the reference; paths counts each path
    class the reference ran, once per program."""
    program, config, _ = case
    session, outcomes = _run_fpx(program, Injector())
    plain, expected = _run_reference(program, {})
    _check(session, outcomes, plain, expected, out)

    fuzzed, outcomes = _run_fpx(program, Injector.fuzz(config))
    recording = fuzzed.injector.recording
    schedule = {p.op_counter: p.value for p in recording.points}
    reference, expected = _run_reference(program, schedule)
    _check(fuzzed, outcomes, reference, expected, out)

    replayed, outcomes = _run_fpx(program, Injector.replay(recording))
    _check(replayed, outcomes, reference, expected, out)
    assert replayed.ledger.events() == fuzzed.ledger.events()
    assert replayed.injector.unconsumed_points() == [] and not replayed.injector.divergences
    paths.update(plain.paths | reference.paths)


def test_programs_match_the_reference(tmp_path_factory):
    """Every drawn program matches the reference, and every path class is
    reached by at least its floor of programs, so a generator change that
    loses a path fails here."""
    out = tmp_path_factory.getbasetemp() / "reference-flush"    # one directory for every run
    paths = Counter()
    _programs_match_the_reference(out, paths)
    assert {path: paths[path] for path, floor in PATH_FLOORS.items()
            if paths[path] < floor} == {}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**64).map(_case))
def test_capped_and_filtered_runs_keep_the_reference_prefix(tmp_path_factory, case):
    program, config, ledger_config = case
    out = tmp_path_factory.getbasetemp() / "reference-capped-flush"
    full, full_outcomes = _run_fpx(program, Injector.fuzz(config))
    recording = full.injector.recording
    reference, _ = _run_reference(program, {p.op_counter: p.value for p in recording.points})
    kept, dropped = _capped(reference.events, ledger_config)

    for injector in (Injector.fuzz(config), Injector.replay(recording)):
        capped, outcomes = _run_fpx(program, injector, ledger_config)
        assert outcomes == full_outcomes
        assert capped.injector.op_counter == full.injector.op_counter
        assert capped.injector.injected_so_far == full.injector.injected_so_far
        assert _points(capped) == (
            _points(full) if injector.mode is InjectorMode.FUZZ else [])
        assert capped.ledger.events() == kept
        assert capped.ledger.dropped() == dropped
        _check_flush(capped, kept, out)
    assert capped.injector.unconsumed_points() == [] and not capped.injector.divergences


def test_threads_running_programs_at_once_each_match_the_reference(tmp_path, monkeypatch):
    """Two threads run drawn programs at the same time, each program under
    OFF, a drawn fuzz config and the replay of its recording, each run in a
    session of its own that the thread installs. Every run must match the
    reference as a run alone does, so no thread sees another's session,
    scopes, op numbers or injections, and the outcome table they share
    gives each the bits of its own ops. Each op through _finish first
    yields the GIL, so the threads' ops interleave."""
    finished_by, finish = [], tracked._finish

    def noted(*args):
        time.sleep(0)
        finished_by.append(threading.get_ident())
        return finish(*args)
    monkeypatch.setattr(tracked, "_finish", noted)
    rng = random.Random(23)
    work = [_case(rng.getrandbits(64))[:2] for _ in range(24)]

    def worker(k):
        done = []
        for program, config in work[k::2]:
            off = _run_in_session(program, Injector())
            fuzzed = _run_in_session(program, Injector.fuzz(config))
            recording = fuzzed[0].injector.recording
            done.append((program, off, fuzzed, _run_in_session(program,
                                                               Injector.replay(recording))))
        return done

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = run_threads(worker, (0, 1))
    for done in runs:
        for program, (off, off_outcomes), (fuzzed, outcomes), (replayed, replayed_outcomes) \
                in done:
            _check(off, off_outcomes, *_run_reference(program, {}), tmp_path)
            schedule = {p.op_counter: p.value for p in fuzzed.injector.recording.points}
            reference, expected = _run_reference(program, schedule)
            _check(fuzzed, outcomes, reference, expected, tmp_path)
            _check(replayed, replayed_outcomes, reference, expected, tmp_path)
            assert not replayed.injector.divergences
    # ops through _finish changed thread about 470 times in 550; without
    # the yield, from 6 to 270 times
    assert thread_changes(finished_by) > 100
