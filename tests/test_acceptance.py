"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every check is exact (bit-level where floats are compared); the only
tolerances are the stated wall-clock budgets.
"""

import functools
import math
import random
import time

import numpy as np

from conftest import ROWS, WIDTHS
from fpx import fpbits, stackgraph
from fpx.classify import (EventKind, OpIdentity, ValueClass, classify,
                          is_exceptional)
from fpx.demos import demo_loop_kill, demo_max, demo_sim
from fpx.injector import InjectionConfig, Injector, save_recording, load_recording
from fpx.ledger import Ledger, LedgerConfig, render_human
from fpx.session import explicit_session, use_session
from fpx.tracked import TrackedFloat64, apply, unwrap
from fpx.traces import Frame

NAN = float("nan")
INF = float("inf")


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {description}")
                raise
            print(f"criterion {number:2d} PASS  {description}")
        return wrapper
    return decorate


def _within(budget_s):
    start = time.perf_counter()
    return lambda: time.perf_counter() - start < budget_s


@criterion(1, "classification truth table, both classes, 13 op kinds")
def test_criterion_1_truth_table():
    done_in_time = _within(1.0)
    ops = [OpIdentity(n, 2) for n in
           ("+", "-", "*", "/", "<", "<=", "==", "max", "min", "pow")]
    ops += [OpIdentity(n, 1) for n in ("sqrt", "-", "abs")]
    assert len(ops) >= 12
    cells = {
        ValueClass.NAN: {
            (False, False): ([1.0, 2.0], 3.0),
            (False, True): ([INF, -INF], NAN),
            (True, True): ([NAN, 2.0], NAN),
            (True, False): ([NAN, 2.0], 2.0),
        },
        ValueClass.INF: {
            (False, False): ([1.0, 2.0], 3.0),
            (False, True): ([1e308, 1e308], INF),
            (True, True): ([INF, 2.0], INF),
            (True, False): ([-INF, -INF], NAN),
        },
    }
    expected = {(False, False): None, (False, True): EventKind.GEN,
                (True, True): EventKind.PROP, (True, False): EventKind.KILL}
    checked = 0
    for op in ops:
        for value_class, rows in cells.items():
            for (exn_in, exn_out), (inputs, output) in rows.items():
                inputs = inputs[: op.arity]
                assert any(is_exceptional(value_class, x) for x in inputs) == exn_in
                assert classify(value_class, inputs, output) is expected[(exn_in, exn_out)]
                checked += 1
    assert checked == len(ops) * 8
    assert done_in_time()


@criterion(2, "max scan vs propagating max on [1, 5, NaN, 4]")
def test_criterion_2_max_demo():
    done_in_time = _within(1.0)
    result = demo_max((1.0, 5.0, NAN, 4.0))
    assert result.max1 == 4.0
    assert math.isnan(result.max2)
    kills = result.session.ledger.events(kind=EventKind.KILL)
    assert any(e.op == OpIdentity("<=", 2) for e in kills)
    props = result.session.ledger.events(kind=EventKind.PROP)
    assert any(e.op == OpIdentity("max", 2) for e in props)
    assert done_in_time()


@criterion(3, "-Inf minus -Inf is one NaN gen plus one Inf kill")
def test_criterion_3_dual_class():
    session = explicit_session()
    with use_session(session):
        apply("-", (TrackedFloat64(-INF), TrackedFloat64(-INF)))
    events = session.ledger.events()
    assert len(events) == 2
    assert {(e.value_class, e.kind) for e in events} == {
        (ValueClass.NAN, EventKind.GEN), (ValueClass.INF, EventKind.KILL)}
    for e in events:
        assert render_human(e).splitlines()[0] == "-([-Inf, -Inf])"


@criterion(4, "NaN'd loop guard livelocks with per-iteration kills")
def test_criterion_4_livelock():
    done_in_time = _within(1.0)
    max_iters = 100
    bad = demo_loop_kill(inject_tdir=True, max_iters=max_iters)
    assert bad.work_iterations == 0
    assert bad.livelocked is True
    kills = [e for e in bad.session.ledger.events(kind=EventKind.KILL)
             if e.value_class is ValueClass.NAN]
    assert len(kills) >= max_iters
    assert all(e.op == OpIdentity("<", 2) for e in kills)
    good = demo_loop_kill(inject_tdir=False)
    assert good.work_iterations == 10
    assert good.livelocked is False
    assert good.session.ledger.events() == []
    assert done_in_time()


def _random_traces(rng, n_traces):
    pool = ["fa", "fb", "fc", "fd", "fe"]
    traces = []
    for _ in range(n_traces):
        names = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        traces.append(tuple(Frame(n, f"{n}.py", 1) for n in names))
    return traces


@criterion(5, "stack-graph counts: figure analogue and conservation x1000")
def test_criterion_5_cstg_counts():
    def trace(*names):  # outermost-first notation
        return tuple(Frame(n, f"{n}.py", 1) for n in reversed(names))

    g = stackgraph.build([trace("A", "B", "D"), trace("A", "C", "D"),
                          trace("B", "C", "D")])
    key = lambda n: stackgraph.frame_key(Frame(n, f"{n}.py", 1))
    into_d = {e: c for e, c in g.edges.items() if e[1] == key("D")}
    assert sum(into_d.values()) == 3
    assert into_d[(key("C"), key("D"))] == 2
    assert into_d[(key("B"), key("D"))] == 1

    rng = random.Random(1005)
    for _ in range(1000):
        traces = _random_traces(rng, rng.randint(0, 12))
        built = stackgraph.build(traces)
        assert sum(built.edges.values()) == sum(len(t) - 1 for t in traces)
        assert built.trace_total == len(traces)


@criterion(6, "diff laws: self-diff, antisymmetry, composition x1000")
def test_criterion_6_diff_laws():
    rng = random.Random(1006)
    for _ in range(1000):
        a = stackgraph.build(_random_traces(rng, rng.randint(0, 10)))
        b = stackgraph.build(_random_traces(rng, rng.randint(0, 10)))
        assert stackgraph.diff(a, a).edges == {}
        forward = stackgraph.diff(a, b)
        backward = stackgraph.diff(b, a)
        assert forward.edges == {e: -d for e, d in backward.edges.items()}
        rebuilt = dict(a.edges)
        for edge, delta in forward.edges.items():
            rebuilt[edge] = rebuilt.get(edge, 0) + delta
        assert {e: c for e, c in rebuilt.items() if c != 0} == b.edges


@criterion(7, "fuzz with odds=5 n=3: original and two replays byte-identical")
def test_criterion_7_replay_determinism(tmp_path):
    done_in_time = _within(5.0)

    def run(injector, out_name):
        session = explicit_session(injector=injector)
        demo_sim(steps=20, blowup=False, session=session)
        paths = session.ledger.flush(tmp_path / out_name)
        return session, {k: p.read_bytes() for k, p in paths.items()}

    fuzz_session, original = run(
        Injector.fuzz(InjectionConfig(odds=5, n_inject=3, seed=42)), "orig")
    assert len(fuzz_session.injector.recording.points) == 3
    rec_path = tmp_path / "rec.jsonl"
    save_recording(fuzz_session.injector.recording, rec_path)
    recording = load_recording(rec_path)
    _, replay_1 = run(Injector.replay(recording), "rep1")
    _, replay_2 = run(Injector.replay(recording), "rep2")
    assert original == replay_1 == replay_2
    assert done_in_time()


# the plain-scalar oracle, independent of the tracked pipeline
_PLAIN = {key: ufunc for key, (ufunc, _, _, comparison) in ROWS.items() if not comparison}
_OPS = sorted(_PLAIN, key=str)

_COMMON_LEAVES = [0.0, -0.0, 1.0, -1.0, 2.5, -3.75, 0.5, 1234.5678, INF, -INF, NAN]
_LEAVES = {
    64: _COMMON_LEAVES + [1e-300, -1e308, 1e308, 5e-324,
                          fpbits.nan_with_payload(0x123),
                          fpbits.nan_with_payload(0xBEEF)],
    32: _COMMON_LEAVES + [1e38, -1e38, 1e-44],
    16: _COMMON_LEAVES + [60000.0, -60000.0, 6e-8],
}


def _random_dag(rng, width):
    leaves = [rng.choice(_LEAVES[width]) for _ in range(4)]
    program = []
    size = len(leaves)
    for _ in range(rng.randint(1, 8)):
        name_arity = _OPS[rng.randrange(len(_OPS))]
        args = tuple(rng.randrange(size) for _ in range(name_arity[1]))
        program.append((name_arity, args))
        size += 1
    return leaves, program


def _eval_plain(leaves, program, width):
    np_type = WIDTHS[width][1]
    values = [np_type(x) for x in leaves]
    with np.errstate(all="ignore"):
        for (name, arity), args in program:
            values.append(_PLAIN[(name, arity)](*(values[i] for i in args)))
    return values


def _eval_tracked(leaves, program, width, session):
    cls = WIDTHS[width][0]
    values = [cls(x) for x in leaves]
    with use_session(session):
        for (name, _), args in program:
            values.append(apply(name, tuple(values[i] for i in args)))
    return [unwrap(v) for v in values]


@criterion(8, "numeric transparency on 10,000 random DAGs, 0 ULP")
def test_criterion_8_numeric_transparency():
    rng = random.Random(1008)
    session = explicit_session(LedgerConfig(log_kinds=frozenset()))
    plan = [(64, 8000), (32, 1500), (16, 500)]
    for width, count in plan:
        for _ in range(count):
            leaves, program = _random_dag(rng, width)
            plain = _eval_plain(leaves, program, width)
            tracked = _eval_tracked(leaves, program, width, session)
            for p, t in zip(plain, tracked):
                assert fpbits.to_bits(p, width) == fpbits.to_bits(t, width)


@criterion(9, "NaN payload survives random 20-op chains")
def test_criterion_9_payload_conservation():
    rng = random.Random(1009)
    verified = 0
    for _ in range(400):
        payload = rng.randrange(1, 1 << 51)
        session = explicit_session()
        value = TrackedFloat64(fpbits.nan_with_payload(payload))
        with use_session(session):
            for _ in range(20):
                name, arity = _OPS[rng.randrange(len(_OPS))]
                if arity == 1:
                    value = apply(name, (value,))
                else:
                    other = TrackedFloat64(rng.uniform(-100.0, 100.0))
                    pair = (value, other) if rng.random() < 0.5 else (other, value)
                    value = apply(name, pair)
        result = unwrap(value)
        new_sources = [e for e in session.ledger.events(kind=EventKind.GEN)
                       if e.value_class is ValueClass.NAN]
        if math.isnan(result) and not new_sources:
            assert fpbits.nan_payload(result) == payload
            verified += 1
    assert verified >= 100


@criterion(10, "log, recording, and DOT bytes stable across consecutive runs")
def test_criterion_10_format_stability(tmp_path):
    def one_run(tag):
        injector = Injector.fuzz(InjectionConfig(odds=7, n_inject=2, seed=5))
        session = explicit_session(injector=injector)
        demo_sim(steps=14, blowup=True, session=session)
        paths = session.ledger.flush(tmp_path / tag)
        log_bytes = {k.value: p.read_bytes() for k, p in paths.items()}
        rec_path = tmp_path / f"rec-{tag}.jsonl"
        save_recording(session.injector.recording, rec_path)
        gens = session.ledger.events(kind=EventKind.GEN)
        dot = stackgraph.emit_dot(stackgraph.build([e.trace for e in gens]))
        return log_bytes, rec_path.read_bytes(), dot

    first = one_run("first")
    second = one_run("second")
    assert first == second
    assert first[2].startswith("digraph G {")
