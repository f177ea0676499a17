"""End-to-end demo behavior: results, event patterns, determinism."""

import hashlib
import math

import pytest

from fpx import fpbits, stackgraph
from fpx.classify import EventKind, OpIdentity, ValueClass
from fpx.cli import cli_main
from fpx.demos import demo_loop_kill, demo_max, demo_sim
from fpx.ledger import FILE_BY_KIND, LedgerConfig
from fpx.session import explicit_session

NAN = float("nan")


def _max1_oracle(values):
    """Untracked hand-execution of the comparison-scan maximum."""
    best = 0.0
    for x in values:
        if not (x <= best):
            best = x
    return best


def _same_value(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


class TestDemoMax:
    def test_nan_list_splits_the_two_maxima(self):
        result = demo_max((1.0, 5.0, NAN, 4.0))
        assert result.max1 == 4.0
        assert math.isnan(result.max2)
        kills = result.session.ledger.events(kind=EventKind.KILL)
        assert kills and all(e.op == OpIdentity("<=", 2) for e in kills)
        assert all(e.trace[0].function == "max1" for e in kills)
        props = result.session.ledger.events(kind=EventKind.PROP)
        assert props and all(e.op == OpIdentity("max", 2) for e in props)

    def test_clean_list_agrees(self):
        result = demo_max((1.0, 2.0, 3.0))
        assert result.max1 == result.max2 == 3.0
        assert result.session.ledger.events() == []

    @pytest.mark.parametrize("values", [
        (NAN,),
        (1.0, 5.0, NAN, 4.0),
        (NAN, 2.0),
        (7.0, NAN),
        (-3.0, -1.0),
    ])
    def test_scan_result_matches_untracked_oracle(self, values):
        result = demo_max(values)
        assert _same_value(result.max1, _max1_oracle(values))

    def test_single_nan_swaps_in(self):
        # the scan's guard is `not (x <= best)`: a NaN comparison is false,
        # so the negation is true and the NaN is swapped in
        result = demo_max((NAN,))
        assert math.isnan(result.max1)
        assert math.isnan(result.max2)

    def test_run_max_log_digest(self, tmp_path):
        """`fpx run max` keeps the bytes of its three logs, whatever name the
        fold's maximum is reached by."""
        assert cli_main(["run", "max", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256()
        for filename in FILE_BY_KIND.values():
            digest.update(filename.encode() + b"\0" + (tmp_path / filename).read_bytes() + b"\0")
        assert digest.hexdigest() == (
            "3791d1c74ba2b861a22939b38bae4c0668a94a2aefca4cb9e49d30a3b60f8e96")


class TestDemoLoopKill:
    def test_injected_guard_livelocks(self):
        result = demo_loop_kill(inject_tdir=True, max_iters=100)
        assert result.work_iterations == 0
        assert result.livelocked is True
        kills = [e for e in result.session.ledger.events(kind=EventKind.KILL)
                 if e.value_class is ValueClass.NAN]
        assert len(kills) >= 100
        assert all(e.op == OpIdentity("<", 2) for e in kills)
        props = result.session.ledger.events(kind=EventKind.PROP)
        assert props and all(e.op == OpIdentity("*", 2) for e in props)

    def test_clean_run_completes(self):
        result = demo_loop_kill()
        assert result.work_iterations == 10
        assert result.livelocked is False
        assert result.session.ledger.events() == []

    @pytest.mark.parametrize("max_iters", [1, 5, 9])
    def test_advancing_loop_cut_short_is_stopped_not_livelocked(self, max_iters):
        result = demo_loop_kill(max_iters=max_iters)
        assert (result.work_iterations, result.guard_evaluations) == (max_iters, max_iters)
        assert result.stopped is True and result.livelocked is False

    def test_livelock_is_also_a_stop(self):
        result = demo_loop_kill(inject_tdir=True, max_iters=5)
        assert result.stopped is True and result.livelocked is True

    def test_kill_graph_has_single_dominant_path(self):
        result = demo_loop_kill(inject_tdir=True, max_iters=50)
        kills = result.session.ledger.events(kind=EventKind.KILL)
        g = stackgraph.build([e.trace for e in kills])
        # every kill trace is the same path ending at the guard frame
        assert len(g.edges) == len(kills[0].trace) - 1
        assert all(count == 50 for count in g.edges.values())
        assert kills[0].trace[0].function == "loop_guard"
        assert [e for e in kills if e.value_class is ValueClass.NAN
                and e.trace and e.trace[0].function == "loop_guard"]


    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_no_guard_evaluation_is_a_value_error(self, max_iters):
        """A bound that allows no guard evaluation could only report a livelock."""
        with pytest.raises(ValueError, match="max_iters"):
            demo_loop_kill(max_iters=max_iters)


class TestDemoSim:
    def test_stable_run_is_event_free(self):
        result = demo_sim(steps=50, blowup=False)
        assert result.session.ledger.events() == []
        assert all(math.isfinite(float(x)) for x in result.field)

    def test_blowup_generates_inf_then_nan(self):
        result = demo_sim(steps=12, blowup=True)
        gens = result.session.ledger.events(kind=EventKind.GEN)
        nan_gens = [e for e in gens if e.value_class is ValueClass.NAN]
        inf_gens = [e for e in gens if e.value_class is ValueClass.INF]
        assert inf_gens and nan_gens
        assert inf_gens[0].seq < nan_gens[0].seq
        two_inf = [e for e in nan_gens
                   if len(e.operands) == 2
                   and all(math.isinf(float(x)) for x in e.operands)]
        assert two_inf, "expected a NaN gen whose operands are two infinities"

    def test_op_counts_and_blowup_log_digest(self, tmp_path):
        """Every tracked op is counted once, fused clean path or not, and the
        blowup logs keep their bytes (the benchmark pins the same digest)."""
        clean = demo_sim(30, 64)
        assert clean.session.ledger.events() == []
        assert clean.session.injector.op_counter == 9300
        blowup = demo_sim(24, 48, blowup=True)
        assert blowup.session.injector.op_counter == 5520
        paths = blowup.session.ledger.flush(tmp_path)
        digest = hashlib.sha256()
        for kind, filename in FILE_BY_KIND.items():
            digest.update(filename.encode() + b"\0" + paths[kind].read_bytes() + b"\0")
        assert digest.hexdigest() == (
            "bbc301ee9a0c5f21e966893d9b5fb69feb28b67130371c5ec6d9375185b582ea")

    def test_runs_are_deterministic(self):
        a = demo_sim(steps=12, blowup=True)
        b = demo_sim(steps=12, blowup=True)
        assert a.session.ledger.events() == b.session.ledger.events()
        assert [fpbits.to_bits(x) for x in a.field] == \
               [fpbits.to_bits(x) for x in b.field]

    @pytest.mark.parametrize("cells", [0, -3])
    def test_no_cells_is_a_value_error(self, cells):
        with pytest.raises(ValueError, match="cells"):
            demo_sim(steps=2, cells=cells)

    def test_negative_steps_is_a_value_error(self):
        with pytest.raises(ValueError, match="steps"):
            demo_sim(steps=-2)

    def test_zero_steps_returns_the_initial_field(self):
        assert demo_sim(steps=0, cells=3).field == [0.0, 1.0, 0.0]

    def test_one_and_two_cells_run(self):
        assert len(demo_sim(steps=2, cells=1).field) == 1
        assert len(demo_sim(steps=2, cells=2).field) == 2

    def test_disabled_logging_does_not_perturb(self):
        logged = demo_sim(steps=12, blowup=True)
        silent = demo_sim(steps=12, blowup=True,
                          session=explicit_session(LedgerConfig(log_kinds=frozenset())))
        assert silent.session.ledger.events() == []
        assert [fpbits.to_bits(x) for x in logged.field] == \
               [fpbits.to_bits(x) for x in silent.field]


@pytest.mark.parametrize("make_session", [
    lambda: demo_max((1.0, 5.0, NAN, 4.0)).session,
    lambda: demo_loop_kill(inject_tdir=True, max_iters=30).session,
    lambda: demo_sim(steps=12, blowup=True).session,
])
def test_demo_ledgers_satisfy_classify_relation(make_session, tmp_path):
    """Re-derive each logged event's kind offline from its parsed operands."""
    from fpx.classify import classify
    from fpx.ledger import parse_log

    session = make_session()
    paths = session.ledger.flush(tmp_path)
    total = 0
    for kind, path in paths.items():
        for event in parse_log(path):
            assert event.kind is kind
            assert classify(event.value_class, event.operands, event.result) is kind
            total += 1
    assert total == sum(session.ledger.counts().values())
