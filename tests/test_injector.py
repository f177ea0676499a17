"""Injection decisions, recordings, and deterministic replay."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpx import fpbits
from fpx.classify import EventKind, OpIdentity, ValueClass
from fpx.injector import (InjectionConfig, InjectionRecording, Injector,
                          InjectorMode, RecordedInjection,
                          RecordingFormatError, ReplayDivergenceWarning,
                          load_recording, save_recording)
from fpx.ledger import LedgerConfig
from fpx.traces import Frame, trace_fingerprint

NAN = float("nan")
OP = OpIdentity("+", 2)
TRACE = (Frame("momentum_u!", "SW/rhs.jl", 246), Frame("run_model", "SW/run.jl", 1))
OTHER_TRACE = (Frame("solve!", "ODE/solve.jl", 515), Frame("main", "app.jl", 3))


def _thunk(trace=TRACE):
    return lambda: trace


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            InjectionConfig(odds=0)
        with pytest.raises(ValueError):
            InjectionConfig(n_inject=-1)
        with pytest.raises(ValueError):
            InjectionConfig(value=1.0)
        InjectionConfig(value=float("-inf"))  # infinities are allowed

    @pytest.mark.parametrize("bad", ["nan", "-inf", np.float32("nan"), np.float64("inf")])
    def test_value_takes_only_a_float(self, bad):
        """A string or a numpy scalar is refused, not kept to be converted at
        the first injection; the CLI converts `value=nan` before it gets here."""
        with pytest.raises(ValueError, match="value"):
            InjectionConfig(value=bad)

    @pytest.mark.parametrize("field", ["functions", "libraries"])
    @pytest.mark.parametrize("bad", ["solver", "/usr/lib", ("",), ("a", "", "b"),
                                     ("a", 5), [None]])
    def test_scope_filter_must_be_non_empty_strings(self, field, bad):
        """A bare string is not split into one-letter filters, and an empty or
        non-string entry is refused: each would match almost every frame."""
        with pytest.raises(ValueError, match=field):
            InjectionConfig(**{field: bad})

    @pytest.mark.parametrize("config, name, bad", [
        (InjectionConfig, "odds", 2.5), (InjectionConfig, "odds", True),
        (InjectionConfig, "odds", "3"), (InjectionConfig, "n_inject", 2.5),
        (InjectionConfig, "n_inject", False), (InjectionConfig, "seed", -1),
        (InjectionConfig, "seed", 1.0), (InjectionConfig, "seed", True),
        (LedgerConfig, "max_logs", 1.5), (LedgerConfig, "max_logs", True),
        (LedgerConfig, "max_logs", "2"),
    ])
    def test_integer_fields_take_only_ints(self, config, name, bad):
        """2.5 is not rounded into a draw range or a cap, a bool is not a count,
        and a negative seed fails here rather than inside the generator."""
        with pytest.raises(ValueError, match=name):
            config(**{name: bad})

    def test_scope_filters_accept_string_sequences(self):
        cfg = InjectionConfig(functions=["solve", "rhs"], libraries=("ODE/",))
        assert (cfg.functions, cfg.libraries) == (("solve", "rhs"), ("ODE/",))

    @pytest.mark.parametrize("bad", ["prop", {"gen"}, [EventKind.GEN, "kill"], ["prop"]])
    def test_log_kinds_take_only_event_kinds(self, bad):
        """A bare string is not split into letters, and a kind's name is not
        the kind: each is refused here, not as a KeyError inside Ledger."""
        with pytest.raises(ValueError, match="log_kinds"):
            LedgerConfig(log_kinds=bad)

    def test_log_kinds_accept_event_kind_collections(self):
        assert LedgerConfig(log_kinds=[EventKind.GEN]).log_kinds == {EventKind.GEN}
        assert LedgerConfig(log_kinds=()).log_kinds == frozenset()


def _fires(inj, trace=TRACE):
    """One decide call: True when it injected (and so returned a value)."""
    return inj.decide(OP, _thunk(trace)) is not None


class TestShouldInject:
    """The fuzz decision, observed through decide: None, or the injected value."""

    def test_odds_one_fires_immediately(self):
        inj = Injector.fuzz(InjectionConfig(odds=1, n_inject=1))
        assert math.isnan(inj.decide(OP, _thunk()))
        assert inj.op_counter == 1

    def test_mode_is_derived_from_the_inputs(self):
        """A recording means replay, else a config means fuzz, else off."""
        cfg, rec = InjectionConfig(odds=1), InjectionRecording()
        assert Injector().mode is InjectorMode.OFF
        assert Injector(cfg).mode is Injector.fuzz(cfg).mode is InjectorMode.FUZZ
        assert Injector(recording=rec).mode is Injector.replay(rec).mode is InjectorMode.REPLAY
        assert Injector(cfg, rec).mode is InjectorMode.REPLAY

    def test_off_mode_never_fires(self):
        inj = Injector()
        assert not any(_fires(inj) for _ in range(50))
        assert inj.op_counter == 50

    def test_bound_exhausted(self):
        inj = Injector.fuzz(InjectionConfig(odds=1, n_inject=1))
        assert _fires(inj)
        assert inj.decide(OP, _thunk()) is None
        assert inj.injected_so_far == 1

    def test_n_inject_zero_is_armed_but_inert(self):
        inj = Injector.fuzz(InjectionConfig(odds=1, n_inject=0))
        assert not any(_fires(inj) for _ in range(20))
        assert inj.recording.points == []

    def test_function_scope_dynamic_extent(self):
        cfg = InjectionConfig(odds=1, n_inject=9, functions=("momentum_u!",))
        inj = Injector.fuzz(cfg)
        assert inj.decide(OP, _thunk(OTHER_TRACE)) is None
        assert _fires(inj, TRACE)

    def test_function_scope_is_substring_match(self):
        cfg = InjectionConfig(odds=1, n_inject=9, functions=("momentum",))
        inj = Injector.fuzz(cfg)
        assert _fires(inj, TRACE)

    def test_library_scope_is_path_prefix(self):
        cfg = InjectionConfig(odds=1, n_inject=9, libraries=("ODE/",))
        inj = Injector.fuzz(cfg)
        assert not _fires(inj, TRACE)
        assert _fires(inj, OTHER_TRACE)

    def test_both_scopes_must_pass(self):
        cfg = InjectionConfig(odds=1, n_inject=9,
                              functions=("solve!",), libraries=("SW/",))
        inj = Injector.fuzz(cfg)
        assert not _fires(inj, TRACE)         # wrong function
        assert not _fires(inj, OTHER_TRACE)   # wrong library
        mixed = (Frame("solve!", "SW/solve.jl", 9),)
        assert _fires(inj, mixed)

    def test_out_of_scope_calls_do_not_consume_randomness(self):
        cfg = InjectionConfig(odds=3, n_inject=100, seed=7, functions=("momentum",))
        plain = Injector.fuzz(InjectionConfig(odds=3, n_inject=100, seed=7))
        scoped = Injector.fuzz(cfg)
        decisions_plain = [_fires(plain, TRACE) for _ in range(40)]
        decisions_scoped = []
        for i in range(40):
            assert not _fires(scoped, OTHER_TRACE)  # out of scope, no draw
            decisions_scoped.append(_fires(scoped, TRACE))
        assert decisions_plain == decisions_scoped
        assert any(decisions_plain) and not all(decisions_plain)


def _counting(trace=TRACE):
    """A capture callable that records each call in the returned list."""
    calls = []

    def capture():
        calls.append(1)
        return trace

    return capture, calls


class TestCaptureCalls:
    """decide calls its capture callable at most once per decision, and only
    when a scope filter, an injection or a recorded point needs the trace."""

    def test_scoped_injection_captures_once(self):
        inj = Injector.fuzz(InjectionConfig(odds=1, n_inject=1, functions=("momentum",)))
        capture, calls = _counting()
        assert math.isnan(inj.decide(OP, capture))
        assert calls == [1]
        assert inj.recording.points[0].trace_fp == trace_fingerprint(TRACE)

    def test_scoped_miss_captures_once(self):
        inj = Injector.fuzz(InjectionConfig(odds=2**40, n_inject=1, libraries=("SW/",)))
        capture, calls = _counting()
        for _ in range(20):
            assert inj.decide(OP, capture) is None
        assert len(calls) == 20

    def test_unscoped_captures_only_to_inject(self):
        inj = Injector.fuzz(InjectionConfig(odds=3, n_inject=100, seed=5))
        capture, calls = _counting()
        fired = sum(inj.decide(OP, capture) is not None for _ in range(60))
        assert 0 < fired < 60
        assert len(calls) == fired == len(inj.recording.points)

    def test_off_and_exhausted_never_capture(self):
        capture, calls = _counting()
        Injector().decide(OP, capture)
        spent = Injector.fuzz(InjectionConfig(odds=1, n_inject=0, functions=("momentum",)))
        spent.decide(OP, capture)
        assert calls == []

    def test_replay_captures_only_at_recorded_points(self):
        rec = InjectionRecording(seed=0, points=[
            RecordedInjection(4, "+", NAN, trace_fingerprint(TRACE)),
            RecordedInjection(17, "+", NAN, trace_fingerprint(TRACE))])
        inj = Injector.replay(rec)
        capture, calls = _counting()
        for _ in range(30):
            inj.decide(OP, capture)
        assert len(calls) == 2 and inj.divergences == []


class TestInjectAndRecord:
    def test_point_bookkeeping(self):
        cfg = InjectionConfig(odds=1, n_inject=2, seed=1, functions=("momentum",))
        inj = Injector.fuzz(cfg)
        for _ in range(15):
            assert inj.decide(OP, _thunk(OTHER_TRACE)) is None  # out of scope
        value = inj.decide(OP, _thunk())
        assert math.isnan(value)
        inj.decide(OpIdentity("*", 2), _thunk())
        assert inj.decide(OP, _thunk()) is None   # n_inject reached
        points = inj.recording.points
        assert [p.op_counter for p in points] == [16, 17]
        assert [p.op for p in points] == ["+", "*"]
        assert all(p.trace_fp == trace_fingerprint(TRACE) for p in points)
        assert inj.injected_so_far == 2

    def test_decide_pipeline(self):
        inj = Injector.fuzz(InjectionConfig(odds=1, n_inject=1, value=float("inf")))
        value = inj.decide(OP, _thunk())
        assert value == float("inf")
        assert inj.decide(OP, _thunk()) is None  # bound reached
        assert len(inj.recording.points) == 1

    def test_recording_bounded_by_n_inject(self):
        inj = Injector.fuzz(InjectionConfig(odds=1, n_inject=3))
        for _ in range(50):
            inj.decide(OP, _thunk())
        assert len(inj.recording.points) == 3

    def test_fuzz_runs_reproducible(self):
        def run():
            inj = Injector.fuzz(InjectionConfig(odds=4, n_inject=5, seed=99))
            for _ in range(100):
                inj.decide(OP, _thunk())
            return inj.recording

        assert run() == run()

    def test_scope_soundness(self):
        cfg = InjectionConfig(odds=1, n_inject=50, seed=3, functions=("momentum_u!",))
        inj = Injector.fuzz(cfg)
        for i in range(60):
            inj.decide(OP, _thunk(TRACE if i % 3 == 0 else OTHER_TRACE))
        assert inj.recording.points
        assert all(p.trace_fp == trace_fingerprint(TRACE) for p in inj.recording.points)


DRAW_ODDS = [1, 2, 3, 10, 300, 2**31, 2**32 - 1, 2**32, 2**40]


def _scalar_draws(seed, odds, n):
    """One-at-a-time draws, the sequence the fuzz injector must reproduce."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return [int(rng.integers(1, odds, endpoint=True)) for _ in range(n)]


class TestBlockDraws:
    """Fuzz draws come in blocks but fire exactly where scalar draws would."""

    @pytest.mark.parametrize("odds", DRAW_ODDS)
    def test_fires_where_scalar_draws_land_on_one(self, odds):
        n, seed = 5000, 2024
        draws = _scalar_draws(seed, odds, n)
        block = np.random.Generator(np.random.PCG64(seed)).integers(
            1, odds, endpoint=True, size=n).tolist()
        assert block == draws
        inj = Injector.fuzz(InjectionConfig(odds=odds, n_inject=n, seed=seed))
        fired = [op for op in range(1, n + 1) if _fires(inj)]
        assert fired == [op for op, d in enumerate(draws, start=1) if d == 1]
        assert [p.op_counter for p in inj.recording.points] == fired

    @pytest.mark.parametrize("odds", [3, 10])
    def test_out_of_scope_decisions_consume_no_draws(self, odds):
        n, seed = 5000, 11
        pattern = random.Random(odds)
        inj = Injector.fuzz(InjectionConfig(odds=odds, n_inject=n, seed=seed,
                                            functions=("momentum",)))
        in_scope_ops = []
        for op in range(1, 2 * n + 1):
            in_scope = pattern.random() < 0.5
            if in_scope:
                in_scope_ops.append(op)
            inj.decide(OP, _thunk(TRACE if in_scope else OTHER_TRACE))
        draws = _scalar_draws(seed, odds, len(in_scope_ops))
        expected = [op for op, d in zip(in_scope_ops, draws) if d == 1]
        assert len(in_scope_ops) > n // 2 and expected
        assert [p.op_counter for p in inj.recording.points] == expected


class TestRecordingFiles:
    def test_round_trip(self, tmp_path):
        rec = InjectionRecording(seed=42, points=[
            RecordedInjection(17, "+", NAN, trace_fingerprint(TRACE)),
            RecordedInjection(93, "*", float("-inf"), trace_fingerprint(OTHER_TRACE)),
        ])
        path = tmp_path / "rec.jsonl"
        save_recording(rec, path)
        assert load_recording(path) == rec

    def test_empty_recording_is_header_only(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        save_recording(InjectionRecording(seed=7), path)
        assert path.read_text().count("\n") == 1
        loaded = load_recording(path)
        assert loaded.seed == 7 and loaded.points == []

    def test_seed_past_64_bits_round_trips(self, tmp_path):
        """The header keeps the seed the run used; it is not masked to 64 bits."""
        inj = Injector.fuzz(InjectionConfig(odds=1, seed=2**64 + 5))
        inj.decide(OP, _thunk())
        path = tmp_path / "rec.jsonl"
        save_recording(inj.recording, path)
        assert json.loads(path.read_text().splitlines()[0]) == {"seed": 2**64 + 5}
        assert load_recording(path) == inj.recording

    @pytest.mark.parametrize("seed", [-3, True, 1.0, None])
    def test_save_refuses_a_seed_the_config_refuses(self, tmp_path, seed):
        path = tmp_path / "rec.jsonl"
        with pytest.raises(ValueError, match="seed"):
            save_recording(InjectionRecording(seed=seed), path)
        assert not path.exists()

    def test_truncated_file_errors(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        path.write_text('{"seed": 1}\n{"op_counter": 5, "op"\n', encoding="utf-8")
        with pytest.raises(RecordingFormatError) as err:
            load_recording(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("points", [0, 2000])
    def test_undecodable_line_is_a_format_error_naming_it(self, tmp_path, points):
        """A byte that is not UTF-8 names its line, also past the first chunk
        a text read decodes; the lines before it are valid points."""
        path = tmp_path / "rec.jsonl"
        lines = ['{"seed": 1}'] + [json.dumps(
            {"op_counter": n, "op": "+", "value_hex": fpbits.hex_bits(NAN),
             "trace_fp": "0" * 16}) for n in range(1, points + 1)]
        path.write_bytes("\n".join(lines).encode() + b'\n{"op_counter": \xff\n')
        with pytest.raises(RecordingFormatError, match="not UTF-8 text") as err:
            load_recording(path)
        assert err.value.line_number == points + 2

    def test_missing_header_errors(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(RecordingFormatError):
            load_recording(path)

    @pytest.mark.parametrize("field, bad", [
        ("op_counter", 3.7), ("op_counter", "5"), ("op_counter", True),
        ("op_counter", None), ("op", 5), ("op", ["+"]),
        ("trace_fp", 12), ("trace_fp", None), ("value_hex", 5),
        ("value_hex", fpbits.hex_bits(1.0)), ("value_hex", fpbits.hex_bits(-0.0)),
        ("value_hex", "0x7fc00001"), ("value_hex", "0x7ff0_00000000000"),
        ("value_hex", "0x7ff000000000000 "),
    ])
    def test_ill_typed_point_names_its_line(self, tmp_path, field, bad):
        """No coercion: 3.7 is not op 3, "5" is not op 5, and a float32 NaN or
        a hex string int() would read is not a float64; and only NaN or Inf is
        injected, as InjectionConfig requires when fuzzing."""
        point = {"op_counter": 1, "op": "+", "value_hex": fpbits.hex_bits(NAN),
                 "trace_fp": "0" * 16}
        path = tmp_path / "rec.jsonl"
        good = json.dumps(point)
        point.update({"op_counter": 9, field: bad})
        path.write_text('{"seed": 1}\n' + good + "\n\n" + json.dumps(point) + "\n",
                        encoding="utf-8")
        with pytest.raises(RecordingFormatError) as err:
            load_recording(path)
        assert err.value.line_number == 4
        assert "line 4" in str(err.value)

    @pytest.mark.parametrize("header", ['{"seed": "1"}', '{"seed": 1.5}', '{"seed": true}',
                                        '{"seed": -3}', '{"sed": 1}', "[1]",
                                        "\n" + '{"seed": 1}'])
    def test_bad_seed_header_is_line_one(self, tmp_path, header):
        path = tmp_path / "rec.jsonl"
        path.write_text(header + "\n", encoding="utf-8")
        with pytest.raises(RecordingFormatError) as err:
            load_recording(path)
        assert err.value.line_number == 1

    @pytest.mark.parametrize("counters", [(5, 5), (9, 5), (3, 7, 6)])
    def test_op_counter_must_increase_names_its_line(self, tmp_path, counters):
        path = tmp_path / "rec.jsonl"
        path.write_text('{"seed": 1}\n' + "".join(json.dumps(
            {"op_counter": n, "op": "+", "value_hex": fpbits.hex_bits(NAN),
             "trace_fp": "0" * 16}) + "\n" for n in counters), encoding="utf-8")
        line = len(counters) + 1
        with pytest.raises(RecordingFormatError, match="strictly increasing") as err:
            load_recording(path)
        assert err.value.line_number == line and f"line {line}" in str(err.value)

    @pytest.mark.parametrize("counter", [0, -5])
    def test_op_counter_before_op_one_names_its_line(self, tmp_path, counter):
        """Ops are numbered from 1: such a point could never fire."""
        path = tmp_path / "rec.jsonl"
        path.write_text('{"seed": 1}\n' + json.dumps(
            {"op_counter": counter, "op": "+", "value_hex": fpbits.hex_bits(NAN),
             "trace_fp": "0" * 16}) + "\n", encoding="utf-8")
        with pytest.raises(RecordingFormatError, match="op_counter must be >= 1") as err:
            load_recording(path)
        assert err.value.line_number == 2 and "line 2" in str(err.value)

    @pytest.mark.parametrize("bad", [0, 3, -1, "2", 2.0, True, None, [2]])
    def test_bad_arity_names_its_line(self, tmp_path, bad):
        point = {"op_counter": 1, "op": "-", "arity": 2, "value_hex": fpbits.hex_bits(NAN),
                 "trace_fp": "0" * 16}
        good = json.dumps(point)
        point.update(op_counter=9, arity=bad)
        path = tmp_path / "rec.jsonl"
        path.write_text('{"seed": 1}\n' + good + "\n" + json.dumps(point) + "\n",
                        encoding="utf-8")
        with pytest.raises(RecordingFormatError, match="arity must be 1 or 2") as err:
            load_recording(path)
        assert err.value.line_number == 3 and "line 3" in str(err.value)

    def test_arity_is_saved_after_the_op_and_compared(self, tmp_path):
        """A fuzzed point keeps its op's arity; a point made without one saves
        no arity key and loads back without one."""
        inj = Injector.fuzz(InjectionConfig(odds=1, n_inject=2))
        inj.decide(OpIdentity("-", 1), _thunk())
        inj.decide(OP, _thunk())
        inj.recording.points.append(RecordedInjection(3, "*", NAN, "0" * 16))
        path = tmp_path / "rec.jsonl"
        save_recording(inj.recording, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert [list(line) for line in lines] == [
            ["op_counter", "op", "arity", "value_hex", "trace_fp"]] * 2 + [
            ["op_counter", "op", "value_hex", "trace_fp"]]
        assert [line.get("arity") for line in lines] == [1, 2, None]
        loaded = load_recording(path)
        assert loaded == inj.recording
        assert [p.arity for p in loaded.points] == [1, 2, None]
        assert RecordedInjection(1, "-", NAN, "0" * 16, 1) != RecordedInjection(1, "-", NAN,
                                                                                "0" * 16)

    def test_point_compared_with_another_type_is_not_implemented(self):
        point = RecordedInjection(1, "+", NAN, "0" * 16)
        assert point.__eq__(point._key()) is NotImplemented
        assert point != point._key() and point != 1

    def test_nan_value_survives_by_bits(self, tmp_path):
        payload_nan = fpbits.nan_with_payload(0x77)
        rec = InjectionRecording(seed=0, points=[
            RecordedInjection(1, "+", payload_nan, "0" * 16)])
        path = tmp_path / "rec.jsonl"
        save_recording(rec, path)
        loaded = load_recording(path)
        assert fpbits.nan_payload(loaded.points[0].value) == 0x77


class TestReplay:
    def test_fires_exactly_at_recorded_counter(self):
        rec = InjectionRecording(seed=0, points=[
            RecordedInjection(17, "+", NAN, trace_fingerprint(TRACE))])
        inj = Injector.replay(rec)
        fired = [i for i in range(1, 31) if inj.decide(OP, _thunk()) is not None]
        assert fired == [17]
        assert inj.unconsumed_points() == []

    def test_empty_recording_injects_nothing(self):
        inj = Injector.replay(InjectionRecording(seed=0))
        assert not any(inj.decide(OP, _thunk()) is not None for _ in range(30))

    def test_fingerprint_mismatch_warns_and_injects(self):
        rec = InjectionRecording(seed=0, points=[
            RecordedInjection(2, "+", NAN, trace_fingerprint(TRACE))])
        inj = Injector.replay(rec)
        assert inj.decide(OP, _thunk(OTHER_TRACE)) is None
        with pytest.warns(ReplayDivergenceWarning):
            value = inj.decide(OP, _thunk(OTHER_TRACE))
        assert math.isnan(value)
        assert len(inj.divergences) == 1

    @pytest.mark.parametrize("counters", [(5, 5), (9, 5), (3, 7, 7), (3, 8, 7)])
    def test_points_must_be_strictly_increasing(self, counters):
        """The rule load_recording enforces; a duplicate point would otherwise
        collapse into one, and one out of order would never fire."""
        rec = InjectionRecording(seed=0, points=[
            RecordedInjection(n, "+", NAN, "x" * 16) for n in counters])
        with pytest.raises(ValueError, match="strictly increasing"):
            Injector.replay(rec)

    @pytest.mark.parametrize("counters", [(0,), (-5, 3), (0, 1)])
    def test_points_must_come_at_op_one_or_later(self, counters):
        """Ops are numbered from 1, so a point before op 1 could never fire."""
        rec = InjectionRecording(seed=0, points=[
            RecordedInjection(n, "+", NAN, "x" * 16) for n in counters])
        with pytest.raises(ValueError, match="must be >= 1"):
            Injector.replay(rec)

    def test_op_name_mismatch_warns_and_injects(self):
        """The fingerprint matches, the op name does not: one divergence, and
        the recorded value is still injected."""
        rec = InjectionRecording(seed=0, points=[
            RecordedInjection(1, "*", NAN, trace_fingerprint(TRACE))])
        inj = Injector.replay(rec)
        with pytest.warns(ReplayDivergenceWarning):
            value = inj.decide(OP, _thunk())
        assert math.isnan(value)
        assert inj.divergences == [
            "replay divergence at op 1: recorded op '*', current '+'; injecting anyway"]

    def test_op_name_and_fingerprint_mismatch_are_two_divergences(self):
        rec = InjectionRecording(seed=0, points=[
            RecordedInjection(1, "*", NAN, trace_fingerprint(TRACE))])
        inj = Injector.replay(rec)
        with pytest.warns(ReplayDivergenceWarning):
            inj.decide(OP, _thunk(OTHER_TRACE))
        assert inj.divergences == [
            "replay divergence at op 1: recorded op '*', current '+'; injecting anyway",
            f"replay divergence at op 1: recorded trace {trace_fingerprint(TRACE)}, "
            f"current {trace_fingerprint(OTHER_TRACE)}; injecting anyway"]

    def test_unconsumed_points_reported(self):
        rec = InjectionRecording(seed=0, points=[
            RecordedInjection(5, "+", NAN, "x" * 16),
            RecordedInjection(9, "+", NAN, "x" * 16)])
        inj = Injector.replay(rec)
        for _ in range(3):
            inj.decide(OP, _thunk())
        pending = inj.unconsumed_points()
        assert [p.op_counter for p in pending] == [5, 9]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 20), st.integers(0, 10))
def test_replay_matches_fuzz_decisions(seed, odds, n_inject):
    """Replaying a fuzz run's recording injects at exactly the same ops."""
    fuzz = Injector.fuzz(InjectionConfig(odds=odds, n_inject=n_inject, seed=seed))
    fuzz_hits = [i for i in range(1, 101)
                 if fuzz.decide(OP, _thunk()) is not None]
    replay = Injector.replay(fuzz.recording)
    replay_hits = [i for i in range(1, 101)
                   if replay.decide(OP, _thunk()) is not None]
    assert fuzz_hits == replay_hits
    assert replay.unconsumed_points() == []
