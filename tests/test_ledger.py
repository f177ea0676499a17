"""Ledger behavior: bounds, streams, serialization, human rendering."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpx import fpbits
from fpx.classify import EventKind, OpIdentity, ValueClass
from fpx.injector import RecordingFormatError
from fpx.ledger import (ExceptionEvent, FormatError, Ledger, LedgerConfig,
                        LogFormatError, event_from_json, event_to_json,
                        parse_log, read_json_lines, render_human)
from fpx.stackgraph import GraphFormatError
from fpx.traces import Frame

NAN = float("nan")
INF = float("inf")

OP_SUB = OpIdentity("-", 2)
TRACE = (Frame("momentum_u!", "SW/rhs.jl", 246),
         Frame("rhs!", "SW/rhs.jl", 14),
         Frame("run_model", "SW/run_model.jl", 37))


def _record(ledger, kind=EventKind.GEN, value_class=ValueClass.NAN,
            operands=(-INF, -INF), result=NAN, trace=TRACE):
    return ledger.record(kind, value_class, OP_SUB, operands, result, trace=trace)


class TestRecord:
    def test_accepts_within_bounds(self):
        ledger = Ledger(LedgerConfig(max_logs=10))
        assert _record(ledger) is True
        assert ledger.counts()[EventKind.GEN] == 1

    def test_rejects_disabled_kind(self):
        cfg = LedgerConfig(log_kinds=frozenset({EventKind.GEN, EventKind.KILL}))
        ledger = Ledger(cfg)
        assert _record(ledger, kind=EventKind.PROP) is False
        assert ledger.events() == []

    def test_rejects_at_bound(self):
        ledger = Ledger(LedgerConfig(max_logs=10))
        for _ in range(10):
            assert _record(ledger, kind=EventKind.KILL)
        assert _record(ledger, kind=EventKind.KILL) is False
        assert ledger.counts()[EventKind.KILL] == 10

    def test_max_logs_zero_stores_nothing(self, tmp_path):
        ledger = Ledger(LedgerConfig(max_logs=0))
        assert _record(ledger) is False
        paths = ledger.flush(output_dir=tmp_path)
        assert all(p.read_bytes() == b"" for p in paths.values())

    def test_bound_is_per_kind(self):
        ledger = Ledger(LedgerConfig(max_logs=1))
        assert _record(ledger, kind=EventKind.GEN)
        assert _record(ledger, kind=EventKind.PROP)
        assert _record(ledger, kind=EventKind.KILL)
        assert _record(ledger, kind=EventKind.GEN) is False

    def test_exclude_stacktrace(self):
        cfg = LedgerConfig(exclude_stacktrace=frozenset({EventKind.GEN}))
        ledger = Ledger(cfg)
        _record(ledger)
        _record(ledger, kind=EventKind.KILL, result=2.0, operands=(NAN, 2.0))
        gen, kill = ledger.events()
        assert gen.trace == ()
        assert kill.trace == TRACE

    def test_lazy_capture_thunk(self):
        calls = []

        def thunk():
            calls.append(1)
            return TRACE

        cfg = LedgerConfig(log_kinds=frozenset({EventKind.KILL}),
                           exclude_stacktrace=frozenset({EventKind.KILL}))
        ledger = Ledger(cfg)
        ledger.record(EventKind.GEN, ValueClass.NAN, OP_SUB, (1.0,), NAN, trace=thunk)
        ledger.record(EventKind.KILL, ValueClass.NAN, OP_SUB, (NAN,), 1.0, trace=thunk)
        assert calls == []  # rejected or trace-excluded: never captured
        ledger2 = Ledger()
        ledger2.record(EventKind.GEN, ValueClass.NAN, OP_SUB, (1.0,), NAN, trace=thunk)
        assert calls == [1]

    def test_seq_strictly_increases_across_kinds(self):
        ledger = Ledger()
        _record(ledger, kind=EventKind.GEN)
        _record(ledger, kind=EventKind.KILL, operands=(NAN, 1.0), result=1.0)
        _record(ledger, kind=EventKind.PROP, operands=(NAN, 1.0), result=NAN)
        seqs = [e.seq for e in ledger.events()]
        assert seqs == sorted(seqs) and len(set(seqs)) == 3

    def test_stream_separation(self):
        ledger = Ledger()
        _record(ledger, kind=EventKind.GEN)
        _record(ledger, kind=EventKind.PROP)
        for kind in EventKind:
            assert all(e.kind is kind for e in ledger.events(kind=kind))

    def test_concurrent_records_lose_nothing(self):
        ledger = Ledger()

        def worker():
            for _ in range(200):
                _record(ledger)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = ledger.events()
        assert len(events) == 800
        assert len({e.seq for e in events}) == 800


class TestFlush:
    def test_counts_per_file(self, tmp_path):
        ledger = Ledger()
        _record(ledger, kind=EventKind.GEN)
        _record(ledger, kind=EventKind.GEN)
        _record(ledger, kind=EventKind.KILL, operands=(NAN, 1.0), result=1.0)
        paths = ledger.flush(tmp_path)
        assert len(parse_log(paths[EventKind.GEN])) == 2
        assert len(parse_log(paths[EventKind.PROP])) == 0
        assert len(parse_log(paths[EventKind.KILL])) == 1

    def test_empty_ledger_writes_three_empty_files(self, tmp_path):
        paths = Ledger().flush(tmp_path)
        assert sorted(p.name for p in paths.values()) == [
            "gen.jsonl", "kill.jsonl", "prop.jsonl"]
        assert all(p.read_bytes() == b"" for p in paths.values())

    def test_flush_idempotent(self, tmp_path):
        ledger = Ledger()
        _record(ledger)
        first = {k: p.read_bytes() for k, p in ledger.flush(tmp_path).items()}
        second = {k: p.read_bytes() for k, p in ledger.flush(tmp_path).items()}
        assert first == second


class TestRenderHuman:
    def test_log_excerpt_block_layout(self):
        event = ExceptionEvent(1, EventKind.GEN, ValueClass.NAN, OP_SUB,
                               (-INF, -INF), NAN, trace=TRACE)
        block = render_human(event).splitlines()
        assert block[0] == "-([-Inf, -Inf])"
        assert block[1] == "momentum_u!  SW/rhs.jl:246"
        assert block[-1] == "run_model  SW/run_model.jl:37"

    def test_comparison_header(self):
        event = ExceptionEvent(1, EventKind.KILL, ValueClass.NAN,
                               OpIdentity("<", 2), (NAN, 3.0e6), False)
        assert render_human(event).splitlines()[0] == "<([NaN, 3.0e6])"

    def test_empty_trace_is_header_only(self):
        event = ExceptionEvent(1, EventKind.GEN, ValueClass.NAN, OP_SUB,
                               (-INF, -INF), NAN)
        assert render_human(event) == "-([-Inf, -Inf])"


_scalars = st.one_of(
    st.booleans(),
    st.integers(0, 2**64 - 1).map(lambda b: fpbits.from_bits(b, 64)),
    st.integers(0, 2**32 - 1).map(lambda b: fpbits.from_bits(b, 32)),
    st.integers(0, 2**16 - 1).map(lambda b: fpbits.from_bits(b, 16)),
)

_floats = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: fpbits.from_bits(b, 64)),
    st.sampled_from([0.0, -0.0, INF, -INF]),
)

_frames = st.builds(
    Frame,
    st.text("abcdefg_!", min_size=1, max_size=8),
    st.text("abcxyz/._", min_size=1, max_size=12),
    st.integers(1, 9999),
)

_events = st.builds(
    ExceptionEvent,
    seq=st.integers(1, 10**6),
    kind=st.sampled_from(list(EventKind)),
    value_class=st.sampled_from(list(ValueClass)),
    op=st.builds(OpIdentity, st.sampled_from(["+", "-", "*", "max", "<"]),
                 st.sampled_from([1, 2])),
    operands=st.lists(_floats, min_size=1, max_size=3).map(tuple),
    result=_scalars,
    injected=st.booleans(),
    trace=st.lists(_frames, max_size=4).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(_events)
def test_event_json_roundtrip(event):
    assert event_from_json(event_to_json(event)) == event


def test_parse_log_roundtrip(tmp_path):
    ledger = Ledger()
    _record(ledger, kind=EventKind.GEN)
    _record(ledger, kind=EventKind.GEN,
            operands=(fpbits.nan_with_payload(0x123), 1.0), result=NAN)
    paths = ledger.flush(tmp_path)
    parsed = parse_log(paths[EventKind.GEN])
    assert parsed == ledger.events(kind=EventKind.GEN)
    assert fpbits.nan_payload(parsed[1].operands[0]) == 0x123


def test_parse_log_names_bad_line(tmp_path):
    path = tmp_path / "gen.jsonl"
    good = '{"seq": 1, "kind": "gen", "class": "nan", "op": "-", "arity": 2, ' \
           '"operands": [], "result": true, "injected": false, "trace": []}\n'
    path.write_text(good + good + "{garbage\n", encoding="utf-8")
    with pytest.raises(LogFormatError) as err:
        parse_log(path)
    assert err.value.line_number == 3
    assert "line 3" in str(err.value)


GOOD_LINE = ('{"seq": 1, "kind": "gen", "class": "nan", "op": "-", "arity": 2, '
             '"operands": [], "result": true, "injected": false, "trace": []}')


@pytest.mark.parametrize("field, bad", [
    ("seq", '"x"'), ("seq", "1.0"), ("seq", "true"),
    ("arity", '"2"'), ("arity", "false"),
    ("injected", "5"), ("injected", '"yes"'),
    ("op", "5"),
    ("result", '{"dec": "1.0", "hex": 5}'),
    ("trace", '[{"fn": "f", "file": "a.py", "line": "9"}]'),
    ("trace", '[{"fn": "f", "file": "a.py", "line": true}]'),
    ("trace", '[{"fn": "f", "file": "a.py", "line": 9.0}]'),
    ("trace", '[{"fn": 5, "file": "a.py", "line": 9}]'),
    ("trace", '[{"fn": "f", "file": null, "line": 9}]'),
])
def test_parse_log_rejects_ill_typed_field(tmp_path, field, bad):
    """A field of the wrong JSON type is a numbered LogFormatError, not an
    event that carries a string seq or a non-bool injected flag."""
    obj = json.loads(GOOD_LINE)
    obj[field] = json.loads(bad)
    path = tmp_path / "gen.jsonl"
    path.write_text(GOOD_LINE + "\n" + json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(LogFormatError) as err:
        parse_log(path)
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)


class TestReadJsonLines:
    def test_skips_blank_lines_and_numbers_from_one(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('\n{"a": 1}\n  \n{"b": [2]}\n', encoding="utf-8")
        assert list(read_json_lines(path)) == [(2, {"a": 1}), (4, {"b": [2]})]

    @pytest.mark.parametrize("line, message", [
        ("{oops", "not valid JSON"), ("[1, 2]", "JSON object"), ("7", "JSON object"),
    ])
    def test_bad_line_raises_the_given_error(self, tmp_path, line, message):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(RecordingFormatError, match=message) as err:
            list(read_json_lines(path, RecordingFormatError))
        assert err.value.line_number == 2
        assert str(err.value).startswith("line 2: ")


def test_every_format_error_shares_one_base():
    for cls in (LogFormatError, RecordingFormatError, GraphFormatError):
        assert issubclass(cls, FormatError) and issubclass(cls, ValueError)
    assert str(FormatError("whole file")) == "whole file"
    assert FormatError("whole file").line_number is None
    assert str(LogFormatError("bad", 4)) == "line 4: bad"


def test_negative_max_logs_rejected():
    with pytest.raises(ValueError, match="max_logs"):
        LedgerConfig(max_logs=-1)
    assert LedgerConfig(max_logs=0).max_logs == 0


def test_parse_log_ignores_unknown_fields(tmp_path):
    ledger = Ledger()
    _record(ledger)
    path = ledger.flush(tmp_path)[EventKind.GEN]
    obj = json.loads(path.read_text())
    obj["future_field"] = {"nested": 1}
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    assert parse_log(path) == ledger.events(kind=EventKind.GEN)
