"""Ledger behavior: bounds, streams, serialization, human rendering."""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpx import fpbits
from fpx.classify import EventKind, OpIdentity, ValueClass
from fpx.injector import RecordingFormatError
from fpx.ledger import (ExceptionEvent, FormatError, Ledger, LedgerConfig,
                        LogFormatError, event_to_line, parse_log, read_json_lines,
                        render_human)
from fpx.session import TrackerSession, use_session
from fpx.stackgraph import GraphFormatError
from fpx.traces import Frame
from fpx.tracked import TrackedFloat64

NAN = float("nan")
INF = float("inf")

OP_SUB = OpIdentity("-", 2)
TRACE = (Frame("momentum_u!", "SW/rhs.jl", 246),
         Frame("rhs!", "SW/rhs.jl", 14),
         Frame("run_model", "SW/run_model.jl", 37))


def _record(ledger, kind=EventKind.GEN, value_class=ValueClass.NAN,
            operands=(-INF, -INF), result=NAN, trace=TRACE):
    return ledger.record(kind, value_class, OP_SUB, operands, result, False, lambda: trace)


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

    def test_lazy_capture_thunk(self):
        calls = []

        def thunk():
            calls.append(1)
            return TRACE

        cfg = LedgerConfig(max_logs=0, log_kinds=frozenset({EventKind.KILL}))
        ledger = Ledger(cfg)
        ledger.record(EventKind.GEN, ValueClass.NAN, OP_SUB, (1.0,), NAN, False, thunk)
        ledger.record(EventKind.KILL, ValueClass.NAN, OP_SUB, (NAN,), 1.0, False, thunk)
        assert calls == []  # rejected by kind or by the cap: never captured
        ledger2 = Ledger()
        ledger2.record(EventKind.GEN, ValueClass.NAN, OP_SUB, (1.0,), NAN, False, thunk)
        assert calls == [1]
        assert ledger2.events()[0].trace == TRACE

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


class _SpyProvider:
    """A trace provider that counts its captures."""

    def __init__(self):
        self.captures = 0

    def capture(self):
        self.captures += 1
        return TRACE


def _nan_and_inf_chain(config):
    """Five NaN props, four NaN kills and three Inf props, under config."""
    provider = _SpyProvider()
    session = TrackerSession(ledger=Ledger(config), traces=provider)
    with use_session(session):
        x, inf = TrackedFloat64(NAN), TrackedFloat64(INF)
        for _ in range(5):
            x = x + 1.0
        for _ in range(4):
            assert not x < 1.0
        for _ in range(3):
            inf = inf * 2.0
    return session.ledger, provider


class TestDropped:
    def test_capped_chain_counts_each_drop(self):
        ledger, provider = _nan_and_inf_chain(LedgerConfig(max_logs=2))
        assert ledger.dropped() == {(EventKind.PROP, ValueClass.NAN): 3,
                                    (EventKind.KILL, ValueClass.NAN): 2,
                                    (EventKind.PROP, ValueClass.INF): 3}
        assert ledger.counts() == {EventKind.GEN: 0, EventKind.PROP: 2, EventKind.KILL: 2}
        assert provider.captures == 4

    def test_excluded_kind_is_counted(self):
        ledger, provider = _nan_and_inf_chain(
            LedgerConfig(log_kinds=frozenset({EventKind.KILL})))
        assert ledger.dropped() == {(EventKind.PROP, ValueClass.NAN): 5,
                                    (EventKind.PROP, ValueClass.INF): 3}
        assert ledger.counts()[EventKind.KILL] == 4 == provider.captures

    def test_dropped_event_never_captures_a_trace(self):
        ledger, provider = _nan_and_inf_chain(LedgerConfig(max_logs=0))
        assert sum(ledger.dropped().values()) == 12
        assert provider.captures == 0 and ledger.events() == []

    def test_nothing_dropped_reads_empty(self):
        ledger, provider = _nan_and_inf_chain(LedgerConfig())
        assert ledger.dropped() == {} and len(ledger.events()) == 12 == provider.captures


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
@given(event=_events)
def test_event_json_roundtrip(tmp_path_factory, event):
    path = tmp_path_factory.mktemp("roundtrip") / "gen.jsonl"
    path.write_text(event_to_line(event), encoding="utf-8")
    assert parse_log(path) == [event]


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
    ("kind", '"x"'), ("kind", '["gen"]'), ("class", '"zz"'),
    ("operands", "{}"), ("operands", '""'), ("trace", "{}"), ("trace", '""'),
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


def _reference_read_json_lines(path, error):
    """The reader written with one json.loads per line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"not valid JSON: {exc.msg}", line_number) from exc
            if not isinstance(obj, dict):
                raise error("record must be a JSON object", line_number)
            rows.append((line_number, obj))
    return rows


def _outcome(read, path):
    try:
        return repr(list(read(path, RecordingFormatError)))
    except RecordingFormatError as exc:
        return type(exc), str(exc), exc.line_number


@pytest.mark.parametrize("text", [
    '  {"a": 1}\n\t{"b": 2}\n',                  # leading whitespace
    '{"a": 1}  \t\r\n{"b": [2, 3]}   \n',        # trailing whitespace
    '\ufeff{"a": 1}\n{"b": 2}\n',                 # a BOM on line 1
    '{"a": 1}\n{"b": 2}x\n',                       # trailing garbage
    '{"a": 1}\n{"b": 2} {"c": 3}\n',               # a second object
    '{"a": 1}\n{"b": 2}\x0c\n',                    # not JSON whitespace
    '\xa0{"a": 1}\n',                              # nor is a no-break space
    '{"a": 1\n',                                    # unterminated
    ' [1]\n',                                       # not an object
    '{"a": NaN, "b": -Infinity, "c": "\\u00e9", "d": {"e": null}}\n',
], ids=["leading-space", "trailing-space", "bom", "garbage", "two-objects",
        "form-feed", "no-break-space", "unterminated", "array", "constants"])
def test_read_json_lines_matches_one_json_loads_per_line(tmp_path, text):
    path = tmp_path / "x.jsonl"
    path.write_text(text, encoding="utf-8")
    assert _outcome(read_json_lines, path) == _outcome(_reference_read_json_lines, path)


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


# ------------------------------------------------------------------ codec

# Frame names that json.dumps escapes: a quote, a backslash, non-ASCII.
ODD = (Frame('say_"hi"', "C:\\src\\odd.py", 7), Frame("μ_step", "grid/Δ.py", 12))
ONE = (Frame("solo", "one.py", 1),)
NAN_123 = fpbits.nan_with_payload(0x123)
F32_NAN = fpbits.from_bits(0x7FC00123, 32)
F16_NAN = fpbits.nan_with_payload(5, 16)
F32_SUB = fpbits.from_bits(1, 32)
F16_SUB = fpbits.from_bits(1, 16)
# (kind, class, op, operands, result, injected, trace). Traces and scalars
# repeat across events and streams, so the flush hits its caches.
GOLDEN_POOL = [
    (EventKind.GEN, ValueClass.NAN, OpIdentity("-", 2), (INF, INF), NAN, False, ODD),
    (EventKind.PROP, ValueClass.NAN, OpIdentity("*", 2), (NAN_123, 5e-324), NAN_123, False, ONE),
    (EventKind.GEN, ValueClass.INF, OpIdentity("/", 2), (1.5, -0.0), -INF, True, ()),
    (EventKind.KILL, ValueClass.NAN, OpIdentity("<", 2), (NAN_123, 0.0), False, False, ODD),
    (EventKind.PROP, ValueClass.NAN, OpIdentity("*", 2), (F32_NAN, F32_SUB), F32_NAN, False, ONE),
    (EventKind.GEN, ValueClass.INF, OpIdentity("+", 2), (np.float32(3e38), np.float32(3e38)), np.float32(INF), False, ODD),
    (EventKind.PROP, ValueClass.NAN, OpIdentity("-", 1), (F16_NAN,), -F16_NAN, False, ()),
    (EventKind.KILL, ValueClass.INF, OpIdentity(">", 2), (np.float16(-INF), F16_SUB), True, True, ONE),
    (EventKind.PROP, ValueClass.NAN, OpIdentity("*", 2), (NAN_123, 5e-324), NAN_123, False, ONE),
    (EventKind.GEN, ValueClass.NAN, OpIdentity("-", 2), (np.float64(INF), np.float64(INF)), np.float64(NAN), False, ODD),
    (EventKind.KILL, ValueClass.NAN, OpIdentity("<", 2), (np.float32(-0.0), F32_NAN), False, False, ()),
    (EventKind.PROP, ValueClass.INF, OpIdentity("+", 2), (-INF, 1.5), -INF, False, ODD),
    (EventKind.KILL, ValueClass.INF, OpIdentity("<", 2), (np.float32(1.5), np.float32(-INF)), False, False, ODD),
    (EventKind.PROP, ValueClass.INF, OpIdentity("*", 2), (INF, 1.0), INF, False, ONE),
    (EventKind.KILL, ValueClass.NAN, OpIdentity("==", 2), (np.float16(1.0), F16_NAN), False, False, ()),
]

# Written by the uncached `event_to_line` of the encoder this file predates;
# the cached encoder must reproduce every byte.
FLUSH_GOLDEN = {
    "gen.jsonl": (
        '{"seq": 1, "kind": "gen", "class": "nan", "op": "-", "arity": 2, '
        '"operands": [{"dec": "Inf", "hex": "0x7ff0000000000000"}, '
        '{"dec": "Inf", "hex": "0x7ff0000000000000"}], '
        '"result": {"dec": "NaN", "hex": "0x7ff8000000000000"}, '
        '"injected": false, '
        '"trace": [{"fn": "say_\\"hi\\"", "file": "C:\\\\src\\\\odd.py", "line": 7}, '
        '{"fn": "\\u03bc_step", "file": "grid/\\u0394.py", "line": 12}]}\n'
        '{"seq": 3, "kind": "gen", "class": "inf", "op": "/", "arity": 2, '
        '"operands": [{"dec": "1.5", "hex": "0x3ff8000000000000"}, '
        '{"dec": "-0.0", "hex": "0x8000000000000000"}], '
        '"result": {"dec": "-Inf", "hex": "0xfff0000000000000"}, '
        '"injected": true, '
        '"trace": []}\n'
        '{"seq": 6, "kind": "gen", "class": "inf", "op": "+", "arity": 2, '
        '"operands": [{"dec": "3.0e38", "hex": "0x7f61b1e6"}, '
        '{"dec": "3.0e38", "hex": "0x7f61b1e6"}], '
        '"result": {"dec": "Inf", "hex": "0x7f800000"}, '
        '"injected": false, '
        '"trace": [{"fn": "say_\\"hi\\"", "file": "C:\\\\src\\\\odd.py", "line": 7}, '
        '{"fn": "\\u03bc_step", "file": "grid/\\u0394.py", "line": 12}]}\n'
        '{"seq": 10, "kind": "gen", "class": "nan", "op": "-", "arity": 2, '
        '"operands": [{"dec": "Inf", "hex": "0x7ff0000000000000"}, '
        '{"dec": "Inf", "hex": "0x7ff0000000000000"}], '
        '"result": {"dec": "NaN", "hex": "0x7ff8000000000000"}, '
        '"injected": false, '
        '"trace": [{"fn": "say_\\"hi\\"", "file": "C:\\\\src\\\\odd.py", "line": 7}, '
        '{"fn": "\\u03bc_step", "file": "grid/\\u0394.py", "line": 12}]}\n'
    ),
    "prop.jsonl": (
        '{"seq": 2, "kind": "prop", "class": "nan", "op": "*", "arity": 2, '
        '"operands": [{"dec": "NaN", "hex": "0x7ff8000000000123"}, '
        '{"dec": "5.0e-324", "hex": "0x0000000000000001"}], '
        '"result": {"dec": "NaN", "hex": "0x7ff8000000000123"}, '
        '"injected": false, '
        '"trace": [{"fn": "solo", "file": "one.py", "line": 1}]}\n'
        '{"seq": 5, "kind": "prop", "class": "nan", "op": "*", "arity": 2, '
        '"operands": [{"dec": "NaN", "hex": "0x7fc00123"}, '
        '{"dec": "1.0e-45", "hex": "0x00000001"}], '
        '"result": {"dec": "NaN", "hex": "0x7fc00123"}, '
        '"injected": false, '
        '"trace": [{"fn": "solo", "file": "one.py", "line": 1}]}\n'
        '{"seq": 7, "kind": "prop", "class": "nan", "op": "-", "arity": 1, '
        '"operands": [{"dec": "NaN", "hex": "0x7e05"}], '
        '"result": {"dec": "NaN", "hex": "0xfe05"}, '
        '"injected": false, '
        '"trace": []}\n'
        '{"seq": 9, "kind": "prop", "class": "nan", "op": "*", "arity": 2, '
        '"operands": [{"dec": "NaN", "hex": "0x7ff8000000000123"}, '
        '{"dec": "5.0e-324", "hex": "0x0000000000000001"}], '
        '"result": {"dec": "NaN", "hex": "0x7ff8000000000123"}, '
        '"injected": false, '
        '"trace": [{"fn": "solo", "file": "one.py", "line": 1}]}\n'
        '{"seq": 12, "kind": "prop", "class": "inf", "op": "+", "arity": 2, '
        '"operands": [{"dec": "-Inf", "hex": "0xfff0000000000000"}, '
        '{"dec": "1.5", "hex": "0x3ff8000000000000"}], '
        '"result": {"dec": "-Inf", "hex": "0xfff0000000000000"}, '
        '"injected": false, '
        '"trace": [{"fn": "say_\\"hi\\"", "file": "C:\\\\src\\\\odd.py", "line": 7}, '
        '{"fn": "\\u03bc_step", "file": "grid/\\u0394.py", "line": 12}]}\n'
        '{"seq": 14, "kind": "prop", "class": "inf", "op": "*", "arity": 2, '
        '"operands": [{"dec": "Inf", "hex": "0x7ff0000000000000"}, '
        '{"dec": "1.0", "hex": "0x3ff0000000000000"}], '
        '"result": {"dec": "Inf", "hex": "0x7ff0000000000000"}, '
        '"injected": false, '
        '"trace": [{"fn": "solo", "file": "one.py", "line": 1}]}\n'
    ),
    "kill.jsonl": (
        '{"seq": 4, "kind": "kill", "class": "nan", "op": "<", "arity": 2, '
        '"operands": [{"dec": "NaN", "hex": "0x7ff8000000000123"}, '
        '{"dec": "0.0", "hex": "0x0000000000000000"}], '
        '"result": false, '
        '"injected": false, '
        '"trace": [{"fn": "say_\\"hi\\"", "file": "C:\\\\src\\\\odd.py", "line": 7}, '
        '{"fn": "\\u03bc_step", "file": "grid/\\u0394.py", "line": 12}]}\n'
        '{"seq": 8, "kind": "kill", "class": "inf", "op": ">", "arity": 2, '
        '"operands": [{"dec": "-Inf", "hex": "0xfc00"}, '
        '{"dec": "6.0e-8", "hex": "0x0001"}], '
        '"result": true, '
        '"injected": true, '
        '"trace": [{"fn": "solo", "file": "one.py", "line": 1}]}\n'
        '{"seq": 11, "kind": "kill", "class": "nan", "op": "<", "arity": 2, '
        '"operands": [{"dec": "-0.0", "hex": "0x80000000"}, '
        '{"dec": "NaN", "hex": "0x7fc00123"}], '
        '"result": false, '
        '"injected": false, '
        '"trace": []}\n'
        '{"seq": 13, "kind": "kill", "class": "inf", "op": "<", "arity": 2, '
        '"operands": [{"dec": "1.5", "hex": "0x3fc00000"}, '
        '{"dec": "-Inf", "hex": "0xff800000"}], '
        '"result": false, '
        '"injected": false, '
        '"trace": [{"fn": "say_\\"hi\\"", "file": "C:\\\\src\\\\odd.py", "line": 7}, '
        '{"fn": "\\u03bc_step", "file": "grid/\\u0394.py", "line": 12}]}\n'
        '{"seq": 15, "kind": "kill", "class": "nan", "op": "==", "arity": 2, '
        '"operands": [{"dec": "1.0", "hex": "0x3c00"}, '
        '{"dec": "NaN", "hex": "0x7e05"}], '
        '"result": false, '
        '"injected": false, '
        '"trace": []}\n'
    ),
}


def _golden_ledger():
    ledger = Ledger()
    for kind, value_class, op, operands, result, injected, trace in GOLDEN_POOL:
        ledger.record(kind, value_class, op, operands, result, injected, lambda: trace)
    return ledger


def test_flush_bytes_golden(tmp_path):
    ledger = _golden_ledger()
    paths = ledger.flush(tmp_path)
    for path in paths.values():
        assert path.read_text(encoding="utf-8") == "".join(FLUSH_GOLDEN[path.name])
        assert path.read_bytes().isascii()
    assert [event_to_line(e) for e in ledger.events(kind=EventKind.KILL)] == (
        "".join(FLUSH_GOLDEN["kill.jsonl"]).splitlines(keepends=True))
    for kind, path in paths.items():
        assert parse_log(path) == ledger.events(kind=kind)


def test_parsed_events_share_traces_and_scalars(tmp_path):
    path = _golden_ledger().flush(tmp_path)[EventKind.PROP]
    first, _, third, fourth = parse_log(path)[:4]
    assert first.trace is fourth.trace and first.op is fourth.op
    assert first.operands[0] is first.result is fourth.operands[0]
    assert third.trace == ()


def test_parsed_events_hash_like_the_recorded_ones(tmp_path):
    """Events read back hash equal to the originals, NaN payload and -0.0
    operands included, so a set of either finds the other."""
    ledger = _golden_ledger()
    for kind, path in ledger.flush(tmp_path).items():
        recorded, parsed = ledger.events(kind=kind), parse_log(path)
        assert [hash(e) for e in parsed] == [hash(e) for e in recorded]
        assert set(parsed) == set(recorded)
    operands = [x for e in ledger.events() for x in e.operands]
    assert any(fpbits.nan_payload(x) for x in operands)
    assert any(x == 0 and np.signbit(x) for x in operands)


def test_event_compared_with_another_type_is_not_implemented():
    event = ExceptionEvent(1, EventKind.GEN, ValueClass.NAN, OP_SUB, (-INF, -INF), NAN)
    assert event.__eq__(event._key()) is NotImplemented
    assert event != event._key() and event != "gen"


FRAME = '{"fn": "f", "file": "a.py", "line": 9}'
HEX_ONE = '{"dec": "1.0", "hex": "0x3ff0000000000000"}'


@pytest.mark.parametrize("field, good, bad", [
    ("trace", FRAME, '{"fn": "f", "file": "a.py", "line": 9.0}'),
    ("trace", FRAME, '{"fn": "f", "file": "a.py", "line": true}'),
    ("trace", FRAME, '{"fn": "f", "file": "a.py", "line": "9"}'),
    ("trace", FRAME.replace("9", "1"), '{"fn": "f", "file": "a.py", "line": true}'),
    ("operands", HEX_ONE, '{"dec": "1.0", "hex": 5}'),
    ("operands", HEX_ONE, '{"dec": "1.0", "hex": "0x3ff00000000000000"}'),
    ("operands", HEX_ONE, '{"dec": "1.0", "hex": "0x03ff0000000000000"}'),
    ("operands", HEX_ONE, '{"dec": "1.0", "hex": "0x3ff000000000000"}'),
])
def test_repeated_field_of_another_type_is_not_a_cache_hit(tmp_path, field, good, bad):
    """Line 2 repeats line 1's trace frame or operand with a value that is
    equal (or nearly so) but of the wrong type or width: a cache keyed by
    value would hand it line 1's decoded object."""
    def line(value):
        obj = json.loads(GOOD_LINE)
        obj[field] = [json.loads(value)]
        return json.dumps(obj)

    path = tmp_path / "gen.jsonl"
    path.write_text(line(good) + "\n" + line(bad) + "\n", encoding="utf-8")
    with pytest.raises(LogFormatError) as err:
        parse_log(path)
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)

