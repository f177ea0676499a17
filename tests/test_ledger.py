"""Ledger behavior: bounds, streams, serialization, human rendering."""

import json
import operator
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_threads, thread_changes
from fpx import fpbits, ledger
from fpx.classify import EventKind, OpIdentity, ValueClass
from fpx.injector import RecordingFormatError
from fpx.ledger import (ExceptionEvent, FormatError, Ledger, LedgerConfig,
                        LogFormatError, event_to_line, parse_log, read_json_lines,
                        render_human)
from fpx.session import TrackerSession, use_session
from fpx.stackgraph import GraphFormatError
from fpx.traces import EMPTY_TRACE, Frame
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
        """An event's seq is its position among stored events of every kind;
        an event the cap rejects takes none."""
        ledger = Ledger(LedgerConfig(max_logs=1))
        assert _record(ledger, kind=EventKind.GEN)
        assert not _record(ledger, kind=EventKind.GEN)
        _record(ledger, kind=EventKind.KILL, operands=(NAN, 1.0), result=1.0)
        _record(ledger, kind=EventKind.PROP, operands=(NAN, 1.0), result=NAN)
        events = ledger.events()
        assert [e.seq for e in events] == [1, 2, 3]
        assert [e.kind for e in events] == [EventKind.GEN, EventKind.KILL, EventKind.PROP]
        assert [e.seq for e in ledger.events(EventKind.KILL)] == [2]

    def test_events_of_one_kind_keep_their_global_seq(self):
        ledger = Ledger()
        for kind in "gen prop gen kill prop gen".split():
            _record(ledger, kind=EventKind(kind))
        assert {kind: [e.seq for e in ledger.events(kind)] for kind in EventKind} == {
            EventKind.GEN: [1, 3, 6], EventKind.PROP: [2, 5], EventKind.KILL: [4]}

    def test_events_are_equal_new_objects_on_each_call(self):
        ledger = Ledger()
        _record(ledger, kind=EventKind.GEN)
        _record(ledger, kind=EventKind.PROP, operands=(NAN, 1.0))
        first, second = ledger.events(), ledger.events()
        assert first == second and len(first) == 2
        assert all(a is not b for a, b in zip(first, second))

    def test_a_changed_event_changes_no_row(self, tmp_path):
        """The ledger keeps rows and builds events from them, so changing a
        returned event changes neither a later events() nor the flushed bytes."""
        ledger = Ledger()
        _record(ledger, kind=EventKind.GEN)
        _record(ledger, kind=EventKind.KILL, operands=(NAN, 1.0), result=1.0)
        before = ledger.events()
        flushed = [p.read_bytes() for p in ledger.flush(tmp_path / "before").values()]
        for e in ledger.events():
            e.seq, e.kind, e.result, e.operands, e.trace = 9, EventKind.PROP, 2.0, (3.0,), ()
        assert ledger.events() == before
        assert [p.read_bytes() for p in ledger.flush(tmp_path / "after").values()] == flushed

    def test_events_of_a_kind_that_is_not_an_event_kind_raises(self):
        ledger = Ledger()
        _record(ledger, kind=EventKind.GEN)
        with pytest.raises(KeyError):
            ledger.events("gen")

    def test_stream_separation(self):
        ledger = Ledger()
        _record(ledger, kind=EventKind.GEN)
        _record(ledger, kind=EventKind.PROP)
        for kind in EventKind:
            assert all(e.kind is kind for e in ledger.events(kind=kind))

    def test_concurrent_records_lose_nothing(self):
        """A seq is a position in the one list, so a lost or doubled append
        shows as a gap, a repeat, or a count that disagrees with the list.
        Each capture yields the GIL, so the threads take turns between
        records."""
        ledger, provider = Ledger(), _SpyProvider(yields=True)

        def worker(kind):
            for _ in range(200):
                ledger.record(kind, ValueClass.NAN, OP_SUB, (-INF, -INF), NAN, False,
                              provider.capture)

        run_threads(worker, (EventKind.GEN, EventKind.PROP, EventKind.KILL, EventKind.GEN))
        assert [e.seq for e in ledger.events()] == list(range(1, 801))
        assert ledger.counts() == {EventKind.GEN: 400, EventKind.PROP: 200, EventKind.KILL: 200}
        # consecutive captures changed thread about 600 times in 800;
        # without the yield, a few times
        assert provider.changes > 200

    def test_capped_concurrent_records_store_exactly_the_cap(self):
        """Four threads offer every kind more events than its cap: each kind
        stores exactly max_logs rows, at seqs with no gap; the rest are
        counted as dropped, and only a stored event captures its trace. Each
        capture yields the GIL, so another thread runs between a record's
        cap test and its append."""
        cap, per_thread = 250, 150
        ledger, provider = Ledger(LedgerConfig(max_logs=cap)), _SpyProvider(yields=True)

        def worker(offset):
            for i in range(per_thread):
                for kind in EventKind:
                    ledger.record(kind, (ValueClass.NAN, ValueClass.INF)[(i + offset) % 2],
                                  OP_SUB, (NAN, 1.0), NAN, False, provider.capture)

        run_threads(worker, range(4))
        assert ledger.counts() == dict.fromkeys(EventKind, cap)
        assert [e.seq for e in ledger.events()] == list(range(1, 3 * cap + 1))
        dropped = ledger.dropped()
        for kind in EventKind:
            assert sum(n for (k, _), n in dropped.items() if k is kind) == 4 * per_thread - cap
        assert provider.captures == 3 * cap
        assert provider.changes > 200      # about 600 times in 750


class _SpyProvider:
    """A trace provider that notes the thread of each capture, by one atomic
    append, so threads sharing it lose no count; with `yields`, each capture
    first lets another thread run."""

    def __init__(self, yields=False):
        self._captured = []
        self._yields = yields

    @property
    def captures(self):
        return len(self._captured)

    @property
    def changes(self):
        """How often consecutive captures came from different threads."""
        return thread_changes(self._captured)

    def capture(self):
        if self._yields:
            time.sleep(0)
        self._captured.append(threading.get_ident())
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

    def test_peak_does_not_grow_with_the_rows(self, tmp_path):
        """Flush writes each line as it encodes it: with ten times the rows of
        repeating tails its tracemalloc peak rises by less than one run."""
        def peak(n):
            table = Ledger()
            for i in range(n):
                _record(table, kind=list(EventKind)[i % 3], operands=(NAN, float(i % 7)))
            tracemalloc.start()
            try:
                table.flush(tmp_path / str(n))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(300)       # once first, so module-level caches are warm
        assert peak(3000) - peak(300) < ledger._CHUNK

    def test_reading_the_rows_copies_no_row_list(self, tmp_path):
        """Flush and counts read the rows in place: on 10^5 rows their
        tracemalloc peaks stay under the 8 B per row a copy of the list
        would take (with a copy, flush peaked at 0.87 MB)."""
        n = 100_000
        table = Ledger()
        for i in range(n):
            _record(table, kind=list(EventKind)[i % 3], operands=(NAN, float(i % 7)))
        for read in (lambda: table.flush(tmp_path), table.counts):
            tracemalloc.start()
            try:
                read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * n / 2
        assert sum(table.counts().values()) == n


class TestRenderHuman:
    def test_log_excerpt_block_layout(self):
        event = ExceptionEvent(1, EventKind.GEN, ValueClass.NAN, OP_SUB,
                               (-INF, -INF), NAN, False, TRACE)
        block = render_human(event).splitlines()
        assert block[0] == "-([-Inf, -Inf])"
        assert block[1] == "momentum_u!  SW/rhs.jl:246"
        assert block[-1] == "run_model  SW/run_model.jl:37"

    def test_comparison_header(self):
        event = ExceptionEvent(1, EventKind.KILL, ValueClass.NAN,
                               OpIdentity("<", 2), (NAN, 3.0e6), False, False, EMPTY_TRACE)
        assert render_human(event).splitlines()[0] == "<([NaN, 3.0e6])"

    def test_empty_trace_is_header_only(self):
        event = ExceptionEvent(1, EventKind.GEN, ValueClass.NAN, OP_SUB,
                               (-INF, -INF), NAN, False, EMPTY_TRACE)
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
    ("operands", '[{"dec": "Inf", "hex": "0x7ff0_00000000000"}]'),
    ("result", '{"dec": "Inf", "hex": "0x7ff000000000000 "}'),
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
    """The reader written with one json.loads per line, read lazily."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"not valid JSON: {exc.msg}", line_number) from exc
            except ValueError as exc:       # an int longer than int() reads
                raise error(f"not valid JSON: {exc}", line_number) from exc
            if not isinstance(obj, dict):
                raise error("record must be a JSON object", line_number)
            yield line_number, obj


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
    '{"a": 1}\n{"b": %s}\n' % ("9" * 5000),          # an int past the digit limit
], ids=["leading-space", "trailing-space", "bom", "garbage", "two-objects",
        "form-feed", "no-break-space", "unterminated", "array", "constants", "long-int"])
def test_read_json_lines_matches_one_json_loads_per_line(tmp_path, text):
    path = tmp_path / "x.jsonl"
    path.write_text(text, encoding="utf-8")
    assert _outcome(read_json_lines, path) == _outcome(_reference_read_json_lines, path)


def _reference_parse_log(path):
    """parse_log written as the reference reader and one record decode per line,
    each line decoded before the next is read."""
    decode, events = ledger._decoder(), []
    for n, obj in _reference_read_json_lines(path, LogFormatError):
        seq, row = decode(obj, n)
        events.append(ExceptionEvent(seq, *row))
    return events


def _reference_scalar(x):
    return x if type(x) is bool else {"dec": fpbits.format_dec(x), "hex": fpbits.hex_bits(x)}


def _reference_line(e):
    """event_to_line written as one json.dumps per event, with no table."""
    return json.dumps({
        "seq": e.seq, "kind": e.kind.value, "class": e.value_class.value, "op": e.op.name,
        "arity": e.op.arity, "operands": list(map(_reference_scalar, e.operands)),
        "result": _reference_scalar(e.result), "injected": e.injected,
        "trace": [{"fn": f.function, "file": f.file, "line": f.line} for f in e.trace],
    }, separators=(", ", ": ")) + "\n"


def _assert_flush_matches_the_reference(table, tmp_path):
    for kind, path in table.flush(tmp_path).items():
        assert path.read_text(encoding="utf-8") == "".join(
            map(_reference_line, table.events(kind=kind)))


def _log_outcome(parse, path):
    try:
        return [e._key() for e in parse(path)]
    except LogFormatError as exc:
        return type(exc), str(exc), exc.line_number


def _seq_line(seq, trace=TRACE, head=None, tail=""):
    """One event line under seq, its head replaced by `head` and `tail` added
    as the last fields, if given."""
    line = event_to_line(ExceptionEvent(seq, EventKind.PROP, ValueClass.NAN, OP_SUB,
                                        (NAN, 1.0), NAN, False, trace))
    if head is not None:
        line = line.replace(f'{{"seq": {seq}', head, 1)
    return line[:-2] + tail + "}\n"


def _seq_lines(seqs, **fields):
    return "".join(_seq_line(n, **fields) for n in seqs)


DUP_SEQ = ', "seq": 9'
ESCAPED_SEQ = ', "s\\u0065q": 9'
ODD_NAMES = (Frame("f", 'a"seq".py', 3), Frame("seq", "seq.py", 4), Frame("g", "qu\\ux.py", 5))


@pytest.mark.parametrize("text", [
    _seq_lines(range(1, 6)) + _seq_line(6, trace=()) + _seq_line(7),
    _seq_line(1, tail=DUP_SEQ) + _seq_line(2, tail=DUP_SEQ) + _seq_line(3, tail=DUP_SEQ),
    _seq_line(1, tail=ESCAPED_SEQ) + _seq_line(2, tail=ESCAPED_SEQ),
    _seq_line(1) + _seq_line(2, tail=DUP_SEQ),
    _seq_line(1) + _seq_line(2, head='{"seq": 007'),
    _seq_line(1) + _seq_line(2, head='{"seq": -1'),
    _seq_line(1) + _seq_line(2, head='{"seq": 1_0'),
    _seq_line(1) + _seq_line(2, head='{"seq": \u0661'),
    _seq_line(1) + _seq_line(2, head='{"seq":1'),
    _seq_line(1) + _seq_line(2, head='{"seq": 1 '),
    _seq_line(1) + _seq_line(2, head='{"seq": 0'),
    _seq_line(1) + _seq_line(2, head='{"seq": ' + "9" * 5000),
    _seq_line(1) + _seq_line(2, head='{"seq": ' + "9" * 19),
    _seq_line(1, head='{ "seq": 1') + _seq_line(2) + _seq_line(3, head=' {"seq": 3'),
    _seq_lines(range(1, 4), trace=ODD_NAMES),
    _seq_lines(range(1, 4))[:-1],
    _seq_lines(range(1, 4)).replace("\n", "\r\n"),
    _seq_line(1) + "\n  \n" + _seq_line(2) + "\t\n" + _seq_line(3),
    "\ufeff" + _seq_lines(range(1, 4)),
    _seq_lines(range(1, 502)) + '{"seq": 502, "kind": \n',
    _seq_line(1) + _seq_line(2).replace('"injected": false', '"injected": 5'),
    _seq_line(1) + _seq_line(2).replace('"op": "-"', '"op": 5'),
    _seq_lines(range(1, 4), tail=', "seq": 1') + _seq_line(4),
    _seq_lines(range(1, 4), tail=', "seq": 2') + _seq_line(4),
    _seq_lines(range(1, 4), tail=', "seq": null') + _seq_line(4),
    _seq_lines(range(1, 200)) + _seq_line(200, tail=', "seq": "x"') + _seq_lines(range(201, 260)),
    _seq_line(1) + _seq_line(2).replace('"injected": false', '"injected": 5') + _seq_line(3)
    + "[1, 2]\n" + _seq_line(5),
    _seq_line(1) + "".join(_seq_line(n).replace('"injected": false', f'"injected": {n}')
                           for n in range(2, 66)),
], ids=["seq-only-repeats", "duplicate-seq-key", "escaped-seq-key", "duplicate-after-seen",
        "leading-zero", "negative", "underscore", "arabic-indic-digit", "no-space",
        "space-before-comma", "zero", "long-int", "past-18-digits", "spaced-heads",
        "seq-in-trace-names", "no-final-newline", "crlf", "blank-lines", "bom",
        "bad-line-after-500-hits", "ill-typed-injected", "ill-typed-op", "seq-1-in-tails",
        "seq-2-in-tails", "seq-null-in-tails", "bad-line-in-second-run", "two-bad-keys",
        "many-bad-keys"])
def test_parse_log_matches_one_decode_per_line(tmp_path, text):
    """Lines that repeat a text after their seq take the fields decoded from
    the first of them; every outcome, events or error, is one decode per line.
    A log is read in runs of about ledger._CHUNK characters; a run with bad
    lines, the second run too, raises at its first."""
    path = tmp_path / "prop.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    assert _log_outcome(parse_log, path) == _log_outcome(_reference_parse_log, path)


def test_a_runs_new_keys_decode_in_first_occurrence_order(tmp_path, monkeypatch):
    """_scan decodes each new key of a run in the order it first occurs in the
    log, whatever the string hash, over repeats, blank lines, a line without
    a canonical head and two runs; so the first key of a run that fails is on
    the run's first bad line."""
    decoded, real = [], ledger._decode_key

    def spy(decode, tail, line):
        if tail or line.strip():
            decoded.append(tail or line)
        return real(decode, tail, line)
    monkeypatch.setattr(ledger, "_decode_key", spy)
    lines = [_seq_line(n, tail=f', "x": {n * 7 % 40}') for n in range(1, 500)]
    lines[3] = " " + lines[3]
    lines.insert(10, "\n")
    text = "".join(lines)
    assert len(text) > ledger._CHUNK
    path = tmp_path / "prop.jsonl"
    path.write_text(text, encoding="utf-8")
    assert len(parse_log(path)) == len(lines) - 1
    keys = [line[:-1] if line.startswith(" ") else line[line.index(","):-1]
            for line in lines if line.strip()]
    assert decoded == list(dict.fromkeys(keys))


def test_events_one_field_apart_are_encoded_apart(tmp_path):
    """Each event differs from the first in one field other than seq, and
    the first repeats between them: flush writes every line as the reference
    encoder does, so no field is missing from the tail table's key."""
    base = (EventKind.PROP, ValueClass.NAN, OP_SUB, (NAN_123, 0.0), NAN_123, False, ONE)
    variants = {0: [EventKind.GEN, EventKind.KILL], 1: [ValueClass.INF],
                2: [OpIdentity("-", 1), OpIdentity("+", 2)],
                3: [(NAN_123, -0.0), (NAN, 0.0), (NAN_123, np.float64(0.0)), (NAN_123,),
                    (NAN_123, 0.0, 0.0), (F32_NAN, np.float32(0.0)), (NAN_123, False)],
                4: [NAN, -NAN_123, np.float64(NAN_123), F32_NAN, False, 0.0], 5: [True],
                6: [ODD, (), (Frame("solo", "one.py", 2),)]}
    table = Ledger()
    for field, values in variants.items():
        for value in values:
            for event in (base, base[:field] + (value,) + base[field + 1:]):
                kind, value_class, op, operands, result, injected, trace = event
                table.record(kind, value_class, op, operands, result, injected, lambda t=trace: t)
    _assert_flush_matches_the_reference(table, tmp_path)


def test_streams_past_the_line_table_limit_match_the_reference(tmp_path):
    """More distinct lines than the per-call line tables hold, each written
    twice, the second pass after the tables were cleared: flush writes what
    the reference encoder does, and parse_log reads what one decode per line
    does."""
    table = Ledger()
    n = ledger.LINE_TABLE_LIMIT + 100
    for _ in range(2):
        for i in range(n):
            _record(table, operands=(-INF, float(i)))
    events = table.events()
    path = table.flush(tmp_path)[EventKind.GEN]
    assert path.read_text(encoding="utf-8") == "".join(map(_reference_line, events))
    assert _log_outcome(parse_log, path) == _log_outcome(_reference_parse_log, path)
    assert parse_log(path) == events and len(events) == 2 * n


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
    for kind, path in paths.items():
        assert path.read_text(encoding="utf-8") == "".join(FLUSH_GOLDEN[path.name])
        assert path.read_bytes().isascii()
        assert "".join(map(_reference_line, ledger.events(kind=kind))) == "".join(
            FLUSH_GOLDEN[path.name])
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
    repeats = tmp_path / "repeats.jsonl"       # lines that differ only in seq
    repeats.write_text(_seq_lines(range(1, 5)), encoding="utf-8")
    first, *rest = parse_log(repeats)
    assert [e.seq for e in rest] == [2, 3, 4]
    assert all(e.trace is first.trace and e.op is first.op for e in rest)


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
    event = ExceptionEvent(1, EventKind.GEN, ValueClass.NAN, OP_SUB, (-INF, -INF), NAN,
                           False, EMPTY_TRACE)
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


NAN_124 = fpbits.nan_with_payload(0x124)
# Rows of float operands and a float result, the rows flush keys with one
# pack, each apart from the one before it only in one operand's or the
# result's NaN payload, NaN sign or zero sign.
ALL_FLOAT_ROWS = [
    ((NAN_123, 0.0), NAN_123), ((NAN_124, 0.0), NAN_123), ((NAN_123, 0.0), NAN_123),
    ((-NAN_123, 0.0), NAN_123), ((NAN_123, 0.0), NAN_123), ((NAN_123, -0.0), NAN_123),
    ((NAN_123, 0.0), NAN_123), ((NAN_123, 0.0), NAN_124), ((NAN_123, 0.0), NAN_123),
    ((NAN_123, 0.0), -NAN_123), ((NAN_123, NAN_124), NAN_123), ((NAN_123, NAN_123), NAN_123),
    ((1.5, INF), 0.0), ((1.5, INF), -0.0), ((1.5, -INF), -0.0), ((-1.5, -INF), -0.0),
    ((NAN_123,), NAN_123), ((NAN_123,), -NAN_123), ((-NAN_123,), -NAN_123),
    ((NAN_124,), -NAN_123), ((-0.0,), INF), ((0.0,), INF), ((0.0,), -INF),
]


def test_all_float_rows_apart_only_in_their_bits_are_encoded_apart(tmp_path):
    """flush writes what the reference encoder does for rows of float
    operands and result that differ only in one scalar's NaN payload, NaN
    sign or zero sign, each after the row it differs from, and parse_log
    reads back their bits."""
    table = Ledger()
    for operands, result in ALL_FLOAT_ROWS * 2:
        table.record(EventKind.PROP, ValueClass.NAN, OP_SUB, operands, result, False,
                     lambda: ONE)
    _assert_flush_matches_the_reference(table, tmp_path)
    assert parse_log(tmp_path / "prop.jsonl") == table.events()


@pytest.mark.parametrize("operands, result", [
    ((1.5, 2.0), 3.0), ((-INF,), NAN), ((np.float64(1.5), 2.0), 3.0),
    ((1.5, np.float64(2.0)), 3.0), ((1.5, 2.0), np.float64(3.0)), ((np.float64(NAN),), NAN),
    ((np.float32(1.5), 2.0), 3.0), ((F16_NAN, F16_SUB), F16_NAN), ((NAN, 1.0), False),
    ((), True), ((1.0, 2.0, 3.0), 4.0), ((1, 2.0), 3.0)])
def test_only_rows_of_exact_floats_take_the_packed_key(monkeypatch, operands, result):
    """A row of one or two exact float operands and an exact float result
    is keyed by one pack; any other row, with a numpy float64 or narrower
    scalar, an int, a bool result, or no or three operands, keys each of
    its scalars with _scalar_code on every line, a repeat too, so its key
    keeps each scalar's type."""
    seen = []
    real = ledger._scalar_code
    monkeypatch.setattr(ledger, "_scalar_code", lambda x: seen.append(x) or real(x))
    encode = ledger._encoder()
    row = (EventKind.PROP, ValueClass.NAN, OP_SUB, operands, result, False, ONE)
    first = encode(1, *row)
    seen.clear()
    assert encode(2, *row) == first.replace('{"seq": 1', '{"seq": 2', 1)
    packed = 0 < len(operands) < 3 and all(type(x) is float for x in (*operands, result))
    expected = [] if packed else [*operands, result]
    assert len(seen) == len(expected) and all(map(operator.is_, seen, expected))
