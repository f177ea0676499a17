"""Event records, logging configuration, and serialization.

Events accumulate in one in-memory list as rows, plain tuples of the fields
after the seq, each seq its row's 1-based position; events() builds
ExceptionEvents from the rows, and the encoder reads a seq and a row, so a
record builds no object. The rows flush to one file per kind: gen.jsonl /
prop.jsonl / kill.jsonl. Tracked operations record into the ledger of the
current session, which a `use_session` block selects, passing its trace
provider's capture. LedgerConfig sets a per-kind cap and the kinds to log;
every stored event keeps its captured trace, and every rejected one is
counted by kind and class, its trace never captured.
The canonical line format dual-encodes every float as a decimal rendering plus
an authoritative hex bit pattern, so NaN payloads and signed zeros round-trip
exactly. One codec serves flush and parse_log; its caches live for one call.
The encoder keeps one JSON fragment per op (keyed by the op object), trace and
scalar (keyed by exact type and bit pattern, never by value); the decoder one
object per op, trace and hex string, so events parsed from one file share
immutable trace tuples and scalars. Events that differ only in seq encode
once per call: a repeat is its seq head and the first one's encoded tail.
flush encodes the rows in one pass and writes each line to its kind's file
as it encodes it, so it never holds a stream's text. A row of one or two
exact float operands and an exact float result keys its scalars with one
struct pack of their bits; any other row keys each scalar by its type and
bits.
The encoder's tail table and the reader's key table are cleared when they
outgrow LINE_TABLE_LIMIT. A debugger-friendly human rendering (op header
line, then one frame per line) is derived from the same records.
The line format lives here, and so does the one log reader, _scan, over a
log's runs of whole lines of about _CHUNK characters; _runs reads them from
a file one at a time, for parse_log, `fpx cstg` and `fpx diff` alike. One
C-level _LINE.findall per run splits each line into its canonical seq head
and its tail, the text that decides every other field, or gives a line
without such a head whole. A table keyed by (tail, whole line) decodes each
distinct key once per call, a tail as a JSON object of its own: a top-level
seq key there sets its lines' seq, and where it has none each line's head
does. parse_log builds each line's event from its key's fields;
_line_traces, which `fpx cstg` and `fpx diff` read a log with, takes each
line's trace from its key's fields and builds no events. A run's new keys
decode in the order they first occur, so the first that fails names the
run's first bad line, whose one decode then gives its error and number.
FormatError and the JSON-lines reader here serve every fpx file format. Every
reader of a file opens it through _utf8, which states the one error rule for
all of them: a file that is not UTF-8 raises the reader's own FormatError
naming its first bad line, which the error path alone finds by reading the
file's bytes again, and that error outranks any other a reader meets first,
so a reader that fails reads the rest of its file before it reports.
"""

from __future__ import annotations

import io
import itertools
import json
import re
import struct
import threading
from collections import Counter, deque
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

from . import fpbits
from .classify import EventKind, OpIdentity, ValueClass
from .fpbits import _pack_double
from .traces import Frame, StackTrace

ALL_KINDS = frozenset(EventKind)
FILE_BY_KIND = {kind: f"{kind.value}.jsonl" for kind in EventKind}


class FormatError(ValueError):
    """A malformed log, recording, graph or trace file; line_number is 1-based, or None."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


class LogFormatError(FormatError):
    """A log file line that cannot be parsed."""


def _json_object(line, line_number, error):
    """The JSON object one line holds; anything else raises `error` naming the line."""
    try:
        obj = json.loads(line)
    except ValueError as exc:       # a JSONDecodeError, or an int past the digit limit
        raise error(f"not valid JSON: {getattr(exc, 'msg', exc)}", line_number) from exc
    if not isinstance(obj, dict):
        raise error("record must be a JSON object", line_number)
    return obj


@contextmanager
def _utf8(path, error=LogFormatError):
    """path open as UTF-8 text, for the block's reads, and the one place
    that decides which error a reader of a file raises. When the block
    raises anything but a UnicodeDecodeError, the rest of the file is read
    through _runs before that error is raised again, so a later line that is
    not UTF-8 outranks it, as if the file had been read whole first. A
    UnicodeDecodeError is `error` naming the first line that is not UTF-8,
    found by reading the file's bytes again, line by line, numbered as a
    text file's lines are."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            try:
                yield fh
            except Exception as exc:
                if not isinstance(exc, UnicodeDecodeError):
                    deque(_runs(fh), 0)
                raise
        except UnicodeDecodeError as exc:
            with open(path, "rb") as binary:
                lines = chain.from_iterable(raw.splitlines() for raw in binary)  # "\r" ends one
                for line_number, line in enumerate(lines, 1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as bad:
                        raise error(f"not UTF-8 text: {bad}", line_number) from exc
            raise error(f"not UTF-8 text: {exc}") from exc


def read_json_lines(path, error=FormatError):
    """(line_number, object) per non-blank line of a JSON-lines file; a line
    that is not a JSON object, or not UTF-8, raises `error` naming it."""
    with _utf8(path, error) as fh:
        for line_number, line in enumerate(fh, 1):
            if line.strip():
                yield line_number, _json_object(line, line_number, error)


@dataclass(frozen=True)
class LedgerConfig:
    max_logs: int | None = None                      # per-kind bound; None = unbounded
    log_kinds: frozenset = ALL_KINDS

    def __post_init__(self):
        object.__setattr__(self, "log_kinds", frozenset(self.log_kinds))
        if not all(isinstance(k, EventKind) for k in self.log_kinds):   # a bare str: letters
            raise ValueError("log_kinds must be a collection of EventKind members")
        if self.max_logs is not None and (type(self.max_logs) is not int or self.max_logs < 0):
            raise ValueError("max_logs must be None or an integer >= 0")


def _scalar_key(x):
    return type(x) is bool, fpbits.width_of(x), fpbits.to_bits(x)


@dataclass(eq=False, slots=True)
class ExceptionEvent:
    """One gen/prop/kill occurrence, bit-exact in its operands and result."""

    seq: int
    kind: EventKind
    value_class: ValueClass
    op: OpIdentity
    operands: tuple
    result: object                 # scalar, or bool for comparisons
    injected: bool
    trace: StackTrace

    def _key(self):
        return (self.seq, self.kind, self.value_class, self.op,
                tuple(map(_scalar_key, self.operands)), _scalar_key(self.result),
                self.injected, tuple(self.trace))

    def __eq__(self, other):
        if not isinstance(other, ExceptionEvent):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Ledger:
    """Thread-safe event rows in seq order. A row is an event's fields after
    its seq, a plain tuple, and its seq is its 1-based position. Rows are
    kept in memory; events() builds ExceptionEvents from them, and
    flush(output_dir) writes them out. An event is stored without a lock:
    each kept kind numbers the events offered to it with an itertools.count,
    and one numbered below the cap is appended to the rows; a count's next()
    and a list's append are atomic in CPython, so threads sharing a ledger
    store exactly max_logs events per kind, at seqs with no gap. Only a
    rejected event takes the lock, to count it by kind and class."""

    def __init__(self, config: LedgerConfig | None = None):
        self.config = cfg = config or LedgerConfig()
        self._rows = []     # (kind, value_class, op, operands, result, injected, trace)
        self._offered = {kind: itertools.count().__next__ for kind in cfg.log_kinds}
        self._cap = float("inf") if cfg.max_logs is None else cfg.max_logs
        self._dropped = {}
        self._lock = threading.Lock()

    def record(self, kind, value_class, op, operands, result, injected, capture) -> bool:
        """Append one event; returns whether it was accepted. An event that
        `max_logs` or `log_kinds` rejects is only counted, in `dropped`.

        `capture` is a trace provider's zero-argument `capture`; it is called
        only once the event is known to be stored. A `capture` that raises
        propagates, and its event is neither stored nor counted as dropped,
        but it has spent its number: its kind stores one event fewer before
        the cap. A comparison's `result` is a Python bool.
        """
        offered = self._offered.get(kind)
        if offered is not None and offered() < self._cap:
            self._rows.append((kind, value_class, op, tuple(operands), result, injected,
                               capture()))
            return True
        with self._lock:
            key = kind, value_class
            self._dropped[key] = self._dropped.get(key, 0) + 1
        return False

    def _stored(self):
        """The rows stored so far, read without copying the list: rows are
        only appended, so the first len() of them never change."""
        return islice(self._rows, len(self._rows))

    def dropped(self) -> dict:
        """Events the caps and filters rejected: (kind, value class) -> count."""
        with self._lock:
            return dict(self._dropped)

    def events(self, kind=None) -> list:
        """Stored events, of one EventKind or all, in seq order: new objects
        on each call, so a caller that changes one changes no row."""
        if kind is not None and kind not in ALL_KINDS:
            raise KeyError(kind)
        return [ExceptionEvent(seq, *row) for seq, row in enumerate(self._stored(), 1)
                if kind is None or row[0] is kind]

    def counts(self) -> dict:
        """Stored events per EventKind, read off the rows."""
        stored = Counter(row[0] for row in self._stored())
        return {kind: stored[kind] for kind in EventKind}

    def flush(self, output_dir) -> dict:
        """Write the three jsonl files and return their paths, all three
        closed. Each file is opened once and each line written as the encoder
        returns it, so no stream's text is held. A flush rewrites from
        scratch, so it is idempotent; one that raises part-way, on a full disk
        say, can leave partial files."""
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        encode = _encoder()
        paths = {kind: out / filename for kind, filename in FILE_BY_KIND.items()}
        with ExitStack() as files:
            writes = {kind: files.enter_context(open(path, "w", encoding="utf-8")).write
                      for kind, path in paths.items()}
            for seq, row in enumerate(self._stored(), 1):
                writes[row[0]](encode(seq, *row))
        return paths


_dumps = json.JSONEncoder(separators=(", ", ": ")).encode
# A line is its seq head then its tail, the rest of the record.
_HEAD = '{"seq": %d'
_TAIL = (', "kind": "%s", "class": "%s", %s, "operands": [%s], '
         '"result": %s, "injected": %s, "trace": %s}\n')
_KINDS = {k.value: k for k in EventKind}
_CLASSES = {c.value: c for c in ValueClass}
LINE_TABLE_LIMIT = 1024     # entries of a per-call line table before it is cleared
# By operand count: the one pack that keys the scalars of a row of float operands and result.
_PACKS = (None, struct.Struct("<2d").pack, struct.Struct("<3d").pack)


def _scalar_code(x):
    """What tells scalars apart in a line: a float's packed bytes, any other's
    type and bits, so -0.0, NaN payloads and widths stay apart."""
    return _pack_double(x) if type(x) is float else (type(x), fpbits.to_bits(x))


def _encoder():
    """The line encoder of one call, over an event's fields: seq, then a
    ledger row. Events that differ only in seq share one encoded tail, so a
    repeat costs its key, one dict lookup and the seq head. A row of one or
    two float operands and a float result keys its scalars with one pack;
    any other row with one _scalar_code per scalar."""
    ops, traces, scalars, tails = {}, {}, {}, {}

    def scalar(x):
        code = _scalar_code(x)
        fragment = scalars.get(code)
        if fragment is None:
            fragment = scalars[code] = _dumps(
                x if type(x) is bool else
                {"dec": fpbits.format_dec(x), "hex": fpbits.hex_bits(x)})
        return fragment

    def encode(seq, kind, value_class, op, operands, result, injected, trace) -> str:
        n = len(operands)
        if 0 < n < 3 and type(operands[0]) is type(operands[-1]) is type(result) is float:
            codes = _PACKS[n](*operands, result)
        else:
            codes = (*map(_scalar_code, operands), _scalar_code(result))
        key = (kind, value_class, id(op), injected, trace, codes)
        tail = tails.get(key)
        if tail is None:
            op_text = ops.get(id(op))   # rows and events hold their op, so its id is not reused
            if op_text is None:
                op_text = ops[id(op)] = _dumps({"op": op.name, "arity": op.arity})[1:-1]
            if trace not in traces:
                traces[trace] = _dumps(
                    [{"fn": f.function, "file": f.file, "line": f.line} for f in trace])
            if len(tails) >= LINE_TABLE_LIMIT:
                tails.clear()
            tail = tails[key] = _TAIL % (kind._value_, value_class._value_, op_text,
                                         ", ".join(map(scalar, operands)), scalar(result),
                                         "true" if injected else "false", traces[trace])
        return _HEAD % seq + tail
    return encode


def event_to_line(e: ExceptionEvent) -> str:
    return _encoder()(e.seq, e.kind, e.value_class, e.op, e.operands, e.result,
                      e.injected, e.trace)


def _decoder():
    """The record decoder of one call: a record's seq and its row, the fields
    after the seq as a Ledger holds them. A trace key holds each line's type,
    so a 9.0 or a true never reuses the Frames of a 9."""
    ops, traces, scalars = {}, {}, {}

    def scalar(obj):
        if obj is True or obj is False:
            return obj
        hexed = obj["hex"]
        if hexed not in scalars:
            scalars[hexed] = fpbits.from_hex_bits(hexed)
        return scalars[hexed]

    def decode(obj: dict, line_number: int | None = None) -> tuple:
        try:
            seq, name, arity, injected = obj["seq"], obj["op"], obj["arity"], obj["injected"]
            operands, frames = obj["operands"], obj["trace"]
            kind, value_class = _KINDS.get(obj["kind"]), _CLASSES.get(obj["class"])
            if (type(seq) is not int or type(arity) is not int or type(name) is not str
                    or type(injected) is not bool or type(operands) is not list
                    or type(frames) is not list or kind is None or value_class is None):
                raise LogFormatError(
                    "seq and arity must be integers, op a string, injected a boolean, operands "
                    "and trace arrays, kind gen/prop/kill and class nan/inf", line_number)
            key = tuple((f["fn"], f["file"], f["line"], type(f["line"])) for f in frames)
            if key not in traces:
                if not all(type(fn) is str and type(file) is str and t is int
                           for fn, file, _, t in key):
                    raise LogFormatError("a trace frame needs a string fn and file and "
                                         "an integer line", line_number)
                traces[key] = tuple(Frame(fn, file, n) for fn, file, n, _ in key)
            if (name, arity) not in ops:
                ops[name, arity] = OpIdentity(name, arity)
            return seq, (kind, value_class, ops[name, arity], tuple(map(scalar, operands)),
                         scalar(obj["result"]), injected, traces[key])
        except LogFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise LogFormatError(f"bad event record: {exc!r}", line_number) from exc
    return decode


# One line of a log and its "\n", as one match. A line that opens with a canonical
# head, the one `_HEAD` writes for a seq >= 1 within any int digit limit, gives its
# seq digits and its tail, the rest of the line from the comma on; any other
# line, a blank one too, gives its whole text. findall gives "" for a group that
# did not take part, and one more, empty, match at the end of a text.
_LINE = re.compile(r'\{"seq": ([1-9][0-9]{0,17})(,.*)\n?|(.*)\n?')
_KEY = itemgetter(1, 2)     # a line's key: (tail, "") or, with no canonical head, ("", line)
_CHUNK = 1 << 16     # characters of a log one _LINE scan takes, up to the next line end


def _runs(fh):
    """The one run reader of a log: the rest of fh's text in runs of whole
    lines, each but the last of at least _CHUNK characters, so a reader holds
    one run of the file at a time."""
    return iter(lambda: fh.read(_CHUNK) + fh.readline(), "")


def _decode_key(decode, tail, line):
    """The fields of the lines with one _KEY, as (seq, row), a row as a Ledger
    holds it: seq is None where each line's own head sets it. A blank line has
    none. A tail is decoded as an object of its own, "{" and the members after
    its comma, as one decode of the whole line reads it: a top-level seq key of
    its own sets the line's seq, as JSON's last key does, and an ill-typed one
    fails in decode. So does the empty object a tail of no members gives,
    whose line is not JSON, for want of a kind."""
    if not (tail or line.strip()):
        return None
    obj = _json_object(line or "{" + tail[1:], None, LogFormatError)
    own = line or "seq" in obj
    seq, row = decode(obj if own else dict(obj, seq=1))
    return seq if own else None, row


def _scan(runs):
    """The one log reader, over a log's text in runs of whole lines: yields,
    per run, its _LINE.findall, its lines' keys in order, and the call's key
    table, which then maps each key to its _decode_key fields. A key is
    decoded once per call, until the table outgrows LINE_TABLE_LIMIT and is
    cleared. A run's new keys are decoded in the order they first occur, so
    the first key that fails first occurs on the run's first bad line: a
    decode of that one line, taken from the run as io.StringIO gives a text
    file's lines, raises its error and number, every key of the runs before
    decoded."""
    decode, table = _decoder(), {}
    first = 1       # the number of the run's first line
    for run in runs:
        if len(table) >= LINE_TABLE_LIMIT:
            table.clear()
        lines = _LINE.findall(run)
        keys = list(map(_KEY, lines))
        try:
            for key in dict.fromkeys(keys):
                if key not in table:
                    table[key] = _decode_key(decode, *key)
        except LogFormatError:
            n = keys.index(key)
            line = next(islice(io.StringIO(run), n, None))
            decode(_json_object(line, first + n, LogFormatError), first + n)
            raise
        yield lines, keys, table
        first += len(lines) - 1


def parse_log(path) -> list:
    """Read one jsonl event stream back, bit-exactly. Unknown fields are ignored.
    The file is read by _runs, so it is never held whole; each line is one
    event, built from its key's fields. A file that is not UTF-8 raises
    LogFormatError naming its first bad line."""
    with _utf8(path) as fh:
        return [ExceptionEvent(int(match[0]) if fields[0] is None else fields[0], *fields[1])
                for lines, keys, table in _scan(_runs(fh))
                for match, fields in zip(lines, map(table.__getitem__, keys)) if fields]


def _line_traces(runs, value_class=None):
    """The traces of the events parse_log gives for a log read in runs of
    whole lines, or of those of one ValueClass, with no event built: _runs
    of an open file, as `fpx cstg` and `fpx diff` stream a log, or a whole
    text as one run. Yields, per run, an iterable of its kept events' traces
    in line order, each distinct key decoded once. The next run is read only
    once the caller has used up the one before, so no more than one run of
    the file is held."""
    for _, keys, table in _scan(runs):
        traces = {key: (f[1][-1],) if (f := table[key]) and value_class in (None, f[1][1])
                  else () for key in dict.fromkeys(keys)}
        yield chain.from_iterable(map(traces.__getitem__, keys))


def render_human(e: ExceptionEvent) -> str:
    """Log-excerpt style block: `op([args])` header, then `function  file:line` rows."""
    header = f"{e.op.name}([{', '.join(fpbits.format_dec(x) for x in e.operands)}])"
    return "\n".join([header, *(f"{f.function}  {f.file}:{f.line}" for f in e.trace)])
