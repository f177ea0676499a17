"""Event records, logging configuration, and serialization.

Events accumulate in three in-memory streams (gen/prop/kill) and flush to
gen.jsonl / prop.jsonl / kill.jsonl. Tracked operations record into the ledger
of the current session, which a `use_session` block selects, passing its trace
provider's capture. LedgerConfig sets a per-kind cap and the kinds to log;
every stored event keeps its captured trace, and every rejected one is counted
by kind and class, its trace never captured. The canonical line format
dual-encodes every float as a decimal rendering plus an authoritative hex bit
pattern, so NaN payloads and signed zeros round-trip exactly. One codec serves
flush and parse_log; its caches live for one call. The encoder keeps one JSON
fragment per op (keyed by the op object), trace and scalar (keyed by exact
type and bit pattern, never by value); the decoder one object per op, trace
and hex string, so events parsed from one file share immutable trace tuples
and scalars. A debugger-friendly human rendering (op header line, then one
frame per line) is derived from the same records. FormatError and the
JSON-lines reader here serve every fpx file format.
"""

from __future__ import annotations

import json
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fpbits
from .classify import EventKind, OpIdentity, ValueClass
from .traces import EMPTY_TRACE, Frame, StackTrace

ALL_KINDS = frozenset(EventKind)
FILE_BY_KIND = {
    EventKind.GEN: "gen.jsonl",
    EventKind.PROP: "prop.jsonl",
    EventKind.KILL: "kill.jsonl",
}


class FormatError(ValueError):
    """A malformed log, recording, graph or trace file; line_number is 1-based, or None."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


class LogFormatError(FormatError):
    """A log file line that cannot be parsed."""


_JSON_SPACE = " \t\n\r"
_scan_once = json.JSONDecoder().scan_once


def _loads(line):
    """json.loads(line) by the C scanner; json.loads redoes a line it fails on."""
    try:
        obj, end = _scan_once(line, len(line) - len(line.lstrip(_JSON_SPACE)))
        if not line[end:].strip(_JSON_SPACE):
            return obj
    except (StopIteration, ValueError):
        pass
    return json.loads(line)


def read_json_lines(path, error=FormatError):
    """(line_number, object) per non-blank line of a JSON-lines file; a line
    that is not a JSON object raises `error` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = _loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"not valid JSON: {exc.msg}", line_number) from exc
            if not isinstance(obj, dict):
                raise error("record must be a JSON object", line_number)
            yield line_number, obj


@dataclass(frozen=True)
class LedgerConfig:
    max_logs: int | None = None                      # per-kind bound; None = unbounded
    log_kinds: frozenset = ALL_KINDS

    def __post_init__(self):
        object.__setattr__(self, "log_kinds", frozenset(self.log_kinds))
        if self.max_logs is not None and (type(self.max_logs) is not int or self.max_logs < 0):
            raise ValueError("max_logs must be None or an integer >= 0")


def _scalar_key(x):
    return isinstance(x, (bool, np.bool_)), fpbits.width_of(x), fpbits.to_bits(x)


@dataclass(eq=False, slots=True)
class ExceptionEvent:
    """One gen/prop/kill occurrence, bit-exact in its operands and result."""

    seq: int
    kind: EventKind
    value_class: ValueClass
    op: OpIdentity
    operands: tuple
    result: object                 # scalar, or bool for comparisons
    injected: bool = False
    trace: StackTrace = EMPTY_TRACE

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
    """Thread-safe per-kind event streams with a global sequence counter.
    Events are kept in memory; flush(output_dir) writes them out."""

    def __init__(self, config: LedgerConfig | None = None):
        self.config = cfg = config or LedgerConfig()
        self._streams = {kind: [] for kind in EventKind}
        self._kept = {kind: self._streams[kind] for kind in cfg.log_kinds}
        self._cap = float("inf") if cfg.max_logs is None else cfg.max_logs
        self._dropped = {}
        self._seq = 0
        self._lock = threading.Lock()

    def record(self, kind, value_class, op, operands, result, injected, capture) -> bool:
        """Append one event; returns whether it was accepted. An event that
        `max_logs` or `log_kinds` rejects is only counted, in `dropped`.

        `capture` is a trace provider's zero-argument `capture`; it is called
        only once the event is known to be stored. A comparison's `result` is
        a Python bool.
        """
        with self._lock:
            stream = self._kept.get(kind)
            if stream is None or len(stream) >= self._cap:
                key = kind, value_class
                self._dropped[key] = self._dropped.get(key, 0) + 1
                return False
            self._seq += 1
            stream.append(ExceptionEvent(self._seq, kind, value_class, op, tuple(operands),
                                         result, injected, capture()))
        return True

    def dropped(self) -> dict:
        """Events the caps and filters rejected: (kind, value class) -> count."""
        with self._lock:
            return dict(self._dropped)

    def events(self, kind=None) -> list:
        """Stored events, of one kind or all, in seq order."""
        with self._lock:
            streams = self._streams.values() if kind is None else [self._streams[kind]]
            selected = [e for s in streams for e in s]
        selected.sort(key=lambda e: e.seq)
        return selected

    def counts(self) -> dict:
        with self._lock:
            return {kind: len(stream) for kind, stream in self._streams.items()}

    def flush(self, output_dir) -> dict:
        """Write the three jsonl files; rewrites from scratch, so it is idempotent."""
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        with self._lock:
            snapshot = {kind: list(stream) for kind, stream in self._streams.items()}
        encode = _encoder()
        paths = {kind: out / filename for kind, filename in FILE_BY_KIND.items()}
        for kind, path in paths.items():
            path.write_text("".join(map(encode, snapshot[kind])), encoding="utf-8")
        return paths


_dumps = json.JSONEncoder(separators=(", ", ": ")).encode
_LINE = ('{"seq": %d, "kind": "%s", "class": "%s", %s, "operands": [%s], '
         '"result": %s, "injected": %s, "trace": %s}\n')
_KINDS = {k.value: k for k in EventKind}
_CLASSES = {c.value: c for c in ValueClass}
_pack_double = struct.Struct("<d").pack


def _encoder():
    """The line encoder of one call; -0.0, NaN payloads and widths stay apart."""
    ops, traces, scalars = {}, {}, {}

    def scalar(x):
        # a float is keyed by its packed bytes, any other type by type and bits
        key = _pack_double(x) if type(x) is float else (type(x), fpbits.to_bits(x))
        fragment = scalars.get(key)
        if fragment is None:
            fragment = scalars[key] = _dumps(
                bool(x) if isinstance(x, (bool, np.bool_)) else
                {"dec": fpbits.format_dec(x), "hex": fpbits.hex_bits(x)})
        return fragment

    def encode(e: ExceptionEvent) -> str:
        op = ops.get(id(e.op))      # events hold their op, so its id is not reused
        if op is None:
            op = ops[id(e.op)] = _dumps({"op": e.op.name, "arity": e.op.arity})[1:-1]
        if e.trace not in traces:
            traces[e.trace] = _dumps(
                [{"fn": f.function, "file": f.file, "line": f.line} for f in e.trace])
        return _LINE % (e.seq, e.kind._value_, e.value_class._value_, op,
                        ", ".join(map(scalar, e.operands)), scalar(e.result),
                        "true" if e.injected else "false", traces[e.trace])
    return encode


def event_to_line(e: ExceptionEvent) -> str:
    return _encoder()(e)


def _decoder():
    """The record decoder of one call; a trace key holds each line's type, so a
    9.0 or a true never reuses the Frames of a 9."""
    ops, traces, scalars = {}, {}, {}

    def scalar(obj):
        if obj is True or obj is False:
            return obj
        hexed = obj["hex"]
        if hexed not in scalars:
            scalars[hexed] = fpbits.from_hex_bits(hexed)
        return scalars[hexed]

    def decode(obj: dict, line_number: int | None = None) -> ExceptionEvent:
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
            return ExceptionEvent(seq, kind, value_class, ops[name, arity],
                                  tuple(map(scalar, operands)),
                                  scalar(obj["result"]), injected, traces[key])
        except LogFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise LogFormatError(f"bad event record: {exc!r}", line_number) from exc
    return decode


def parse_log(path) -> list:
    """Read one jsonl event stream back, bit-exactly. Unknown fields are ignored."""
    decode = _decoder()
    return [decode(obj, n) for n, obj in read_json_lines(path, LogFormatError)]


def render_human(e: ExceptionEvent) -> str:
    """Log-excerpt style block: `op([args])` header, then `function  file:line` rows."""
    header = f"{e.op.name}([{', '.join(fpbits.format_dec(x) for x in e.operands)}])"
    return "\n".join([header, *(f"{f.function}  {f.file}:{f.line}" for f in e.trace)])
