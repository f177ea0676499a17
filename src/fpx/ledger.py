"""Event records, logging configuration, and serialization.

Events accumulate in three in-memory streams (gen/prop/kill) and flush to
gen.jsonl / prop.jsonl / kill.jsonl. The canonical line format dual-encodes
every float as a decimal rendering plus an authoritative hex bit pattern, so
NaN payloads and signed zeros round-trip exactly. A debugger-friendly human
rendering (op header line, then one frame per line) is derived from the same
records. FormatError and the JSON-lines reader here serve every fpx file format.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
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


def read_json_lines(path, error=FormatError):
    """(line_number, object) per non-blank line of a JSON-lines file; a line
    that is not a JSON object raises `error` naming it."""
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
            yield line_number, obj


@dataclass(frozen=True)
class LedgerConfig:
    max_logs: int | None = None                      # per-kind bound; None = unbounded
    log_kinds: frozenset = ALL_KINDS
    exclude_stacktrace: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "log_kinds", frozenset(self.log_kinds))
        object.__setattr__(self, "exclude_stacktrace", frozenset(self.exclude_stacktrace))
        if self.max_logs is not None and self.max_logs < 0:
            raise ValueError("max_logs must be >= 0")


def _scalar_key(x):
    if isinstance(x, (bool, np.bool_)):
        return ("bool", bool(x))
    return ("float", fpbits.width_of(x), fpbits.to_bits(x))


@dataclass(eq=False)
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
        return (
            self.seq,
            self.kind,
            self.value_class,
            self.op,
            tuple(_scalar_key(x) for x in self.operands),
            _scalar_key(self.result),
            self.injected,
            tuple(self.trace),
        )

    def __eq__(self, other):
        if not isinstance(other, ExceptionEvent):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Ledger:
    """Thread-safe per-kind event streams with a global sequence counter.

    Events are kept in memory; flush(output_dir) writes them out.
    """

    def __init__(self, config: LedgerConfig | None = None):
        self.config = config or LedgerConfig()
        self._streams = {kind: [] for kind in EventKind}
        self._seq = 0
        self._lock = threading.Lock()

    def record(self, kind, value_class, op, operands, result, *,
               injected=False, trace=EMPTY_TRACE) -> bool:
        """Append one event; returns whether it was accepted.

        `trace` may be a StackTrace or a zero-argument capture callable, such
        as a trace provider's `capture`; it is called only once the event is
        known to be stored with its trace.
        """
        cfg = self.config
        with self._lock:
            if kind not in cfg.log_kinds:
                return False
            stream = self._streams[kind]
            if cfg.max_logs is not None and len(stream) >= cfg.max_logs:
                return False
            if kind in cfg.exclude_stacktrace:
                resolved = EMPTY_TRACE
            else:
                resolved = trace() if callable(trace) else tuple(trace)
            self._seq += 1
            event = ExceptionEvent(
                seq=self._seq,
                kind=kind,
                value_class=value_class,
                op=op,
                operands=tuple(operands),
                result=bool(result) if isinstance(result, (bool, np.bool_)) else result,
                injected=injected,
                trace=resolved,
            )
            stream.append(event)
        return True

    def events(self, kind=None, value_class=None) -> list:
        """Stored events, optionally filtered, in seq order."""
        with self._lock:
            if kind is not None:
                selected = list(self._streams[kind])
            else:
                selected = [e for s in self._streams.values() for e in s]
        if value_class is not None:
            selected = [e for e in selected if e.value_class is value_class]
        selected.sort(key=lambda e: e.seq)
        return selected

    def counts(self) -> dict:
        with self._lock:
            return {kind: len(stream) for kind, stream in self._streams.items()}

    def flush(self, output_dir) -> dict:
        """Write the three jsonl files; rewrites from scratch, so it is idempotent."""
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {}
        with self._lock:
            snapshot = {kind: list(stream) for kind, stream in self._streams.items()}
        for kind, filename in FILE_BY_KIND.items():
            path = out / filename
            text = "".join(event_to_line(e) for e in snapshot[kind])
            path.write_text(text, encoding="utf-8")
            paths[kind] = path
        return paths


def _scalar_to_json(x):
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    return {"dec": fpbits.format_dec(x), "hex": fpbits.hex_bits(x)}


def _scalar_from_json(obj):
    return obj if isinstance(obj, bool) else fpbits.from_hex_bits(obj["hex"])


def event_to_json(e: ExceptionEvent) -> dict:
    return {
        "seq": e.seq,
        "kind": e.kind.value,
        "class": e.value_class.value,
        "op": e.op.name,
        "arity": e.op.arity,
        "operands": [_scalar_to_json(x) for x in e.operands],
        "result": _scalar_to_json(e.result),
        "injected": e.injected,
        "trace": [{"fn": f.function, "file": f.file, "line": f.line} for f in e.trace],
    }


def event_to_line(e: ExceptionEvent) -> str:
    return json.dumps(event_to_json(e), separators=(", ", ": ")) + "\n"


def event_from_json(obj: dict, line_number: int | None = None) -> ExceptionEvent:
    try:
        event = ExceptionEvent(
            seq=obj["seq"],
            kind=EventKind(obj["kind"]),
            value_class=ValueClass(obj["class"]),
            op=OpIdentity(obj["op"], obj["arity"]),
            operands=tuple(_scalar_from_json(x) for x in obj["operands"]),
            result=_scalar_from_json(obj["result"]),
            injected=obj["injected"],
            trace=tuple(Frame(f["fn"], f["file"], f["line"]) for f in obj["trace"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise LogFormatError(f"bad event record: {exc!r}", line_number) from exc
    if (type(event.seq) is not int or type(event.op.arity) is not int
            or not isinstance(event.op.name, str) or type(event.injected) is not bool):
        raise LogFormatError(
            "seq and arity must be integers, op a string, injected a boolean", line_number)
    if not all(type(f.function) is str and type(f.file) is str and type(f.line) is int
               for f in event.trace):
        raise LogFormatError(
            "a trace frame needs a string fn and file and an integer line", line_number)
    return event


def parse_log(path) -> list:
    """Read one jsonl event stream back, bit-exactly. Unknown fields are ignored."""
    return [event_from_json(obj, n) for n, obj in read_json_lines(path, LogFormatError)]


def render_human(e: ExceptionEvent) -> str:
    """Log-excerpt style block: `op([args])` header, then `function  file:line` rows."""
    header = f"{e.op.name}([{', '.join(fpbits.format_dec(x) for x in e.operands)}])"
    lines = [header]
    lines.extend(f"{f.function}  {f.file}:{f.line}" for f in e.trace)
    return "\n".join(lines)
