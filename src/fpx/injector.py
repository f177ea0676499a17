"""Fault injection: decide per intercepted operation whether to replace the
result with an exceptional value, record every injection, and replay a
recording deterministically. An Injector's mode follows from its inputs: a
recording replays it, else a config fuzzes with it, else it is off.

The injector owns a seeded PCG64 generator; ambient randomness is never
consulted. Fuzz draws come from it in fixed-size blocks, which yield the same
sequence as one draw at a time. Replay keys on the global intercepted-operation
counter and checks a stack-trace fingerprint at each injection point so
divergence from the recorded run is detected rather than silently absorbed.
Operations are numbered by an itertools.count, whose next() is atomic in
CPython, so an OFF injector counts exactly without its lock, even when
threads share it. A replay keeps its points in a dict keyed by op number and
pops each op's number from it, also atomic, so only an op at a recorded point
takes the lock. A fuzz decision numbers its op and draws under the lock.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fpbits
from .classify import OpIdentity
from .ledger import FormatError, read_json_lines
from .traces import trace_fingerprint

DRAW_BLOCK = 256    # fuzz variates drawn per call into the generator


class RecordingFormatError(FormatError):
    """A recording file line that cannot be parsed."""


class ReplayDivergenceWarning(UserWarning):
    pass


class InjectorMode(enum.Enum):
    OFF = "off"
    FUZZ = "fuzz"
    REPLAY = "replay"


_OFF, _REPLAY = InjectorMode.OFF, InjectorMode.REPLAY    # globals read faster than members


@dataclass(frozen=True)
class InjectionConfig:
    odds: int = 10                     # inject when a draw from [1, odds] lands on 1
    n_inject: int = 1                  # upper bound on injections per run
    functions: tuple = ()              # substring match on frame function names
    libraries: tuple = ()              # prefix match on frame file paths
    value: float = float("nan")        # NaN, +Inf, or -Inf
    seed: int = 0

    def __post_init__(self):
        for name in ("functions", "libraries"):
            entries = getattr(self, name)
            if isinstance(entries, str):    # it would split into one-letter filters
                raise ValueError(f"{name} must be a sequence of strings, not a string")
            entries = tuple(entries)
            if not all(isinstance(e, str) and e for e in entries):
                raise ValueError(f"{name} entries must be non-empty strings")
            object.__setattr__(self, name, entries)
        for name, low in (("odds", 1), ("n_inject", 0), ("seed", 0)):
            if type(getattr(self, name)) is not int or getattr(self, name) < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        if math.isfinite(float(self.value)):
            raise ValueError("injection value must be NaN, +Inf, or -Inf")


@dataclass(eq=False)
class RecordedInjection:
    op_counter: int
    op: str
    value: float
    trace_fp: str

    def _key(self):
        return (self.op_counter, self.op, fpbits.to_bits(self.value), self.trace_fp)

    def __eq__(self, other):
        if not isinstance(other, RecordedInjection):
            return NotImplemented
        return self._key() == other._key()


@dataclass
class InjectionRecording:
    seed: int = 0
    points: list = field(default_factory=list)


class Injector:
    """Per-operation injection decisions: OFF, FUZZ with a config, or REPLAY of a recording."""

    def __init__(self, config: InjectionConfig | None = None,
                 recording: InjectionRecording | None = None):
        self.mode = (InjectorMode.REPLAY if recording is not None else
                     InjectorMode.FUZZ if config is not None else InjectorMode.OFF)
        self.config = config or InjectionConfig()
        self._ops = itertools.count(1)
        self.count_op = self._ops.__next__     # numbers one operation
        self.injected_so_far = 0
        self.recording = InjectionRecording(seed=self.config.seed)
        points = recording.points if recording is not None else []
        if any(a.op_counter >= b.op_counter for a, b in zip(points, points[1:])):
            raise ValueError("recording op_counter values not strictly increasing")
        self._pending = {p.op_counter: p for p in points}    # op number -> point
        self.divergences: list[str] = []
        self._rng = np.random.Generator(np.random.PCG64(self.config.seed))
        self._draws = iter(())
        self._lock = threading.Lock()

    @classmethod
    def off(cls) -> "Injector":
        return cls()

    @classmethod
    def fuzz(cls, config: InjectionConfig) -> "Injector":
        return cls(config)

    @classmethod
    def replay(cls, recording: InjectionRecording) -> "Injector":
        return cls(recording=recording)

    @property
    def op_counter(self) -> int:
        """Operations numbered so far: one less than the count's next value."""
        return int(repr(self._ops)[len("count("):-1]) - 1

    def decide(self, op: OpIdentity, capture) -> float | None:
        """Advance the op counter and return an injected value, or None.

        A clean float64 operation under an OFF injector never calls it: its
        operator method only calls count_op. Under FUZZ and REPLAY every
        intercepted numeric operation calls it once, a clean float64 one from
        its operator method after the twin computed, any other from apply
        before the computation. OFF and REPLAY number the operation without
        the lock: a replay pops its number from a dict of the recorded
        points, and takes the lock only at a recorded point, to fingerprint
        it and count the injection. FUZZ numbers the operation and draws
        under the lock, so op numbers and draws stay in one order. `capture`
        is a zero-argument trace capture, called at most once per decision:
        only when scope filters, an injection or a recorded point need the
        trace.
        """
        mode = self.mode
        if mode is _OFF:
            self.count_op()
            return None
        if mode is _REPLAY:
            point = self._pending.pop(self.count_op(), None)
            return None if point is None else self._replay_inject(point, capture)
        with self._lock:
            return self._fuzz_decide(self.count_op(), op, capture)

    def _fuzz_decide(self, n: int, op: OpIdentity, capture) -> float | None:
        cfg = self.config
        if self.injected_so_far >= cfg.n_inject:
            return None
        trace = None
        if cfg.functions or cfg.libraries:
            trace = capture()
            if cfg.functions and not any(
                name in f.function for f in trace for name in cfg.functions
            ):
                return None
            if cfg.libraries and not any(f.file.startswith(cfg.libraries) for f in trace):
                return None
        # Out-of-scope operations never reach this draw, so they do not
        # consume randomness and scoped runs stay reproducible.
        draw = next(self._draws, None)
        if draw is None:
            self._draws = iter(self._rng.integers(
                1, cfg.odds, endpoint=True, size=DRAW_BLOCK).tolist())
            draw = next(self._draws)
        if draw != 1:
            return None
        return self._record_injection(n, op, capture() if trace is None else trace)

    def _record_injection(self, n: int, op: OpIdentity, trace) -> float:
        value = float(self.config.value)
        self.recording.points.append(
            RecordedInjection(n, op.name, value, trace_fingerprint(trace))
        )
        self.injected_so_far += 1
        return value

    def _replay_inject(self, point: RecordedInjection, capture) -> float:
        with self._lock:
            fp = trace_fingerprint(capture())
            if fp != point.trace_fp:
                message = (
                    f"replay divergence at op {point.op_counter}: recorded trace "
                    f"{point.trace_fp}, current {fp}; injecting anyway"
                )
                self.divergences.append(message)
                warnings.warn(message, ReplayDivergenceWarning)
            self.injected_so_far += 1
        return point.value

    def unconsumed_points(self) -> list:
        """Recording points never reached; nonempty after replay means divergence."""
        return list(self._pending.values())


def save_recording(recording: InjectionRecording, path) -> None:
    """Header line with the seed, then one JSON object per injection point."""
    lines = [json.dumps({"seed": recording.seed & (2**64 - 1)}) + "\n"]
    for p in recording.points:
        lines.append(json.dumps({
            "op_counter": p.op_counter,
            "op": p.op,
            "value_hex": fpbits.hex_bits(p.value),
            "trace_fp": p.trace_fp,
        }) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def load_recording(path) -> InjectionRecording:
    rows = read_json_lines(path, RecordingFormatError)
    line_number, header = next(rows, (None, {}))
    if line_number != 1 or type(header.get("seed")) is not int:
        raise RecordingFormatError('missing seed header {"seed": <integer>}', 1)
    recording = InjectionRecording(seed=header["seed"])
    for line_number, obj in rows:
        try:
            point = RecordedInjection(
                op_counter=obj["op_counter"],
                op=obj["op"],
                value=float(fpbits.from_hex_bits(obj["value_hex"])),
                trace_fp=obj["trace_fp"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RecordingFormatError(f"bad injection point: {exc}", line_number) from exc
        if (type(point.op_counter) is not int or not isinstance(point.op, str)
                or not isinstance(point.trace_fp, str) or math.isfinite(point.value)):
            raise RecordingFormatError("op_counter must be an integer, op and trace_fp "
                                       "strings, value_hex a NaN or an Inf", line_number)
        if recording.points and point.op_counter <= recording.points[-1].op_counter:
            raise RecordingFormatError("op_counter not strictly increasing", line_number)
        recording.points.append(point)
    return recording
