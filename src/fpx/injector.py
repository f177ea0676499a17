"""Fault injection: decide per intercepted operation whether to replace the
result with an exceptional value, record every injection, and replay a
recording deterministically. An Injector's mode follows from its inputs: a
recording replays it, else a config fuzzes with it, else it is off.

Fuzz draws come from a PCG64 generator seeded by the config; ambient
randomness is never consulted. The draws are one lazy stream: blocks of
DRAW_BLOCK integers, flattened, which yield the same sequence as one draw at
a time. Only a FUZZ injector has the stream, and its generator, with
numpy.random, is built at the first draw, so OFF and REPLAY never build one.
Replay keys on the global intercepted-operation counter and checks the op
name and a stack-trace fingerprint at each injection point, so divergence
from the recorded run is detected rather than silently absorbed. Operations
are numbered by an itertools.count, whose next() is atomic in CPython. An OFF
injector decides as a replay of no points: each decision numbers its op and
pops that number from an empty dict of pending points, both atomic, so OFF
and REPLAY count exactly without the lock, even when threads share the
injector, and only an op at a recorded point takes it. A fuzz decision
numbers its op and draws under the lock.
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


def _draw_blocks(seed: int, odds: int):
    """Blocks of fuzz draws in [1, odds]; the generator is built at the first."""
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        yield rng.integers(1, odds, endpoint=True, size=DRAW_BLOCK).tolist()


class RecordingFormatError(FormatError):
    """A recording file line that cannot be parsed."""


class ReplayDivergenceWarning(UserWarning):
    pass


class InjectorMode(enum.Enum):
    OFF = "off"
    FUZZ = "fuzz"
    REPLAY = "replay"


@dataclass(frozen=True)
class InjectionConfig:
    odds: int = 10                     # inject when a draw from [1, odds] lands on 1
    n_inject: int = 1                  # upper bound on injections per run
    functions: tuple = ()              # substring match on frame function names
    libraries: tuple = ()              # prefix match on frame file paths
    value: float = float("nan")        # a float NaN, +Inf, or -Inf
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
        if type(self.value) is not float or math.isfinite(self.value):
            raise ValueError("injection value must be a float NaN, +Inf, or -Inf")


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
        self.config = cfg = config or InjectionConfig()
        self._ops = itertools.count(1)
        self.count_op = self._ops.__next__     # numbers one operation
        self.injected_so_far = 0
        self.recording = InjectionRecording(seed=cfg.seed)
        points = recording.points if recording is not None else []
        if any(a.op_counter >= b.op_counter for a, b in zip(points, points[1:])):
            raise ValueError("recording op_counter values not strictly increasing")
        if points and points[0].op_counter < 1:
            raise ValueError("recording op_counter values must be >= 1: "
                             "ops are numbered from 1")
        self._pending = {p.op_counter: p for p in points}    # op number -> point
        self.divergences: list[str] = []
        self._draws = (itertools.chain.from_iterable(_draw_blocks(cfg.seed, cfg.odds))
                       if self.mode is InjectorMode.FUZZ else None)
        self._lock = threading.Lock()

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
        operator method only calls count_op. Every other intercepted numeric
        operation calls it once: a clean float64 one from its operator method
        after the twin computed, any other from tracked._finish before the
        computation.
        A FUZZ decision is this one call. It numbers the operation and draws
        under the lock, so op numbers and draws stay in one order; past
        n_inject it stops there. With scope filters it captures the trace and
        tests `functions=` and `libraries=` in one loop over its frames before
        the draw, and an injection fingerprints that same trace.
        OFF and REPLAY number the operation without the lock and pop its
        number from the dict of pending points, which OFF holds empty; only a
        recorded point takes the lock, to check its op name and trace
        fingerprint and count the injection. `capture` is a zero-argument
        trace capture, called at most once per decision: only when scope
        filters, an injection or a recorded point need the trace.
        """
        if self._draws is None:    # OFF or REPLAY: cheaper to test than an enum member
            point = self._pending.pop(self.count_op(), None)
            return None if point is None else self._replay_inject(point, op, capture)
        with self._lock:
            n = self.count_op()
            cfg = self.config
            if self.injected_so_far >= cfg.n_inject:
                return None
            trace = None
            if cfg.functions or cfg.libraries:
                trace = capture()
                # One pass over the trace; each filter drops out once a frame meets it.
                names, libraries = cfg.functions, cfg.libraries
                for frame in trace:
                    for name in names:
                        if name in frame.function:
                            names = ()
                            break
                    if libraries and frame.file.startswith(libraries):
                        libraries = ()
                    if not (names or libraries):
                        break
                else:
                    return None
            # Out-of-scope operations never reach this draw, so they do not
            # consume randomness and scoped runs stay reproducible.
            if next(self._draws) != 1:
                return None
            fp = trace_fingerprint(capture() if trace is None else trace)
            self.recording.points.append(RecordedInjection(n, op.name, cfg.value, fp))
            self.injected_so_far += 1
            return cfg.value

    def _replay_inject(self, point: RecordedInjection, op: OpIdentity, capture) -> float:
        """The point's value, injected even where the op name or the trace
        fingerprint differs from the recording's; each difference is a divergence."""
        with self._lock:
            fp = trace_fingerprint(capture())
            at = f"replay divergence at op {point.op_counter}: recorded"
            messages = []
            if op.name != point.op:
                messages.append(f"{at} op {point.op!r}, current {op.name!r}; injecting anyway")
            if fp != point.trace_fp:
                messages.append(f"{at} trace {point.trace_fp}, current {fp}; injecting anyway")
            for message in messages:
                self.divergences.append(message)
                warnings.warn(message, ReplayDivergenceWarning)
            self.injected_so_far += 1
        return point.value

    def unconsumed_points(self) -> list:
        """Recording points never reached; nonempty after replay means divergence."""
        return list(self._pending.values())


def save_recording(recording: InjectionRecording, path) -> None:
    """Header line with the seed, then one JSON object per injection point."""
    if type(recording.seed) is not int or recording.seed < 0:
        raise ValueError("seed must be an integer >= 0")
    lines = [json.dumps({"seed": recording.seed}) + "\n"]
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
    if line_number != 1 or type(seed := header.get("seed")) is not int or seed < 0:
        raise RecordingFormatError('missing seed header {"seed": <integer >= 0>}', 1)
    recording = InjectionRecording(seed=seed)
    for line_number, obj in rows:
        try:
            point = RecordedInjection(
                op_counter=obj["op_counter"],
                op=obj["op"],
                value=fpbits.from_hex_bits(obj["value_hex"]),
                trace_fp=obj["trace_fp"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RecordingFormatError(f"bad injection point: {exc}", line_number) from exc
        if (type(point.op_counter) is not int or not isinstance(point.op, str)
                or not isinstance(point.trace_fp, str) or type(point.value) is not float
                or math.isfinite(point.value)):
            raise RecordingFormatError("op_counter must be an integer, op and trace_fp "
                                       "strings, value_hex a 64-bit NaN or Inf", line_number)
        if point.op_counter < 1:
            raise RecordingFormatError("op_counter must be >= 1: ops are numbered from 1",
                                       line_number)
        if recording.points and point.op_counter <= recording.points[-1].op_counter:
            raise RecordingFormatError("op_counter not strictly increasing", line_number)
        recording.points.append(point)
    return recording
