"""Fault injection: decide per intercepted operation whether to replace the
result with an exceptional value, record every injection, and replay a
recording deterministically.

The injector owns a seeded PCG64 generator; ambient randomness is never
consulted. Fuzz draws come from it in fixed-size blocks, which yield the same
sequence as one draw at a time. Replay keys on the global intercepted-operation
counter and checks a stack-trace fingerprint at each injection point so
divergence from the recorded run is detected rather than silently absorbed.
"""

from __future__ import annotations

import enum
import json
import math
import threading
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import fpbits
from .classify import OpIdentity
from .traces import trace_fingerprint

DRAW_BLOCK = 256    # fuzz variates drawn per call into the generator


class RecordingFormatError(ValueError):
    """A recording file line that cannot be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


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
    value: float = float("nan")        # NaN, +Inf, or -Inf
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "libraries", tuple(self.libraries))
        if self.odds < 1:
            raise ValueError("odds must be >= 1")
        if self.n_inject < 0:
            raise ValueError("n_inject must be >= 0")
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
    """Per-operation injection decisions in one of three modes: off, fuzz, replay."""

    def __init__(self, mode: InjectorMode, config: InjectionConfig | None = None,
                 recording: InjectionRecording | None = None):
        self.mode = mode
        self.config = config or InjectionConfig()
        self.op_counter = 0
        self.injected_so_far = 0
        self.recording = InjectionRecording(seed=self.config.seed)
        self._pending = deque(recording.points) if recording is not None else deque()
        self.divergences: list[str] = []
        self._rng = np.random.Generator(np.random.PCG64(self.config.seed))
        self._draws = iter(())
        self._lock = threading.Lock()

    @classmethod
    def off(cls) -> "Injector":
        return cls(InjectorMode.OFF)

    @classmethod
    def fuzz(cls, config: InjectionConfig) -> "Injector":
        return cls(InjectorMode.FUZZ, config)

    @classmethod
    def replay(cls, recording: InjectionRecording) -> "Injector":
        return cls(InjectorMode.REPLAY, recording=recording)

    def decide(self, op: OpIdentity, trace_thunk) -> float | None:
        """Advance the op counter and return an injected value, or None.

        Called once per intercepted numeric operation, before the genuine
        computation. `trace_thunk` is a memoized zero-argument capture; it is
        only invoked when scope filters or a recording point require a trace.
        """
        with self._lock:
            self.op_counter += 1
            if self.mode is InjectorMode.OFF:
                return None
            if self.mode is InjectorMode.REPLAY:
                return self._replay_decide(trace_thunk)
            if not self._fuzz_wants_injection(trace_thunk):
                return None
            return self._record_injection(op, trace_thunk())

    def _fuzz_wants_injection(self, trace_thunk) -> bool:
        cfg = self.config
        if self.injected_so_far >= cfg.n_inject:
            return False
        if cfg.functions or cfg.libraries:
            trace = trace_thunk()
            if cfg.functions and not any(
                name in f.function for f in trace for name in cfg.functions
            ):
                return False
            if cfg.libraries and not any(f.file.startswith(cfg.libraries) for f in trace):
                return False
        # Out-of-scope operations never reach this draw, so they do not
        # consume randomness and scoped runs stay reproducible.
        draw = next(self._draws, None)
        if draw is None:
            self._draws = iter(self._rng.integers(
                1, cfg.odds, endpoint=True, size=DRAW_BLOCK).tolist())
            draw = next(self._draws)
        return draw == 1

    def _record_injection(self, op: OpIdentity, trace) -> float:
        value = float(self.config.value)
        self.recording.points.append(
            RecordedInjection(self.op_counter, op.name, value, trace_fingerprint(trace))
        )
        self.injected_so_far += 1
        return value

    def _replay_decide(self, trace_thunk) -> float | None:
        if not self._pending:
            return None
        point = self._pending[0]
        if point.op_counter != self.op_counter:
            return None
        self._pending.popleft()
        fp = trace_fingerprint(trace_thunk())
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
        return list(self._pending)


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
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines or not lines[0].strip():
        raise RecordingFormatError("missing seed header", 1)
    try:
        header = json.loads(lines[0])
        recording = InjectionRecording(seed=int(header["seed"]))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise RecordingFormatError(f"bad seed header: {exc}", 1) from exc
    for line_number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            point = RecordedInjection(
                op_counter=int(obj["op_counter"]),
                op=obj["op"],
                value=float(fpbits.from_hex_bits(obj["value_hex"])),
                trace_fp=obj["trace_fp"],
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise RecordingFormatError(f"bad injection point: {exc}", line_number) from exc
        if recording.points and point.op_counter <= recording.points[-1].op_counter:
            raise RecordingFormatError("op_counter not strictly increasing", line_number)
        recording.points.append(point)
    return recording
