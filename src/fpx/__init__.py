"""Floating-point exception flow tracking.

Tracked scalar types classify every arithmetic event in an exceptional
value's lifetime (gen, prop, kill), log those events with call-stack context,
and can fuzz code by injecting NaN/Inf results with deterministic replay.
A companion stack-graph toolkit coalesces the logged traces into weighted
digraphs, diffs them, and emits DOT.
"""

from .classify import (EventKind, OpIdentity, ValueClass, classify,
                       is_exceptional, propagate_payload)
from .demos import demo_loop_kill, demo_max, demo_sim
from .injector import (InjectionConfig, InjectionRecording, Injector,
                       InjectorMode, RecordedInjection, RecordingFormatError,
                       ReplayDivergenceWarning, load_recording, save_recording)
from .ledger import (ExceptionEvent, Ledger, LedgerConfig, LogFormatError,
                     parse_log, render_human)
from .session import (TrackerSession, current_session, explicit_session,
                      use_session)
from .stackgraph import GraphDiff, StackGraph
from .traces import (EMPTY_TRACE, ExplicitContextProvider, Frame,
                     NativeTraceProvider, StackTrace, trace_fingerprint)
from .tracked import (TrackedFloat, TrackedFloat16, TrackedFloat32,
                      TrackedFloat64, apply, atan2, ceil, cos, exp, floor,
                      hypot, log, maximum, minimum, rem, sin, sqrt,
                      supported_operations, tan, unwrap)

__version__ = "0.1.0"

__all__ = [
    "EventKind", "OpIdentity", "ValueClass", "classify", "is_exceptional",
    "propagate_payload",
    "TrackedFloat", "TrackedFloat16", "TrackedFloat32", "TrackedFloat64",
    "apply", "unwrap", "supported_operations",
    "sqrt", "exp", "log", "sin", "cos", "tan", "floor", "ceil",
    "atan2", "hypot", "rem", "minimum", "maximum",
    "Frame", "StackTrace", "EMPTY_TRACE", "ExplicitContextProvider",
    "NativeTraceProvider", "trace_fingerprint",
    "ExceptionEvent", "Ledger", "LedgerConfig", "LogFormatError",
    "parse_log", "render_human",
    "InjectionConfig", "InjectionRecording", "Injector", "InjectorMode",
    "RecordedInjection", "RecordingFormatError", "ReplayDivergenceWarning",
    "load_recording", "save_recording",
    "TrackerSession", "current_session", "explicit_session", "use_session",
    "StackGraph", "GraphDiff",
    "demo_max", "demo_loop_kill", "demo_sim",
]
