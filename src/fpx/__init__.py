"""Floating-point exception flow tracking.

Tracked scalar types classify every arithmetic event in an exceptional
value's lifetime (gen, prop, kill), log those events with call-stack context,
and can fuzz code by injecting NaN/Inf results with deterministic replay.
A companion stack-graph toolkit, fpx.stackgraph, coalesces the logged traces
into weighted digraphs, diffs them, and emits DOT; fpx.demos holds the demo
programs. `import fpx` loads neither, only the tracker.
"""

from .classify import (EventKind, OpIdentity, ValueClass, is_exceptional,
                       propagate_payload)
from .injector import (InjectionConfig, InjectionRecording, Injector,
                       InjectorMode, RecordedInjection, RecordingFormatError,
                       ReplayDivergenceWarning, load_recording, save_recording)
from .ledger import (ExceptionEvent, Ledger, LedgerConfig, LogFormatError,
                     parse_log, render_human)
from .session import (TrackerSession, current_session, explicit_session,
                      use_session)
from .traces import (EMPTY_TRACE, ExplicitContextProvider, Frame,
                     NativeTraceProvider, StackTrace, trace_fingerprint)
from .tracked import (TrackedFloat, TrackedFloat16, TrackedFloat32,
                      TrackedFloat64, apply, unwrap)

__version__ = "0.1.0"

__all__ = [
    "EventKind", "OpIdentity", "ValueClass", "is_exceptional", "propagate_payload",
    "TrackedFloat", "TrackedFloat16", "TrackedFloat32", "TrackedFloat64",
    "apply", "unwrap",
    "Frame", "StackTrace", "EMPTY_TRACE", "ExplicitContextProvider",
    "NativeTraceProvider", "trace_fingerprint",
    "ExceptionEvent", "Ledger", "LedgerConfig", "LogFormatError",
    "parse_log", "render_human",
    "InjectionConfig", "InjectionRecording", "Injector", "InjectorMode",
    "RecordedInjection", "RecordingFormatError", "ReplayDivergenceWarning",
    "load_recording", "save_recording",
    "TrackerSession", "current_session", "explicit_session", "use_session",
]
