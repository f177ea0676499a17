"""Call-stack context for events: a deterministic explicit-scope provider and a
native interpreter-stack provider.

Traces are tuples of Frames, innermost frame first. The explicit provider is a
pure function of its scope stack, which makes logs byte-stable across
platforms; the native provider is best-effort and drops every frame whose
file lies under SKIP_PREFIX, this package's own directory. Neither provider
takes an option.

Explicit scopes are context-local, like the current session: a provider keeps
its trace in a ContextVar that only a `with scope(...)` block sets and resets.
A new thread starts with no scopes, and an asyncio task starts from its
creator's, so concurrent tasks never see each other's frames.

The native provider memoizes per call site. A code object and an instruction
offset fix a frame's function, file and line, so each provider keeps a table
from (code id, offset) to the Frame it maps to, or None for a skipped frame of
this package. A hit returns the stored Frame, the same value a fresh walk
would build. The table holds its code objects, checks identity on every hit,
and is cleared when it outgrows SITE_TABLE_LIMIT, so code made at run time by
exec or compile cannot grow it without bound.
"""

from __future__ import annotations

import contextvars
import os
import sys
from typing import NamedTuple


class Frame(NamedTuple):
    function: str
    file: str
    line: int


StackTrace = tuple  # tuple[Frame, ...], innermost first

EMPTY_TRACE: StackTrace = ()
SENTINEL_FRAME = Frame("<unknown>", "<unknown>", 1)


class _Scope:
    """One `with` block of an explicit scope: entering pushes its frame onto
    the context's trace, leaving resets it. It can be entered only once."""

    __slots__ = ("_trace", "_frame", "_token")

    def __init__(self, trace, frame):
        self._trace, self._frame, self._token = trace, frame, None

    def __enter__(self):
        if self._token is not None:
            raise RuntimeError("a scope can be entered only once")
        self._token = self._trace.set((self._frame,) + self._trace.get())

    def __exit__(self, *exc_info):
        self._trace.reset(self._token)


class ExplicitContextProvider:
    """Scope stack maintained by instrumented code; one stack per context."""

    def __init__(self):
        self._trace = contextvars.ContextVar("fpx_scopes", default=EMPTY_TRACE)

    def scope(self, function: str, file: str = "<scope>", line: int = 1):
        return _Scope(self._trace, Frame(function, file, line))

    def capture(self) -> StackTrace:
        return self._trace.get()


SITE_TABLE_LIMIT = 4096
SKIP_PREFIX = os.path.dirname(os.path.abspath(__file__))    # this package's frames


class NativeTraceProvider:
    """Map the live interpreter stack to Frames, dropping this package's own frames."""

    def __init__(self):
        self._sites = {}    # (id(code), f_lasti) -> (code, Frame or None if skipped)

    def capture(self) -> StackTrace:
        try:
            sites = self._sites
            frame = sys._getframe(1)
            frames = []
            while frame is not None:
                code = frame.f_code
                key = (id(code), frame.f_lasti)
                site = sites.get(key)
                if site is None or site[0] is not code:
                    path = code.co_filename
                    if path.startswith(SKIP_PREFIX):
                        site = (code, None)
                    else:
                        site = (code, Frame(code.co_name, path, frame.f_lineno))
                    if len(sites) >= SITE_TABLE_LIMIT:
                        sites.clear()
                    sites[key] = site
                if site[1] is not None:
                    frames.append(site[1])
                frame = frame.f_back
            return tuple(frames) if frames else (SENTINEL_FRAME,)
        except Exception:
            return (SENTINEL_FRAME,)


def trace_fingerprint(trace: StackTrace) -> str:
    """Stable 64-bit hex digest of a trace; used to spot replay divergence.
    Only fuzz and replay take one, so hashlib loads at the first."""
    import hashlib

    text = "\n".join(f"{f.function}|{f.file}|{f.line}" for f in trace)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
