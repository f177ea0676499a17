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
creator's, so concurrent tasks never see each other's frames. Each provider
builds one Frame per (function, file, line) and hands every later scope of
that site the same one; that table, too, is cleared past SITE_TABLE_LIMIT.
A scope object is still made per `scope(...)` call and enters once.

The native provider memoizes per code object. A code object fixes its
function and file, and an instruction offset in it fixes the line, so each
provider keeps one table from a code's id to (code, None) for a code of this
package, whose frames are skipped with one lookup and no offset read, or to
(code, {offset: Frame}) for any other. A hit is one subscript per table
level, the code's entry and then its site, with no test for a missing one,
and returns the stored Frame, the same value a fresh walk would build. A
KeyError from either subscript leaves the walk for _site, which stores what
is missing and returns the Frame. The table holds its code objects, so
no other live object can share an id it keys while the entry exists. It
counts its codes plus their call sites and is cleared whole when that count
reaches SITE_TABLE_LIMIT, so code made at run time by exec or compile cannot
grow it without bound. A miss stores its entry and counts it under a lock,
so threads sharing a provider lose no count; a hit takes no lock.
"""

from __future__ import annotations

import contextvars
import os
import sys
import threading
from typing import NamedTuple


class Frame(NamedTuple):
    function: str
    file: str
    line: int


StackTrace = tuple  # tuple[Frame, ...], innermost first

EMPTY_TRACE: StackTrace = ()
SENTINEL_FRAME = Frame("<unknown>", "<unknown>", 1)
SITE_TABLE_LIMIT = 4096


class _Scope:
    """One `with` block of an explicit scope: entering pushes its frame onto
    the context's trace, leaving resets it. It can be entered only once. It
    has no __init__, which would cost a Python call per scope:
    ExplicitContextProvider.scope fills its slots."""

    __slots__ = ("_trace", "_pushed", "_token")

    def __enter__(self):
        if self._token is not None:
            raise RuntimeError("a scope can be entered only once")
        trace = self._trace
        self._token = trace.set(self._pushed + trace.get())

    def __exit__(self, exc_type, exc, tb):
        self._trace.reset(self._token)


class ExplicitContextProvider:
    """Scope stack maintained by instrumented code; one stack per context."""

    def __init__(self):
        self._trace = contextvars.ContextVar("fpx_scopes", default=EMPTY_TRACE)
        self._frames = {}   # (function, file, line) -> (Frame,), the tuple a scope pushes

    def scope(self, function: str, file: str = "<scope>", line: int = 1):
        key = (function, file, line)
        pushed = self._frames.get(key)
        if pushed is None:
            if len(self._frames) >= SITE_TABLE_LIMIT:
                self._frames.clear()
            pushed = self._frames[key] = (Frame(function, file, line),)
        scope = _Scope()
        scope._trace, scope._pushed, scope._token = self._trace, pushed, None
        return scope

    def capture(self) -> StackTrace:
        return self._trace.get()


# This package's directory with its trailing os.sep, so that a file beside it
# whose name starts with the package's name keeps its frames.
SKIP_PREFIX = os.path.join(os.path.dirname(os.path.abspath(__file__)), "")


class NativeTraceProvider:
    """Map the live interpreter stack to Frames, dropping this package's own frames."""

    def __init__(self):
        self._codes = {}    # id(code) -> (code, None if skipped, else {f_lasti: Frame})
        self._entries = 0   # codes plus call sites stored, the count SITE_TABLE_LIMIT bounds
        self._lock = threading.Lock()   # taken on a miss only

    def _store(self, table, key, value):
        """Store one entry in the table or in one of its site dicts, first
        clearing the whole table if it is full; returns the value."""
        with self._lock:
            if self._entries >= SITE_TABLE_LIMIT:
                self._codes.clear()
                self._entries = 0
            self._entries += 1
            table[key] = value
        return value

    def _site(self, frame):
        """The miss path of capture: stores the frame's code, its call site
        or both, whichever the table lacks, and returns the site's Frame, or
        None for a skipped code."""
        code = frame.f_code
        entry = self._codes.get(id(code))
        if entry is None:
            entry = self._store(self._codes, id(code), (
                code, None if code.co_filename.startswith(SKIP_PREFIX) else {}))
        sites = entry[1]
        if sites is None:
            return None
        site = sites.get(frame.f_lasti)
        if site is None:
            site = self._store(sites, frame.f_lasti, Frame(
                code.co_name, code.co_filename, frame.f_lineno))
        return site

    def capture(self) -> StackTrace:
        try:
            codes = self._codes
            frame = sys._getframe(1)
            frames = []
            while frame is not None:
                try:
                    sites = codes[id(frame.f_code)][1]
                    if sites is not None:
                        frames.append(sites[frame.f_lasti])
                except KeyError:
                    site = self._site(frame)
                    if site is not None:
                        frames.append(site)
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
