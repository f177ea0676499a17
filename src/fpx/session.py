"""The ambient tracking session: ledger + injector + trace provider.

Operator overloads on tracked scalars need a place to send events, so one
session is always current. The current session is context-local: it lives in
a ContextVar that only a `use_session` block sets and resets, as explicit
scopes do. A session installed in one thread (or asyncio task) is not seen by
another, and every new thread starts on the default session. The default
session logs everything, never injects, and captures native stack traces.
Sessions are shareable across threads when passed explicitly; the ledger and
injector synchronize internally.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field

from .injector import Injector
from .ledger import Ledger, LedgerConfig
from .traces import ExplicitContextProvider, NativeTraceProvider


@dataclass
class TrackerSession:
    ledger: Ledger = field(default_factory=Ledger)
    injector: Injector = field(default_factory=Injector.off)
    traces: object = field(default_factory=NativeTraceProvider)


def explicit_session(ledger_config: LedgerConfig | None = None,
                     injector: Injector | None = None) -> TrackerSession:
    """A fresh session with deterministic explicit-scope traces (test/demo substrate)."""
    return TrackerSession(
        ledger=Ledger(ledger_config),
        injector=injector or Injector.off(),
        traces=ExplicitContextProvider(),
    )


_current = contextvars.ContextVar("fpx_session", default=TrackerSession())


def current_session() -> TrackerSession:
    return _current.get()


@contextmanager
def use_session(session: TrackerSession):
    token = _current.set(session)
    try:
        yield session
    finally:
        _current.reset(token)
