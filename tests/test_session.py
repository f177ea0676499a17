"""The current session is context-local: threads do not see each other's."""

import threading

from conftest import run_threads
from fpx.classify import EventKind, ValueClass
from fpx.session import current_session, explicit_session, use_session
from fpx.tracked import TrackedFloat64

NAN = float("nan")


def test_threads_keep_their_own_sessions():
    default = current_session()
    default_before = len(default.ledger.events())
    sessions = [explicit_session(), explicit_session()]
    # Both threads are inside their use_session before either computes, and
    # neither leaves it before both are done.
    entered = threading.Barrier(2, timeout=10)
    computed = threading.Barrier(2, timeout=10)

    def worker(session):
        with use_session(session):
            entered.wait()
            for _ in range(50):
                TrackedFloat64(NAN) + 1.0
            computed.wait()

    run_threads(worker, sessions)
    for session in sessions:
        events = session.ledger.events()
        assert len(events) == 50
        assert all(e.kind is EventKind.PROP and e.value_class is ValueClass.NAN
                   for e in events)
    assert current_session() is default
    assert len(default.ledger.events()) == default_before


def test_new_thread_starts_on_default_session():
    default = current_session()
    with use_session(explicit_session()) as mine:
        assert current_session() is mine
        seen = run_threads(lambda _: current_session(), [None])
    assert seen == [default]
    assert current_session() is default

