import sys
import threading

import pytest

from fpx.session import explicit_session


@pytest.fixture
def session():
    """Fresh tracking session with deterministic explicit-scope traces."""
    return explicit_session()


def run_threads(worker, args):
    """Runs worker(arg) for each arg, one thread each, started together on a
    barrier while the interpreter switches threads every microsecond, and
    returns the workers' results in arg order. Every thread is joined, each
    within 60 s, before the first exception a worker raised is raised here."""
    args = list(args)
    barrier = threading.Barrier(len(args), timeout=60)
    results, errors = [None] * len(args), []

    def run(k):
        try:
            barrier.wait()
            results[k] = worker(args[k])
        except BaseException as exc:        # raised below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(len(args))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a worker ran past 60 s"
    if errors:
        raise errors[0]
    return results


def thread_changes(idents) -> int:
    """How often consecutive entries of idents, thread idents noted in the
    order the threads ran, came from different threads."""
    return sum(a != b for a, b in zip(idents, idents[1:]))
