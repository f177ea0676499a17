"""The thread harness of tests/conftest.py: the workers run at once under a
short switch interval, their results come back in arg order, and a worker's
exception is raised in the test's thread once every thread has joined."""

import sys
import time

import pytest

from conftest import run_threads, thread_changes


def test_results_come_back_in_arg_order_under_a_short_switch_interval():
    interval = sys.getswitchinterval()
    # later args finish first
    assert run_threads(lambda k: time.sleep(0.01 * (4 - k)) or k * k, range(5)) == \
        [0, 1, 4, 9, 16]
    assert run_threads(lambda _: sys.getswitchinterval(), [None]) == [1e-6]
    assert sys.getswitchinterval() == interval


def test_the_first_worker_exception_is_raised_after_every_thread_joined():
    interval, finished = sys.getswitchinterval(), []

    def worker(k):
        if k == 0:
            raise ValueError("worker 0")
        time.sleep(0.2)
        finished.append(k)
        if k == 3:
            raise KeyError("worker 3, later")

    with pytest.raises(ValueError, match="worker 0"):
        run_threads(worker, range(4))
    assert sorted(finished) == [1, 2, 3]
    assert sys.getswitchinterval() == interval


def test_thread_changes_counts_each_change_of_thread():
    assert thread_changes([]) == thread_changes([7]) == thread_changes([7, 7]) == 0
    assert thread_changes([1, 1, 2, 1, 1, 3]) == 3
