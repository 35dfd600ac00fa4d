"""The ordered thread map that runs Monte Carlo blocks and eps values."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from qal.grid import ordered_map

CORE_COUNTS = [1, 2, 3, 5]


def usable_cores(monkeypatch, n):
    """Make ``n`` CPUs usable as far as the process can tell."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("cores", CORE_COUNTS)
class TestOrderedMap:
    def test_results_come_in_item_order(self, monkeypatch, cores):
        usable_cores(monkeypatch, cores)
        delays = np.random.default_rng(cores).uniform(0.0, 2e-3, size=40)

        def square(item):
            time.sleep(delays[item])  # finish out of order
            return item * item

        assert list(ordered_map(square, range(40), 4)) == [i * i for i in range(40)]

    def test_at_most_threads_or_cores_tasks_run_at_once(self, monkeypatch, cores):
        # more threads than this host may have cores, switching as often as it can
        usable_cores(monkeypatch, cores)
        lock = threading.Lock()

        def hold(item):
            with lock:
                running.add(item)
                peak.append(len(running))
                workers.add(threading.current_thread())
            time.sleep(1e-4)
            with lock:
                running.discard(item)
            return item

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 4, 8):
                running, peak, workers = set(), [], set()
                assert list(ordered_map(hold, range(200), threads)) == list(range(200))
                assert max(peak) <= min(threads, cores)
                assert len(workers) <= min(threads, cores)
        finally:
            sys.setswitchinterval(interval)

    def test_one_set_runs_inline(self, monkeypatch, cores):
        usable_cores(monkeypatch, cores)

        def where(item):
            return threading.current_thread()

        caller = threading.current_thread()
        assert list(ordered_map(where, [0], 4)) == [caller]
        assert list(ordered_map(where, range(9), 1)) == [caller] * 9

    def test_at_most_two_items_per_thread_in_flight(self, monkeypatch, cores):
        usable_cores(monkeypatch, cores)
        lock = threading.Lock()
        in_flight, seen = set(), []

        def record(item):
            with lock:
                in_flight.add(item)
                seen.append(len(in_flight))
            return item

        for item in ordered_map(record, range(60), 4):
            time.sleep(5e-4)  # a slow consumer: an unbounded look-ahead would run far ahead
            with lock:
                in_flight.discard(item)
        assert len(seen) == 60
        assert max(seen) <= 2 * cores

    def test_task_error_reaches_the_caller_and_cancels_the_rest(self, monkeypatch, cores):
        usable_cores(monkeypatch, cores)
        started = []

        def fail_at_five(item):
            started.append(item)
            if item == 5:
                raise KeyError("five")
            time.sleep(1e-3)
            return item

        out = []
        with pytest.raises(KeyError, match="five"):
            for item in ordered_map(fail_at_five, range(100), 4):
                out.append(item)
        assert out == [0, 1, 2, 3, 4]
        assert max(started) < 5 + 2 * cores  # nothing past the look-ahead ever started
        count = len(started)
        time.sleep(0.02)
        assert len(started) == count  # and nothing runs after the raise

    def test_consumer_stop_cancels_the_rest(self, monkeypatch, cores):
        usable_cores(monkeypatch, cores)
        started = []

        def slow(item):
            started.append(item)
            time.sleep(1e-3)
            return item

        results = ordered_map(slow, range(100), 4)
        assert next(results) == 0
        results.close()
        count = len(started)
        assert count <= 2 * cores
        time.sleep(0.02)
        assert len(started) == count

    def test_caller_errstate_holds_in_tasks(self, monkeypatch, cores):
        usable_cores(monkeypatch, cores)

        def overflow(item):
            return np.geterr()["over"], np.float64(1e308) * np.float64(10.0 + item)

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                list(ordered_map(overflow, range(8), 4))
        with np.errstate(over="ignore"):
            results = list(ordered_map(overflow, range(8), 4))
        assert [mode for mode, _ in results] == ["ignore"] * 8
