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


def no_buffers(sets):
    return [None] * sets


@pytest.mark.parametrize("cores", CORE_COUNTS)
class TestOrderedMap:
    def test_results_come_in_item_order(self, monkeypatch, cores):
        usable_cores(monkeypatch, cores)
        delays = np.random.default_rng(cores).uniform(0.0, 2e-3, size=40)

        def square(item, buffers):
            time.sleep(delays[item])  # finish out of order
            return item * item

        assert list(ordered_map(square, range(40), no_buffers)) == [i * i for i in range(40)]

    def test_one_set_per_thread_never_shared(self, monkeypatch, cores):
        # more threads than this host may have cores, switching as often as it can
        usable_cores(monkeypatch, cores)
        made = []

        def scratch(sets):
            made.append(sets)
            return [[] for _ in range(sets)]

        def hold(item, buffers):
            buffers.append(item)
            time.sleep(1e-4)
            held = list(buffers)
            buffers.pop()
            return held, id(buffers)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = list(ordered_map(hold, range(200), scratch))
        finally:
            sys.setswitchinterval(interval)
        assert made == [cores]
        assert [held for held, _ in results] == [[i] for i in range(200)]
        assert len({owner for _, owner in results}) <= cores

    def test_one_set_runs_inline(self, monkeypatch, cores):
        usable_cores(monkeypatch, cores)

        def where(item, buffers):
            return threading.current_thread()

        caller = threading.current_thread()
        assert list(ordered_map(where, [0], no_buffers)) == [caller]
        assert list(ordered_map(where, range(9), lambda sets: [None])) == [caller] * 9

    def test_at_most_two_items_per_thread_in_flight(self, monkeypatch, cores):
        usable_cores(monkeypatch, cores)
        lock = threading.Lock()
        in_flight, seen = set(), []

        def record(item, buffers):
            with lock:
                in_flight.add(item)
                seen.append(len(in_flight))
            return item

        for item in ordered_map(record, range(60), no_buffers):
            time.sleep(5e-4)  # a slow consumer: an unbounded look-ahead would run far ahead
            with lock:
                in_flight.discard(item)
        assert len(seen) == 60
        assert max(seen) <= 2 * cores

    def test_task_error_reaches_the_caller_and_cancels_the_rest(self, monkeypatch, cores):
        usable_cores(monkeypatch, cores)
        started = []

        def fail_at_five(item, buffers):
            started.append(item)
            if item == 5:
                raise KeyError("five")
            time.sleep(1e-3)
            return item

        out = []
        with pytest.raises(KeyError, match="five"):
            for item in ordered_map(fail_at_five, range(100), no_buffers):
                out.append(item)
        assert out == [0, 1, 2, 3, 4]
        assert max(started) < 5 + 2 * cores  # nothing past the look-ahead ever started
        count = len(started)
        time.sleep(0.02)
        assert len(started) == count  # and nothing runs after the raise

    def test_consumer_stop_cancels_the_rest(self, monkeypatch, cores):
        usable_cores(monkeypatch, cores)
        started = []

        def slow(item, buffers):
            started.append(item)
            time.sleep(1e-3)
            return item

        results = ordered_map(slow, range(100), no_buffers)
        assert next(results) == 0
        results.close()
        count = len(started)
        assert count <= 2 * cores
        time.sleep(0.02)
        assert len(started) == count

    def test_caller_errstate_holds_in_tasks(self, monkeypatch, cores):
        usable_cores(monkeypatch, cores)

        def overflow(item, buffers):
            return np.geterr()["over"], np.float64(1e308) * np.float64(10.0 + item)

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                list(ordered_map(overflow, range(8), no_buffers))
        with np.errstate(over="ignore"):
            results = list(ordered_map(overflow, range(8), no_buffers))
        assert [mode for mode, _ in results] == ["ignore"] * 8
