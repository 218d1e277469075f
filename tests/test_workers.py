"""The ordered, bounded worker map behind every threaded path."""

import sys
import threading
import time

import pytest

from kerdock3._workers import ordered_map


@pytest.mark.parametrize("threads", [0, 1, 2, 4])
def test_yields_in_item_order(threads):
    """Uneven work on more threads than cores, switching often."""
    def uneven_square(i):
        time.sleep(0.002 * ((7 * i) % 5))
        sum(range(i * 500))  # some work that holds the GIL
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = list(ordered_map(uneven_square, range(40), threads))
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in range(40)]


@pytest.mark.parametrize("threads", [2, 3])
def test_keeps_at_most_threads_calls_ahead_of_the_consumer(threads):
    started = []
    lock = threading.Lock()

    def record(i):
        with lock:
            started.append(i)
        return i

    results = ordered_map(record, range(1000), threads)
    for expected in range(5):
        assert next(results) == expected
        time.sleep(0.05)
        assert len(started) <= expected + threads
    results.close()
    assert len(started) <= 4 + threads


@pytest.mark.parametrize("threads", [1, 2])
def test_worker_exception_raises_at_its_position(threads):
    def fail_at_three(i):
        if i == 3:
            raise KeyError(i)
        return i

    results = ordered_map(fail_at_three, range(10), threads)
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(KeyError):
        next(results)


def test_takes_any_iterable():
    assert list(ordered_map(str, iter([3, 1, 2]), 2)) == ["3", "1", "2"]
    assert list(ordered_map(str, [], 2)) == []
