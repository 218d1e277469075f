"""The one place that decides how work runs on threads.

``ordered_map(fn, items, threads)`` yields ``fn(item)`` in item order.
With more than one thread it keeps at most ``threads`` calls submitted
and not yet consumed, the result the consumer holds included, so a
stalled consumer pins at most that many results and nothing past them
starts.  A worker's exception is raised at its position in the order.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Callable, Iterable, Iterator

from .gf2m import checked_int

__all__ = ["ordered_map"]


def ordered_map(fn: Callable, items: Iterable, threads: int = 1) -> Iterator:
    """``map(fn, items)`` on up to ``threads`` threads, in item order; 0
    and 1 run serially.  ``threads`` is checked here, at the call, so a
    refused value starts no work."""
    return _ordered_map(fn, items, checked_int("threads", threads, 0))


def _ordered_map(fn: Callable, items: Iterable, threads: int) -> Iterator:
    if threads <= 1:
        yield from map(fn, items)
        return
    items = iter(items)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque(pool.submit(fn, item) for item in islice(items, threads))
        while pending:
            yield pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in islice(items, 1))
