"""In-memory spans around calls into kerdock3's public functions.

A span records (id, parent, name, start, end, items).  Spans are kept in a
list while the benchmark runs and written out as gzipped JSON lines at
the end, each with its self time: the span's duration minus the part of
its interval that its child spans cover.

``Tracer.patch`` replaces a function by a timing wrapper in every
``kerdock3`` module that holds it (``from .pauli import x`` binds the
name in the importing module too), so calls between layers are traced
without changing the package.  ``Tracer.uninstall`` puts every original
back.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

ItemsFn = Callable[[tuple, dict, Any], Optional[int]]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int = 0
    items: Optional[int] = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def self_times_ns(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval and overlapping
    children (from worker threads) are counted once.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children[s.id], key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, s.start_ns), min(c.end_ns, s.end_ns)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end_ns - s.start_ns) - covered
    return out


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else None, name,
                    time.perf_counter_ns())
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn: Callable, items: Optional[ItemsFn] = None) -> Callable:
        """``fn`` with each call recorded as a span; ``items`` sees
        (args, kwargs, result) after the span has ended."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if items is not None:
                s.items = items(args, kwargs, result)
            return result
        return traced

    def patch(self, owner: Any, attr: str, name: str,
              items: Optional[ItemsFn] = None) -> None:
        """Trace ``owner.attr``.  A class is patched in place; for a module
        function every ``kerdock3`` module binding the same object is."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, items)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(mod, key)
                       for mod_name, mod in list(sys.modules.items())
                       if mod_name == "kerdock3" or mod_name.startswith("kerdock3.")
                       for key, value in list(vars(mod).items())
                       if value is original]
        for target, key in targets:
            setattr(target, key, traced)
            self._patches.append((target, key, original))

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "items", "self_ns")

    def write(self, path) -> int:
        """Write gzipped JSON lines: a header naming ``FIELDS``, then one
        array per span with its self time; returns the span count."""
        selfs = self_times_ns(self.spans)
        t0 = min((s.start_ns for s in self.spans), default=0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": self.FIELDS}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.start_ns - t0,
                                     s.end_ns - t0, s.items, selfs[s.id]]) + "\n")
        return len(self.spans)


class SpanIndex:
    """Lookups over a finished span list."""

    def __init__(self, spans: List[Span]) -> None:
        self.children: Dict[Optional[int], List[Span]] = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)

    def root(self, name: str) -> Span:
        """The last top-level span called ``name``."""
        found = [s for s in self.children[None] if s.name == name]
        if not found:
            raise KeyError(f"no top-level span {name!r}")
        return found[-1]

    def direct(self, parent: Span, name: str) -> List[Span]:
        return [s for s in self.children[parent.id] if s.name == name]

    def under(self, parent: Span, name: str) -> List[Span]:
        """Every descendant of ``parent`` called ``name``."""
        out, todo = [], list(self.children[parent.id])
        while todo:
            s = todo.pop()
            if s.name == name:
                out.append(s)
            todo.extend(self.children[s.id])
        return sorted(out, key=lambda s: s.start_ns)
