"""
Spans around calls into the package's modules, and their self times.

A span is (name, start, end, parent) with times from time.perf_counter,
which is one system-wide monotonic clock, so a child's times compare with
its parent's.  The name starts with the layer (the module) it times, as in
"growth.fill" or "graphs.build.rank3".  Calls too frequent to keep one
span each are summed into an aggregate (name, parent, calls, seconds).

A span's self time is its duration minus the time its direct children
(spans and aggregates) cover.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

CASES = "abcdef"


class Tracer:
    """Spans kept in memory while a traced child runs."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent]
        self.aggregates: dict[tuple, list] = {}  # (name, parent) -> [calls, seconds]
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, fn: Callable, name, aggregate: bool = False) -> Callable:
        """fn with a span (or an aggregate) around every call.  name is a
        string or a function of the call's arguments returning one."""
        naming = name if callable(name) else (lambda *args, **kwargs: name)

        if aggregate:
            @functools.wraps(fn)
            def summed(*args, **kwargs):
                key = (naming(*args, **kwargs), self._stack[-1])
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    entry = self.aggregates.setdefault(key, [0, 0.0])
                    entry[0] += 1
                    entry[1] += time.perf_counter() - start
            return summed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(naming(*args, **kwargs)):
                return fn(*args, **kwargs)
        return traced

    def to_json_obj(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [[name, parent, calls, secs] for (name, parent), (calls, secs) in self.aggregates.items()],
        }


def square_case(t, x, y, alpha: int) -> str:
    """Which local-rule case (a)-(f) completes a square, in the order the
    rules test them."""
    if alpha:
        return "a"
    if x == t and y == t:
        return "b"
    if x == t:
        return "c"
    if y == t:
        return "d"
    if x == y:
        return "e"
    return "f"


def self_times(trace: dict) -> tuple[dict, dict]:
    """Self seconds and call counts per span name, from one child's trace."""
    spans = trace["spans"]
    aggregates = trace["aggregates"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for _, parent, _, secs in aggregates:
        if parent >= 0:
            covered[parent] += secs
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, start, end, _), inner in zip(spans, covered):
        seconds[name] += end - start - inner
        calls[name] += 1
    for name, _, n, secs in aggregates:
        seconds[name] += secs
        calls[name] += n
    return seconds, calls
