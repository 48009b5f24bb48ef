"""In-memory span tracing for the benchmark's traced run.

Spans are taken from outside the program: `Tracer.wrap` replaces a
function at the module or class attribute its callers look it up through,
and `Tracer.patch` restores every original when the traced run ends. The
untraced run never enters `patch`, so it measures unmodified code.

A span is (name, start, end, parent); the parent is the span open when
the call began. Self time is a span's duration minus the part of it that
its child spans cover, with overlapping children counted once.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterable

NO_PARENT = -1


def covered_length(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(
    starts: list[float], ends: list[float], parents: list[int]
) -> list[float]:
    """Per-span duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, parent in enumerate(parents):
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        kids = children.get(i)
        out.append(end - start - (covered_length(start, end, kids) if kids else 0.0))
    return out


class Tracer:
    """Single-threaded span recorder plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter[str] = Counter()
        self._open: list[int] = [NO_PARENT]

    def __len__(self) -> int:
        return len(self.names)

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """`fn` recording one span per call. `before(args, kwargs)` may
        return replacement (args, kwargs); `after(args, kwargs, result)`
        runs once the span has closed and only when `fn` returned."""
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(names)
            names.append(name)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patch(self, replacements: list[tuple[object, str, Callable]]):
        """Install (owner, attribute, wrapper) replacements for the block."""
        saved = []
        try:
            for owner, attr, wrapper in replacements:
                own = attr in vars(owner)
                saved.append((owner, attr, own, vars(owner).get(attr)))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, own, original in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def self_times(self) -> list[float]:
        return self_times(self.starts, self.ends, self.parents)

    def has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.parents[idx]
        while parent != NO_PARENT:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def write(self, path) -> None:
        """Dump spans as CSV: name, start_s, end_s, parent index."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            t0 = self.starts[0] if self.starts else 0.0
            for name, start, end, parent in zip(
                self.names, self.starts, self.ends, self.parents
            ):
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
