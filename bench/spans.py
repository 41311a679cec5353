"""In-memory spans around calls into biant, recorded from outside the package.

A ``Tracer`` replaces module attributes (say ``biant.train._gradient_detailed``)
with wrappers that record one span per call: name, start, end, parent span,
and the id of the training batch or eval instance the call belongs to. The
originals come back when the ``traced`` block exits, so an untraced phase
runs the unmodified code.

Self time of a span is its duration minus the part of it that its child
spans cover; the self times of every span under a root, plus the root's own
self time, add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
import types
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    group: str  # training batch or eval instance the call belongs to

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap and the span name its calls get.

    ``group`` starts a new batch/instance id from the call's arguments;
    ``count`` adds named counts derived from (args, kwargs, result).
    """

    module: object
    attr: str
    span: str
    group: Callable | None = None
    count: Callable | None = None


class Tracer:
    """Span recorder; one per traced run, single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._group = ""
        self._root = ""

    def _open(self, name: str, group: str | None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent == -1:
            self._root = self._group = group or name
        elif group is not None:
            self._group = f"{self._root}/{group}"
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._group))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, group: str | None = None):
        index = self._open(name, group)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        def traced(*args, **kwargs):
            group = target.group(args, kwargs) if target.group else None
            index = self._open(target.span, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if target.count:
                for name, amount in target.count(args, kwargs, result).items():
                    self.counts[name] = self.counts.get(name, 0) + amount
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def traced(self, targets: list[Target]):
        """Install a wrapper on every target for the duration of the block."""
        with patched([(t.module, t.attr, lambda fn, t=t: self.wrap(fn, t)) for t in targets]):
            yield


@contextlib.contextmanager
def patched(replacements):
    """Set ``module.attr = make(original)`` for each entry; restore on exit."""
    saved = []
    try:
        for module, attr, make in replacements:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the union of child intervals clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration - covered)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def wrapper_cost(calls: int = 20000, trials: int = 5) -> float:
    """Seconds one traced call adds to a plain call, measured on a no-op."""
    mod = types.SimpleNamespace(noop=lambda: None)
    costs = []
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(calls):
            mod.noop()
        plain = time.perf_counter() - t0
        tracer = Tracer()
        with tracer.traced([Target(mod, "noop", "noop")]), tracer.span("root"):
            t0 = time.perf_counter()
            for _ in range(calls):
                mod.noop()
            traced = time.perf_counter() - t0
        costs.append((traced - plain) / calls)
    return statistics.median(costs)
