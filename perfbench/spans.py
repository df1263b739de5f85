"""Span collector for the benchmark's traced runs.

A traced run replaces selected module attributes of the library with thin
wrappers, so every call the library makes through them opens a span.  Each
span keeps its name, start, end, parent, the item it belongs to, the run id
and a few work counts taken from the call's arguments or result.  Spans stay
in memory; the runner aggregates them per pass and writes the last traced
pass to disk when the run ends.  Nothing here is installed in an untraced
run, and uninstalling restores the original attributes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    item: int | None
    run_id: str
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Collects nested spans; self time is a span's time minus its children's."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self.item: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent, self.item, self.run_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        span = self.spans[idx]
        span.end = self.clock()
        if counts:
            span.counts.update(counts)
        if span.parent is not None:
            self.spans[span.parent].child_s += span.seconds

    def wrap(self, fn, name: str, count=None):
        """fn with a span around each call; count(args, kwargs, result) -> dict."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(args, kwargs, result)
                return result
            finally:
                self.close(idx, counts)

        return traced

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name, count) target in place."""
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, count))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def reset(self) -> list[Span]:
        """Hand over the closed spans and start an empty list."""
        if self._stack:
            raise RuntimeError("reset with open spans")
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list[Span]) -> dict:
    """Totals per span name and per (name, parent name), plus root coverage.

    Returns {"by_name": {name: {"s", "self_s", "calls", <counts>...}},
    "by_parent": {(name, parent_name): {...}}, "root_s": seconds}.
    """
    by_name: dict = defaultdict(lambda: defaultdict(float))
    by_parent: dict = defaultdict(lambda: defaultdict(float))
    root_s = 0.0
    for span in spans:
        parent = spans[span.parent].name if span.parent is not None else None
        if parent is None:
            root_s += span.seconds
        for table, key in ((by_name, span.name), (by_parent, (span.name, parent))):
            row = table[key]
            row["s"] += span.seconds
            row["self_s"] += span.self_s
            row["calls"] += 1
            for k, v in span.counts.items():
                row[k] += v
    return {"by_name": by_name, "by_parent": by_parent, "root_s": root_s}
