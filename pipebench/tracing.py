"""Spans around calls into stww, kept in memory and written out at the end.

The pipeline code calls every stww function through ``tracer.call(name, fn,
...)``.  A run without tracing passes a ``NullTracer``, whose ``call`` is a
plain function call, so the traced and the untraced run execute the same
pipeline code and differ only by the bookkeeping below.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root
    instance: str | None


class NullTracer:
    instance: str | None = None

    def call(self, name, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.instance: str | None = None
        self._stack: list[int] = []

    def call(self, name, fn, /, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.instance)

    def finished(self) -> list[Span]:
        """Spans whose call has returned, in start order."""
        return [span for span in self.spans if span is not None]


def write_spans(path, tracers: list[Tracer]) -> None:
    """One JSON line per span; ``tracer`` numbers the trees, ``parent`` is an id."""
    with open(path, "w") as handle:
        for number, tracer in enumerate(tracers):
            for index, span in enumerate(tracer.spans):
                if span is not None:
                    handle.write(json.dumps({"tracer": number, "id": index, **span._asdict()}) + "\n")


def self_times(spans: list[Span | None]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Children run inside their parent and one after another, so the self
    times of all spans add up to the summed duration of the roots.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span is not None and span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [
        0.0 if span is None else (span.end - span.start) - covered[index]
        for index, span in enumerate(spans)
    ]


def root_of(spans: list[Span | None], index: int) -> int:
    while spans[index].parent is not None:
        index = spans[index].parent
    return index


def self_time_by_name(spans: list[Span | None], root_name: str) -> dict[str, float]:
    """Summed self time per span name, over the trees under roots named root_name."""
    totals: dict[str, float] = defaultdict(float)
    for index, own in enumerate(self_times(spans)):
        span = spans[index]
        if span is not None and spans[root_of(spans, index)].name == root_name:
            totals[span.name] += own
    return dict(totals)
