"""Span recorder for the traced run: CPU-clock spans, self time, Perfetto.

Spans are recorded by the benchmark's own files around its calls into each
layer of the program; nothing inside ``src/`` is instrumented.  Every span
keeps its name, start, end and the index of the span that was open when it
began, so the spans of a run form a forest whose roots are the set-up steps
and one ``round`` span per traced round.  CPython's cyclic collections are
observed through :data:`gc.callbacks` and become ``python.gc_s`` children of
whatever span they interrupted.

A span's *self time* is its duration minus the durations of its direct
children.  Summed over a tree, self times add up to the root's duration, so
the per-layer self times of a round plus the round span's own self time (the
``residual_s`` metric: CPU spent outside every named layer) equal the
round's CPU time exactly.
"""

from __future__ import annotations

import gc
import json
import time

from collections import defaultdict
from dataclasses import dataclass

#: name of the span CPython collections are recorded under.
GC_SPAN = "python.gc_s"
#: name of the root span of one traced round; its self time is the residual.
ROUND_SPAN = "round"


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index (in :attr:`Tracer.spans`) of the enclosing span, or None.
    parent: int | None


class _Open:
    """Context manager for one span (a class: cheaper than a generator)."""

    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer.open[-1] if tracer.open else None
        tracer.spans.append(Span(self.name, tracer.clock(), 0.0, parent))
        tracer.open.append(self.index)
        return self

    def __exit__(self, *exc_info):
        tracer = self.tracer
        tracer.spans[self.index].end = tracer.clock()
        tracer.open.pop()
        return False


class Tracer:
    """In-memory span and counter store; written out once, at the end."""

    def __init__(self, clock=time.process_time) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        #: indices of the spans currently open, innermost last.
        self.open: list[int] = []
        #: per-run totals of the count metrics (IR instructions, steps ...).
        self.counts: dict[str, int] = defaultdict(int)
        self._gc_start: float | None = None

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    # -- garbage collections ---------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            parent = self.open[-1] if self.open else None
            self.spans.append(Span(GC_SPAN, self._gc_start, self.clock(), parent))
            self._gc_start = None

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)
        self._gc_start = None

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over every recorded span."""
        children: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += (span.end - span.start) - children[index]
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [span.end - span.start for span in self.spans if span.name == name]

    def write_perfetto(self, path, *, process_name: str) -> None:
        """Chrome trace-event JSON (opens in ui.perfetto.dev), times in µs
        of process CPU time."""
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": process_name}}]
        for index, span in enumerate(self.spans):
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": span.start * 1e6, "dur": (span.end - span.start) * 1e6,
                "args": {"id": index, "parent": span.parent},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
