"""Harness-side spans around calls into each layer.

Spans are recorded from the benchmark's own files, around public calls
into ``repro`` — no span, counter or switch is added under ``src/``.
They are kept in memory and written out once, when the run ends.  A
span's name is ``<layer>.<operation>``; the metric ``<name>_s`` is the
median of that span's duration over the traced passes.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so nested spans (``service.run`` inside
``storms.serve``) are not counted twice.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; one ``run_id`` per traced pass."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.run_id = 0

    def new_run(self) -> int:
        self.run_id += 1
        return self.run_id

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span = Span(span_id=len(self.spans), name=name,
                    start=time.perf_counter(), end=0.0,
                    parent=self._stack[-1] if self._stack else None,
                    run_id=self.run_id)
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> Dict[int, float]:
        """``{run_id: total seconds under name}`` (a span may repeat
        within a run; runs that never opened it are absent)."""
        per_run: Dict[int, float] = {}
        for span in self.spans:
            if span.name == name:
                per_run[span.run_id] = (per_run.get(span.run_id, 0.0)
                                        + span.duration)
        return per_run

    def to_json(self) -> List[Dict[str, object]]:
        return [asdict(span) for span in self.spans]


class NullTracer:
    """The untraced pass: same code path, nothing recorded."""

    enabled = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``{span_id: duration - time covered by direct children}``."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) \
                + span.duration
    return {span.span_id: span.duration - covered.get(span.span_id, 0.0)
            for span in spans}


def layer_self_seconds(spans: Sequence[Span]) -> Dict[str, List[float]]:
    """Self seconds per layer (the name up to the first dot), per run."""
    own = self_times(spans)
    per_layer: Dict[str, Dict[int, float]] = {}
    for span in spans:
        layer = span.name.split(".", 1)[0]
        runs = per_layer.setdefault(layer, {})
        runs[span.run_id] = runs.get(span.run_id, 0.0) + own[span.span_id]
    return {layer: [runs[r] for r in sorted(runs)]
            for layer, runs in per_layer.items()}
