"""Columnar controller event batches: vectorized generate + sort.

The serving engine's only input.  A trace's event stream is held as
parallel arrays:

* ``t_s``            — float64 event timestamps;
* ``call_idx``       — int64 index into the owning
  :class:`~repro.workload.columnar.ColumnarTrace`;
* ``type_code``      — int8 :data:`~repro.controller.events.EVENT_SORT_CODE`
  (the pinned equal-timestamp total order doubles as the wire encoding);
* ``country_code``   — int32 into the trace's country table (-1 = none);
* ``media_code``     — int8 media escalation rank (-1 = none).

Sorting is one ``np.lexsort`` over ``(type_code, call_idx, t_s)`` — the
total order the per-call reference sorter
(:func:`~repro.controller.events.event_stream`) pins — instead of a
global Python sort.  Consumers read the arrays directly.

:func:`iter_event_batches` is the bounded-memory streaming contract:
chunks arrive at call granularity (each call's events complete within
one batch, internally time-sorted), so exact accounting survives
chunking while peak memory stays proportional to the chunk size, not
the trace length.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core.errors import WorkloadError
from repro.core.units import DEFAULT_FREEZE_WINDOW_S
from repro.controller.events import EVENT_SORT_CODE, EventType
from repro.workload.columnar import ColumnarTrace

__all__ = [
    "ColumnarEventBatch",
    "build_event_batch",
    "event_prefix",
    "events_per_call",
    "iter_event_batches",
]

_START = EVENT_SORT_CODE[EventType.CALL_START]
_JOIN = EVENT_SORT_CODE[EventType.PARTICIPANT_JOIN]
_MEDIA = EVENT_SORT_CODE[EventType.MEDIA_CHANGE]
_FREEZE = EVENT_SORT_CODE[EventType.CONFIG_FREEZE]
_END = EVENT_SORT_CODE[EventType.CALL_END]


class ColumnarEventBatch:
    """One time-sorted batch of controller events, struct-of-arrays."""

    __slots__ = ("trace", "t_s", "call_idx", "type_code", "country_code",
                 "media_code")

    def __init__(self, trace: ColumnarTrace, t_s: np.ndarray,
                 call_idx: np.ndarray, type_code: np.ndarray,
                 country_code: np.ndarray, media_code: np.ndarray):
        self.trace = trace
        self.t_s = t_s
        self.call_idx = call_idx
        self.type_code = type_code
        self.country_code = country_code
        self.media_code = media_code

    def __len__(self) -> int:
        return int(self.t_s.shape[0])

    # ------------------------------------------------------------------
    # chunk surgery
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "ColumnarEventBatch":
        """Events ``[start, stop)`` as a zero-copy sub-batch."""
        return ColumnarEventBatch(
            trace=self.trace,
            t_s=self.t_s[start:stop],
            call_idx=self.call_idx[start:stop],
            type_code=self.type_code[start:stop],
            country_code=self.country_code[start:stop],
            media_code=self.media_code[start:stop],
        )


def events_per_call(trace: ColumnarTrace) -> np.ndarray:
    """Per call, how many events it will emit (the truncation budget).

    ``CALL_START + (p-1) joins + media changes + CONFIG_FREEZE +
    CALL_END`` — identical to ``len(events_of_call(call))`` but computed
    for the whole trace at once.
    """
    if trace.n_calls == 0:
        return np.zeros(0, dtype=np.int64)
    counts = np.diff(trace.part_offsets)
    media_events = _media_change_mask(trace)
    per_call_media = np.add.reduceat(media_events.astype(np.int64),
                                     trace.part_offsets[:-1])
    return counts + 2 + per_call_media


def event_prefix(trace: ColumnarTrace, target_events: int) -> ColumnarTrace:
    """The leading calls, in start order, whose events reach the target.

    The cut is at call granularity: the call that crosses the target is
    kept whole, so the prefix serves with exact accounting.  A target at
    or above the trace's total returns ``trace`` itself.
    """
    if target_events < 1:
        raise WorkloadError("target_events must be positive")
    crossing = int(np.searchsorted(np.cumsum(events_per_call(trace)),
                                   target_events))
    if crossing + 1 >= trace.n_calls:
        return trace
    return trace.slice_calls(0, crossing + 1)


def _media_change_mask(trace: ColumnarTrace) -> np.ndarray:
    """Participant rows that escalate the call's media when they join.

    Mirrors the object path's running max: walking participants in
    stored order, a row emits MEDIA_CHANGE iff its media rank exceeds
    the highest rank seen so far in the call (starting at AUDIO).  The
    running segment max uses the shift trick: adding ``call*4`` makes
    ``np.maximum.accumulate`` reset at call boundaries.
    """
    if trace.n_participants == 0:
        return np.zeros(0, dtype=bool)
    part_call = trace.participant_call()
    shifted = trace.media_code.astype(np.int64) + part_call * 4
    running = np.maximum.accumulate(shifted) - part_call * 4
    prev = np.empty_like(running)
    prev[1:] = running[:-1]
    prev[trace.part_offsets[:-1]] = 0  # each call starts at AUDIO
    return trace.media_code > prev


def build_event_batch(trace: ColumnarTrace,
                      freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S
                      ) -> ColumnarEventBatch:
    """The trace's full event stream, generated and sorted in columns."""
    n = trace.n_calls
    if n == 0:
        raise WorkloadError("empty trace has no events")
    part_call = trace.participant_call()
    first_pos = trace.first_positions()
    join_t = trace.start_s[part_call] + trace.join_offset_s

    join_mask = np.ones(trace.n_participants, dtype=bool)
    join_mask[first_pos] = False
    media_mask = _media_change_mask(trace)

    call_range = np.arange(n, dtype=np.int64)
    none32 = np.full
    sections = [
        # CALL_START: first joiner's country, at call start.
        (trace.start_s, call_range, _START,
         trace.country_code[first_pos], None),
        # PARTICIPANT_JOIN: everyone but the first joiner.
        (join_t[join_mask], part_call[join_mask], _JOIN,
         trace.country_code[join_mask], None),
        # MEDIA_CHANGE: rows that escalate the running media rank.
        (join_t[media_mask], part_call[media_mask], _MEDIA,
         None, trace.media_code[media_mask]),
        # CONFIG_FREEZE at A seconds.
        (trace.start_s + freeze_window_s, call_range, _FREEZE, None, None),
        # CALL_END.
        (trace.start_s + trace.duration_s, call_range, _END, None, None),
    ]

    t_parts, call_parts, code_parts, ctry_parts, media_parts = [], [], [], [], []
    for t, calls, code, ctry, media in sections:
        size = t.shape[0]
        t_parts.append(t)
        call_parts.append(calls)
        code_parts.append(np.full(size, code, dtype=np.int8))
        ctry_parts.append(ctry.astype(np.int32) if ctry is not None
                          else none32(size, -1, dtype=np.int32))
        media_parts.append(media.astype(np.int8) if media is not None
                           else none32(size, -1, dtype=np.int8))

    t_all = np.concatenate(t_parts)
    call_all = np.concatenate(call_parts)
    code_all = np.concatenate(code_parts)
    # The shared total order: (t_s, call position, event kind).
    order = np.lexsort((code_all, call_all, t_all))
    return ColumnarEventBatch(
        trace=trace,
        t_s=t_all[order],
        call_idx=call_all[order],
        type_code=code_all[order],
        country_code=np.concatenate(ctry_parts)[order],
        media_code=np.concatenate(media_parts)[order],
    )


def iter_event_batches(chunks: Iterable[ColumnarTrace],
                       freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S,
                       max_calls: Optional[int] = None
                       ) -> Iterator[ColumnarEventBatch]:
    """Stream event batches from trace chunks, bounded memory.

    Each yielded batch covers whole calls and is internally time-sorted;
    across batches, call *start* times are non-decreasing but lifetimes
    overlap (a call from an earlier batch may end after a later batch
    begins).  Per-call event order — the invariant the admission engine
    and exact accounting rely on — is preserved because a call never
    straddles batches.  ``max_calls`` truncates the stream at call
    granularity.
    """
    remaining = max_calls
    for chunk in chunks:
        if remaining is not None:
            if remaining <= 0:
                return
            if chunk.n_calls > remaining:
                chunk = chunk.slice_calls(0, remaining)
            remaining -= chunk.n_calls
        if chunk.n_calls:
            yield build_event_batch(chunk, freeze_window_s)
