"""Controller event stream: what the service sees in real time.

The controller benchmark (§6.6) replays a 24-hour trace of "millions of
calls and events (participants joining and media changes)".  A call
emits ``CALL_START`` when the first participant joins,
``PARTICIPANT_JOIN`` for each later joiner, ``MEDIA_CHANGE`` when
someone escalates the call's media, ``CONFIG_FREEZE`` at A seconds (the
§5.4 decision point), and ``CALL_END``.

This module pins those kinds and their equal-timestamp total order
(:data:`EVENT_SORT_CODE`).  :func:`events_of_call` / :func:`event_stream`
build the stream one :class:`ControllerEvent` at a time from a
:class:`~repro.workload.trace.CallTrace`: the per-call reference the
columnar sorter (:func:`repro.controller.columnar.build_event_batch`,
what the engine serves) is tested against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.errors import WorkloadError
from repro.core.types import Call, MediaType
from repro.core.units import DEFAULT_FREEZE_WINDOW_S
from repro.workload.trace import CallTrace


class EventType(enum.Enum):
    CALL_START = "call_start"
    PARTICIPANT_JOIN = "participant_join"
    MEDIA_CHANGE = "media_change"
    CONFIG_FREEZE = "config_freeze"
    CALL_END = "call_end"

    @property
    def sort_code(self) -> int:
        """Position in the pinned equal-timestamp total order."""
        return EVENT_SORT_CODE[self]


#: The pinned total order for events of one call at an equal timestamp:
#: a call starts, participants join, their media escalates, the config
#: freezes, and only then can the call end.  Both the object sorter
#: (:func:`event_stream`) and the columnar sorter
#: (:func:`repro.controller.columnar.build_event_batch`) key on this —
#: the order is an explicit contract, not an accident of
#: ``EventType.value`` string collation.
EVENT_SORT_CODE: Dict[EventType, int] = {
    EventType.CALL_START: 0,
    EventType.PARTICIPANT_JOIN: 1,
    EventType.MEDIA_CHANGE: 2,
    EventType.CONFIG_FREEZE: 3,
    EventType.CALL_END: 4,
}


@dataclass(frozen=True)
class ControllerEvent:
    """One timestamped event, sorted by (time, call, type)."""

    t_s: float
    event_type: EventType
    call_id: str
    country: Optional[str] = None
    media: Optional[MediaType] = None
    call: Optional[Call] = None


def events_of_call(call: Call,
                   freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S
                   ) -> List[ControllerEvent]:
    """The event sequence a single call produces."""
    if not call.participants:
        raise WorkloadError(f"call {call.call_id} has no participants")
    events: List[ControllerEvent] = []
    first = call.first_joiner
    events.append(ControllerEvent(
        t_s=call.start_s,
        event_type=EventType.CALL_START,
        call_id=call.call_id,
        country=first.country,
        call=call,
    ))
    seen_media = MediaType.AUDIO
    for participant in call.participants:
        t = call.start_s + participant.join_offset_s
        if participant is not first:
            events.append(ControllerEvent(
                t_s=t,
                event_type=EventType.PARTICIPANT_JOIN,
                call_id=call.call_id,
                country=participant.country,
            ))
        if participant.media.rank > seen_media.rank:
            seen_media = participant.media
            events.append(ControllerEvent(
                t_s=t,
                event_type=EventType.MEDIA_CHANGE,
                call_id=call.call_id,
                media=participant.media,
            ))
    events.append(ControllerEvent(
        t_s=call.start_s + freeze_window_s,
        event_type=EventType.CONFIG_FREEZE,
        call_id=call.call_id,
        call=call,
    ))
    events.append(ControllerEvent(
        t_s=call.end_s,
        event_type=EventType.CALL_END,
        call_id=call.call_id,
    ))
    return events


def event_stream(trace: CallTrace,
                 freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S
                 ) -> List[ControllerEvent]:
    """All events of a trace in time order.

    The sort key is the shared total order ``(t_s, trace position of the
    call, EVENT_SORT_CODE)`` — identical to the columnar sorter's, so the
    object and columnar data planes emit byte-for-byte the same stream
    for the same trace.
    """
    events: List[ControllerEvent] = []
    rank: Dict[str, int] = {}
    for call in trace:
        rank.setdefault(call.call_id, len(rank))
        events.extend(events_of_call(call, freeze_window_s))
    events.sort(key=lambda e: (e.t_s, rank[e.call_id],
                               EVENT_SORT_CODE[e.event_type]))
    return events


def peak_event_rate(events, window_s: float = 60.0) -> float:
    """Peak events/second over fixed windows — the trace's "peak load".

    Fig 10 normalizes controller throughput to the peak traffic seen in
    the trace; this is that denominator.  ``events`` is anything exposing
    a ``t_s`` array (a
    :class:`~repro.controller.columnar.ColumnarEventBatch`); the windowed
    histogram is one ``np.bincount`` over window indices.
    """
    t = np.asarray(events.t_s, dtype=np.float64)
    if t.size == 0:
        raise WorkloadError("no events")
    windows = np.floor_divide(t, window_s).astype(np.int64)
    windows -= windows.min()
    return float(np.bincount(windows).max() / window_s)
