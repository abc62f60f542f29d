"""Controller event streams: the columnar batch the engine serves, and
the per-call object reference it is tested against (§6.6)."""

from repro.controller.columnar import (
    ColumnarEventBatch,
    build_event_batch,
    event_prefix,
    events_per_call,
    iter_event_batches,
)
from repro.controller.events import (
    EVENT_SORT_CODE,
    ControllerEvent,
    EventType,
    event_stream,
    events_of_call,
    peak_event_rate,
)

__all__ = [
    "EVENT_SORT_CODE",
    "ColumnarEventBatch",
    "ControllerEvent",
    "EventType",
    "build_event_batch",
    "event_prefix",
    "event_stream",
    "events_of_call",
    "events_per_call",
    "iter_event_batches",
    "peak_event_rate",
]
