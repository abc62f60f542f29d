"""Observability: event log, counters, and latency histograms."""

from repro.obs.events import (
    Counters,
    Event,
    EventLog,
    Observability,
)
from repro.obs.histogram import (
    DEFAULT_PERCENTILES,
    LatencyHistogram,
    percentiles_ms,
)

__all__ = [
    "Counters",
    "DEFAULT_PERCENTILES",
    "Event",
    "EventLog",
    "LatencyHistogram",
    "Observability",
    "percentiles_ms",
]
