"""MP server allocation: offline daily plan + real-time selector (§5.3-5.4)."""

from repro.allocation.offline import AllocationLP, AllocationOutcome
from repro.allocation.predictive import (
    PredictiveSelector,
    compare_selectors,
    series_hint_fn,
)
from repro.allocation.plan import AllocationPlan
from repro.allocation.realtime import (
    KVSlotLedger,
    LocalSlotLedger,
    RealTimeSelector,
    SelectionOutcome,
    SelectorStats,
    SlotLedger,
)

__all__ = [
    "AllocationLP",
    "AllocationOutcome",
    "AllocationPlan",
    "KVSlotLedger",
    "LocalSlotLedger",
    "PredictiveSelector",
    "RealTimeSelector",
    "SelectionOutcome",
    "SelectorStats",
    "SlotLedger",
    "compare_selectors",
    "series_hint_fn",
]
