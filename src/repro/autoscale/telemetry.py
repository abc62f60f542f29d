"""Telemetry sensing for the closed-loop autoscaler.

The control loop is only as good as its sensors.  This module turns the
admission engine's raw serving counters into the windowed signals the
:class:`~repro.autoscale.policy.AutoscalePolicy` consumes:

* :class:`ServiceSnapshot` — the engine's *cumulative* call accounting
  at one serving-window boundary (cheap to emit; the engine never
  aggregates).
* :class:`TelemetryWindow` — one autoscale interval's view: per-window
  deltas (generated/admitted/migrated/overflowed), the base forecast
  prorated onto the same wall-clock span, cumulative demand ratios, the
  remaining forecast peak, and the window's settle-latency tail.
* :class:`TelemetryAggregator` — folds snapshots into windows.

Ratios use the *base* (unscaled) forecast as the denominator throughout,
so a demand ratio of 1.5 always means "actual demand runs at 1.5x what
the planner provisioned for", independent of the loop's own rescaling.
Degenerate denominators yield ``None`` rather than a fake 0.0 or
``inf`` — the same discipline the latency percentiles follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.errors import SwitchboardError


@dataclass(frozen=True)
class ServiceSnapshot:
    """Cumulative engine accounting at one serving-window boundary."""

    t_s: float
    generated: int = 0
    admitted: int = 0
    migrated: int = 0
    overflowed: int = 0
    unplanned: int = 0
    events_processed: int = 0


@dataclass(frozen=True)
class TelemetryWindow:
    """What one autoscale interval saw, plus its forecast context."""

    index: int
    t_start_s: float
    t_end_s: float
    # Per-window deltas of the exact accounting partition.
    generated: int
    admitted: int
    migrated: int
    overflowed: int
    unplanned: int
    #: Base-forecast calls prorated onto [t_start_s, t_end_s).
    forecast_calls: float
    cumulative_generated: int
    #: Base-forecast calls prorated onto [horizon start, t_end_s).
    cumulative_forecast: float
    #: Peak per-slot base-forecast total over slots starting after
    #: ``t_end_s`` (``None`` once the horizon is exhausted).
    remaining_forecast_peak: Optional[float] = None
    #: Settle-latency tail of this window's samples (``count`` included).
    settle_tail_ms: Optional[Dict[str, Optional[float]]] = None

    @property
    def settled(self) -> int:
        return self.admitted + self.migrated + self.overflowed

    @property
    def overflow_pressure(self) -> Optional[float]:
        """Overflowed fraction of the window's calls (the reactive
        signal); ``None`` when the window generated no calls."""
        if self.generated <= 0:
            return None
        return self.overflowed / self.generated

    @property
    def demand_ratio(self) -> Optional[float]:
        """observed / forecast calls this window (noisy, instantaneous)."""
        if self.forecast_calls <= 0:
            return None
        return self.generated / self.forecast_calls

    @property
    def cumulative_ratio(self) -> Optional[float]:
        """observed / forecast calls since the horizon start (stable)."""
        if self.cumulative_forecast <= 0:
            return None
        return self.cumulative_generated / self.cumulative_forecast

    @property
    def utilization(self) -> Optional[float]:
        """Settled calls per forecast call — how hard the provisioned
        plan ran this window; ``None`` without a forecast denominator."""
        if self.forecast_calls <= 0:
            return None
        return self.settled / self.forecast_calls

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "t_start_s": self.t_start_s,
            "t_end_s": self.t_end_s,
            "generated": self.generated,
            "admitted": self.admitted,
            "migrated": self.migrated,
            "overflowed": self.overflowed,
            "unplanned": self.unplanned,
            "forecast_calls": self.forecast_calls,
            "overflow_pressure": self.overflow_pressure,
            "demand_ratio": self.demand_ratio,
            "cumulative_ratio": self.cumulative_ratio,
            "utilization": self.utilization,
            "remaining_forecast_peak": self.remaining_forecast_peak,
            "settle_tail_ms": (dict(self.settle_tail_ms)
                               if self.settle_tail_ms is not None else None),
        }


#: A closed window is emitted once the elapsed span reaches this
#: fraction of the interval — engine serving windows end at their last
#: event, slightly short of the nominal boundary.
_CLOSE_FRACTION = 0.9


@dataclass
class TelemetryAggregator:
    """Folds engine snapshots into :class:`TelemetryWindow` intervals."""

    slot_starts: np.ndarray
    slot_duration_s: float
    forecast_per_slot: np.ndarray
    interval_s: float

    _windows_emitted: int = 0
    _window_start: Optional[float] = None
    _last: Optional[ServiceSnapshot] = None
    _cum_generated: int = 0

    def __post_init__(self):
        self.slot_starts = np.asarray(self.slot_starts, dtype=float)
        self.forecast_per_slot = np.asarray(self.forecast_per_slot,
                                            dtype=float)
        if len(self.slot_starts) != len(self.forecast_per_slot):
            raise SwitchboardError(
                "slot grid and forecast series disagree on length")
        if len(self.slot_starts) == 0:
            raise SwitchboardError("telemetry needs a non-empty slot grid")
        if self.slot_duration_s <= 0 or self.interval_s <= 0:
            raise SwitchboardError(
                "slot duration and interval must be positive")
        # The pending window's accumulators.
        self._agg = {"generated": 0, "admitted": 0, "migrated": 0,
                     "overflowed": 0, "unplanned": 0}

    # ------------------------------------------------------------------
    @property
    def horizon_start_s(self) -> float:
        return float(self.slot_starts[0])

    @property
    def horizon_end_s(self) -> float:
        return float(self.slot_starts[-1]) + self.slot_duration_s

    def _forecast_between(self, t0: float, t1: float) -> float:
        """Base-forecast calls prorated onto [t0, t1) by slot overlap."""
        if t1 <= t0:
            return 0.0
        ends = self.slot_starts + self.slot_duration_s
        overlap = (np.minimum(ends, t1) - np.maximum(self.slot_starts, t0))
        overlap = np.clip(overlap, 0.0, None) / self.slot_duration_s
        return float((overlap * self.forecast_per_slot).sum())

    def remaining_forecast_peak(self, t_s: float) -> Optional[float]:
        """Peak per-slot forecast among slots starting strictly after
        ``t_s``; ``None`` once the horizon is exhausted."""
        future = self.forecast_per_slot[self.slot_starts > t_s]
        if len(future) == 0:
            return None
        return float(future.max())

    # ------------------------------------------------------------------
    def add(self, snapshot: ServiceSnapshot,
            settle_tail_ms: Optional[Dict[str, Optional[float]]] = None
            ) -> Optional[TelemetryWindow]:
        """Fold one engine snapshot in; returns the closed
        :class:`TelemetryWindow` when this snapshot completes one."""
        if self._last is None:
            # The first snapshot closes the span back to (approximately)
            # the stream start: the later of the horizon start and one
            # interval before it.
            self._window_start = min(
                snapshot.t_s,
                max(self.horizon_start_s, snapshot.t_s - self.interval_s))
            prev = ServiceSnapshot(t_s=self._window_start)
        else:
            prev = self._last
        self._last = snapshot

        delta_generated = snapshot.generated - prev.generated
        self._agg["generated"] += delta_generated
        self._agg["admitted"] += snapshot.admitted - prev.admitted
        self._agg["migrated"] += snapshot.migrated - prev.migrated
        self._agg["overflowed"] += snapshot.overflowed - prev.overflowed
        self._agg["unplanned"] += snapshot.unplanned - prev.unplanned
        self._cum_generated += delta_generated

        if (snapshot.t_s - self._window_start
                < _CLOSE_FRACTION * self.interval_s):
            return None

        window = TelemetryWindow(
            index=self._windows_emitted,
            t_start_s=self._window_start,
            t_end_s=snapshot.t_s,
            generated=self._agg["generated"],
            admitted=self._agg["admitted"],
            migrated=self._agg["migrated"],
            overflowed=self._agg["overflowed"],
            unplanned=self._agg["unplanned"],
            forecast_calls=self._forecast_between(self._window_start,
                                                  snapshot.t_s),
            cumulative_generated=self._cum_generated,
            cumulative_forecast=self._forecast_between(self.horizon_start_s,
                                                       snapshot.t_s),
            remaining_forecast_peak=self.remaining_forecast_peak(
                snapshot.t_s),
            settle_tail_ms=settle_tail_ms,
        )
        self._windows_emitted += 1
        self._window_start = snapshot.t_s
        for key in self._agg:
            self._agg[key] = 0
        return window
