"""The scenario-storm DSL: composable workload/fault overlays.

Production pain is *correlated*: a viral mega-meeting lands during a DC
outage, daylight-saving moves every peak by an hour, a country-scale
event synchronizes joins (paper §8 motivates the recurring-meeting
structure that makes some of it predictable).  A :class:`Storm` is one
such overlay; a :class:`StormPlan` composes several onto one shared
timeline:

* ``a.overlay(b)`` — ``b`` happens *at its own declared window*,
  layered on top of ``a`` (correlated stress: flash crowd + outage in
  the same hour);
* ``a.then(b)`` — ``b`` is time-shifted to begin where ``a``'s window
  ends (a cascade: one surge rolling into the next).

Every overlay has up to three faces, all optional:

* :meth:`Storm.apply_demand` — a **vectorized** transform of the
  ``D_tc`` matrix (deterministic; Poisson realization happens once, in
  :meth:`StormPlan.realize`);
* :meth:`Storm.apply_trace` — a **vectorized** transform of an already
  generated :class:`~repro.workload.columnar.ColumnarTrace`, built on
  the columnar overlay hooks (``replace`` / ``permute_calls`` /
  ``repeat_calls``) — no per-event Python loops;
* :meth:`Storm.fault_specs` — the co-scheduled
  :class:`~repro.resilience.faults.FaultSpec` entries, merged across
  the plan into one deterministic
  :class:`~repro.resilience.faults.FaultPlan`.

Windows are in seconds on the trace's slot grid.  A demand transform
touches exactly the slots its window overlaps; a trace transform
touches exactly the calls *starting* inside the window.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import WorkloadError
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.workload.arrivals import Demand
from repro.workload.columnar import ColumnarTrace

__all__ = [
    "ClockShift",
    "FlashCrowd",
    "LinkCut",
    "RecurringSeries",
    "RegionalOutage",
    "Storm",
    "StormPlan",
    "SynchronizedJoins",
]

_SECONDS_PER_DAY = 86400.0


def _slot_info(demand: Demand) -> Tuple[np.ndarray, np.ndarray]:
    starts = np.array([s.start_s for s in demand.slots])
    durs = np.array([s.duration_s for s in demand.slots])
    return starts, durs


def _horizon_s(slots) -> float:
    last = slots[-1]
    return float(last.start_s + last.duration_s)


@dataclass(frozen=True)
class Storm:
    """One overlay on the shared storm timeline.

    ``start_s``/``duration_s`` declare the active window;
    ``duration_s=None`` means "to the end of the grid".  Subclasses
    override any of the three faces; the base class is the identity
    storm (and the ``empty storm == byte-identical trace`` contract the
    tests pin).
    """

    start_s: float = 0.0
    duration_s: Optional[float] = None

    # -- timeline ------------------------------------------------------
    def window(self, horizon_s: float) -> Tuple[float, float]:
        """The absolute ``[lo, hi)`` window on a grid of this horizon."""
        lo = self.start_s
        hi = horizon_s if self.duration_s is None else lo + self.duration_s
        return lo, min(hi, horizon_s)

    @property
    def end_s(self) -> float:
        """Where ``then()`` sequencing resumes after this overlay.

        Unbounded overlays (``duration_s=None``) do not advance the
        cursor — they are backdrops, not episodes.
        """
        return self.start_s + (self.duration_s or 0.0)

    def shifted(self, dt_s: float) -> "Storm":
        """This overlay moved ``dt_s`` seconds along the timeline."""
        return dataclasses.replace(self, start_s=self.start_s + dt_s)

    # -- the three faces ----------------------------------------------
    def apply_demand(self, demand: Demand) -> Demand:
        return demand

    def apply_trace(self, trace: ColumnarTrace,
                    rng: np.random.Generator) -> ColumnarTrace:
        return trace

    def fault_specs(self) -> List[FaultSpec]:
        return []

    # -- composition sugar --------------------------------------------
    def then(self, other) -> "StormPlan":
        return StormPlan((self,)).then(other)

    def overlay(self, other) -> "StormPlan":
        return StormPlan((self,)).overlay(other)

    def plan(self) -> "StormPlan":
        return StormPlan((self,))

    def describe(self) -> str:
        window = (f"@{self.start_s:.0f}s"
                  + ("" if self.duration_s is None
                     else f"+{self.duration_s:.0f}s"))
        return f"{type(self).__name__}({window})"

    # -- shared helpers -----------------------------------------------
    def _slot_mask(self, demand: Demand) -> np.ndarray:
        """Slots this window overlaps (half-open interval overlap)."""
        starts, durs = _slot_info(demand)
        lo, hi = self.window(_horizon_s(demand.slots))
        return (starts < hi) & (starts + durs > lo)

    def _call_mask(self, trace: ColumnarTrace) -> np.ndarray:
        """Calls starting inside this window."""
        lo, hi = self.window(_horizon_s(trace.slots))
        return (trace.start_s >= lo) & (trace.start_s < hi)


@dataclass(frozen=True)
class FlashCrowd(Storm):
    """Demand in the window runs at ``factor`` times the base.

    On the demand face the window's counts scale by ``factor``
    (optionally only the ``config_indices`` columns).  On the trace
    face, calls starting in the window are replicated so the expected
    call count matches ``factor`` (extra copies drawn from the plan's
    seeded RNG, fresh canonical uids); ``factor < 1`` thins instead.
    Overlapping flash crowds compose multiplicatively — two 2x crowds
    on the same slots are a 4x crowd.
    """

    factor: float = 2.0
    config_indices: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.factor < 0:
            raise WorkloadError("flash-crowd factor must be non-negative")

    def apply_demand(self, demand: Demand) -> Demand:
        mask = self._slot_mask(demand)
        counts = demand.counts.copy()
        if self.config_indices is None:
            counts[mask] *= self.factor
        else:
            counts[np.ix_(mask, np.asarray(self.config_indices))] *= self.factor
        return Demand(demand.slots, demand.configs, counts)

    def apply_trace(self, trace: ColumnarTrace,
                    rng: np.random.Generator) -> ColumnarTrace:
        if trace.n_calls == 0:
            return trace
        # (config_indices is a demand-face refinement; the trace face
        # replicates every call in the window.)
        mask = self._call_mask(trace)
        reps = np.ones(trace.n_calls, dtype=np.int64)
        n_sel = int(mask.sum())
        if n_sel == 0 or self.factor == 1.0:
            return trace
        if self.factor >= 1.0:
            reps[mask] = 1 + rng.poisson(self.factor - 1.0, n_sel)
        else:
            reps[mask] = (rng.random(n_sel) < self.factor).astype(np.int64)
        return trace.repeat_calls(reps)

    def describe(self) -> str:
        return f"FlashCrowd(x{self.factor:g}@{self.start_s:.0f}s)"


@dataclass(frozen=True)
class SynchronizedJoins(Storm):
    """A country-scale event: everyone shows up nearly at once.

    Calls starting in the window have their participant join offsets
    compressed so each call's slowest joiner arrives within
    ``compress_to_s`` of call start (scaling preserves order and keeps
    the first joiner at offset 0).  ``countries`` optionally restricts
    the effect to calls whose first joiner sits in one of the named
    countries.  Join-time CDFs, freeze-window config resolution, and
    admission burst shape all feel this.
    """

    compress_to_s: float = 45.0
    countries: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if self.compress_to_s <= 0:
            raise WorkloadError("compress_to_s must be positive")

    def apply_trace(self, trace: ColumnarTrace,
                    rng: np.random.Generator) -> ColumnarTrace:
        if trace.n_calls == 0:
            return trace
        mask = self._call_mask(trace)
        if self.countries is not None:
            codes = {trace.countries.code(c) for c in self.countries}
            first = trace.first_country_codes()
            mask &= np.isin(first, np.array(sorted(codes), dtype=np.int64))
        if not mask.any():
            return trace
        call_max = np.maximum.reduceat(trace.join_offset_s,
                                       trace.part_offsets[:-1])
        factor = np.ones(trace.n_calls)
        squeeze = mask & (call_max > self.compress_to_s)
        factor[squeeze] = self.compress_to_s / call_max[squeeze]
        row_factor = np.repeat(factor, np.diff(trace.part_offsets))
        return trace.replace(join_offset_s=trace.join_offset_s * row_factor)

    def describe(self) -> str:
        where = ",".join(self.countries) if self.countries else "*"
        return (f"SynchronizedJoins(<= {self.compress_to_s:g}s, {where}"
                f"@{self.start_s:.0f}s)")


@dataclass(frozen=True)
class ClockShift(Storm):
    """Daylight saving: every peak moves by ``shift_s`` seconds.

    The demand matrix rolls by whole slots; the trace face shifts every
    call start modulo the grid horizon (a call pushed past the day
    boundary wraps to the small hours, exactly like the rolled demand)
    and re-sorts calls to restore the start-sorted invariant.  Negative
    ``shift_s`` is spring-forward (peaks arrive earlier).
    """

    shift_s: float = -3600.0

    def apply_demand(self, demand: Demand) -> Demand:
        slot_dur = demand.slots[0].duration_s
        k = int(round(self.shift_s / slot_dur))
        return Demand(demand.slots, demand.configs,
                      np.roll(demand.counts, k, axis=0))

    def apply_trace(self, trace: ColumnarTrace,
                    rng: np.random.Generator) -> ColumnarTrace:
        if trace.n_calls == 0:
            return trace
        horizon = _horizon_s(trace.slots)
        shifted = np.mod(trace.start_s + self.shift_s, horizon)
        perm = np.argsort(shifted, kind="stable")
        return trace.replace(start_s=shifted).permute_calls(perm)

    def describe(self) -> str:
        return f"ClockShift({self.shift_s:+g}s)"


@dataclass(frozen=True)
class RecurringSeries(Storm):
    """Predictable recurring-meeting structure surging (paper §8).

    The ``top_k`` busiest configs — the stand-in for large recurring
    series, whose attendance the paper's MOMC models predict — run at
    ``boost`` times their base demand inside the window.  Deterministic
    and demand-face only: the predictable part of the storm is exactly
    the part a forecaster could have seen coming.
    """

    boost: float = 1.5
    top_k: int = 3

    def __post_init__(self):
        if self.boost < 0:
            raise WorkloadError("series boost must be non-negative")
        if self.top_k < 1:
            raise WorkloadError("top_k must be >= 1")

    def apply_demand(self, demand: Demand) -> Demand:
        mask = self._slot_mask(demand)
        totals = demand.counts.sum(axis=0)
        # Stable top-k: ties broken by column index.
        order = np.argsort(-totals, kind="stable")[:min(self.top_k,
                                                        totals.shape[0])]
        counts = demand.counts.copy()
        counts[np.ix_(mask, order)] *= self.boost
        return Demand(demand.slots, demand.configs, counts)

    def describe(self) -> str:
        return f"RecurringSeries(x{self.boost:g}, top{self.top_k})"


def _outage_timing(storm: Storm):
    """``(at_day, until_day, at_s, until_s)`` for a fault-face overlay.

    The window's start day anchors the day-granularity consumers (the
    storm drills' failure-scenario plan); ``at_s``/``until_s`` carry the
    exact onset/heal for the live plane (``repro.migrate``).  A bounded
    window healing within its start day keeps ``until_day=None`` — the
    day-granularity view still sees a whole-day outage, the live view
    drains back mid-day.
    """
    at_day = int(storm.start_s // _SECONDS_PER_DAY)
    until_s = (storm.start_s + storm.duration_s
               if storm.duration_s is not None else None)
    until_day = None
    if until_s is not None:
        until_day = int(until_s // _SECONDS_PER_DAY)
        if until_day <= at_day:
            until_day = None
    return at_day, until_day, storm.start_s, until_s


@dataclass(frozen=True)
class RegionalOutage(Storm):
    """A datacenter is down for the window (wraps ``FaultPlan``).

    Pure fault-face overlay: no workload change, but the plan's merged
    fault timeline gains a ``dc_failure`` at the window's day, which the
    chaos harness consumes by planning the allocation for the failure
    scenario.  A bounded window (``duration_s``) gives the outage an
    end: the live migration plane drains back at ``until_s``.
    """

    dc: str = ""

    def __post_init__(self):
        if not self.dc:
            raise WorkloadError("RegionalOutage needs dc=")

    def fault_specs(self) -> List[FaultSpec]:
        at_day, until_day, at_s, until_s = _outage_timing(self)
        return [FaultSpec(kind="dc_failure", dc=self.dc, at_day=at_day,
                          until_day=until_day, at_s=at_s, until_s=until_s)]

    def describe(self) -> str:
        return f"RegionalOutage({self.dc}@day{int(self.start_s // 86400)})"


@dataclass(frozen=True)
class LinkCut(Storm):
    """A WAN link is cut for the window (wraps ``FaultPlan``)."""

    link: str = ""

    def __post_init__(self):
        if not self.link:
            raise WorkloadError("LinkCut needs link=")

    def fault_specs(self) -> List[FaultSpec]:
        at_day, until_day, at_s, until_s = _outage_timing(self)
        return [FaultSpec(kind="link_failure", link=self.link, at_day=at_day,
                          until_day=until_day, at_s=at_s, until_s=until_s)]

    def describe(self) -> str:
        return f"LinkCut({self.link}@day{int(self.start_s // 86400)})"


class StormPlan:
    """An ordered composition of overlays on one shared timeline.

    Built with :meth:`overlay` (correlated, absolute windows) and
    :meth:`then` (sequenced, windows shifted to follow).  Application
    order is the composition order on both the demand and trace faces;
    the fault faces merge into one deterministic
    :class:`~repro.resilience.faults.FaultPlan` via ``FaultPlan.compose``.
    Immutable: every composition returns a new plan.
    """

    def __init__(self, overlays: Sequence[Storm] = (), name: str = "storm"):
        self.overlays: Tuple[Storm, ...] = tuple(overlays)
        self.name = name

    # -- composition ---------------------------------------------------
    def _coerce(self, other) -> Tuple[Storm, ...]:
        if isinstance(other, StormPlan):
            return other.overlays
        if isinstance(other, Storm):
            return (other,)
        raise WorkloadError(
            f"can only compose Storm/StormPlan, got {type(other).__name__}")

    def overlay(self, other) -> "StormPlan":
        """Layer ``other`` at its own declared window(s)."""
        return StormPlan(self.overlays + self._coerce(other), self.name)

    def then(self, other) -> "StormPlan":
        """Sequence ``other`` to begin where this plan's episodes end."""
        cursor = self.end_s
        shifted = tuple(o.shifted(cursor) for o in self._coerce(other))
        return StormPlan(self.overlays + shifted, self.name)

    def named(self, name: str) -> "StormPlan":
        return StormPlan(self.overlays, name)

    @property
    def end_s(self) -> float:
        """The latest finite episode end (the ``then()`` cursor)."""
        return max((o.end_s for o in self.overlays), default=0.0)

    def __len__(self) -> int:
        return len(self.overlays)

    # -- application ---------------------------------------------------
    def apply_demand(self, demand: Demand) -> Demand:
        """All demand faces, in composition order (deterministic)."""
        for storm in self.overlays:
            demand = storm.apply_demand(demand)
        return demand

    def apply_trace(self, trace: ColumnarTrace, seed: int = 0,
                    demand_applied: bool = False) -> ColumnarTrace:
        """All trace faces, in composition order, under one seeded RNG.

        ``demand_applied=True`` is the full-pipeline mode: the trace was
        generated from demand this plan already transformed, so overlays
        *with* a demand face (flash crowds, clock shifts, series boosts
        — their effect is already in the call mix) are skipped and only
        the trace-only dynamics (e.g. join-time compression) run.
        Dual-face overlays therefore never double-apply.
        """
        rng = np.random.default_rng(seed)
        for storm in self.overlays:
            if (demand_applied
                    and type(storm).apply_demand is not Storm.apply_demand):
                continue
            trace = storm.apply_trace(trace, rng)
        return trace

    def realize(self, base: Demand, seed: int) -> Demand:
        """The day that actually happens: stormed demand, Poisson-drawn.

        Applies every demand face to ``base`` and realizes the result as
        one Poisson draw (matching the historical surprise helper: the
        draw is over the *stormed* expectation, with ``seed`` feeding a
        fresh ``default_rng``).
        """
        stormed = self.apply_demand(base)
        rng = np.random.default_rng(seed)
        return Demand(stormed.slots, stormed.configs,
                      rng.poisson(stormed.counts).astype(float))

    def fault_plan(self) -> FaultPlan:
        """Every overlay's faults, merged deterministically."""
        plans = [FaultPlan(storm.fault_specs()) for storm in self.overlays]
        if not plans:
            return FaultPlan.none()
        return plans[0].compose(*plans[1:])

    def describe(self) -> str:
        if not self.overlays:
            return f"{self.name}: (identity)"
        return f"{self.name}: " + " + ".join(o.describe()
                                             for o in self.overlays)

    def __repr__(self) -> str:
        return f"StormPlan({self.name!r}, {len(self.overlays)} overlays)"
