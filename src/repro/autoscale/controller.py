"""The closed-loop autoscaler: telemetry -> policy -> re-provision.

:class:`Autoscaler` closes the loop between the service plane and the
planner.  The admission engine hands it a cumulative
:class:`~repro.autoscale.telemetry.ServiceSnapshot` at every serving-
window boundary (workers quiescent, same safe point the defragmenter
uses); the aggregator folds snapshots into telemetry windows; the policy
turns windows into scale decisions; and this controller applies them:

* **Rescale** (on a non-hold decision): re-run the planner's
  ``provision()`` over the *strictly future* slots of the base forecast,
  scaled to the decision's target, and solve that tail's slice of the
  forecast's one allocation LP (``allocate_tail``); then diff the new
  integerized plan against the live plan as integer grids and apply the
  delta through the ledger — ``add_slots`` for growth, ``remove_slots``
  for shrink.
  ``remove_slots`` is a debit loop: it can only take *free* slots, so a
  scale-down drains capacity without ever dropping an in-flight call
  (calls settled into a cell hold their debit until END).  Restricting
  deltas to slots starting after "now" means no settled debit can live
  in a touched cell in the first place.
* **Rolling capacity refresh** (every window, decisions or not): re-run
  ``provision()`` over just the next :data:`PROVISION_HORIZON_SLOTS`
  slots at the current scale.  Provisioned capacity therefore follows the
  demand curve instead of holding the daily peak around the clock —
  this, not the rescales, is where the capacity-hours win comes from.

Both paths ride the same :mod:`repro.resilience` degradation ladder as
the offline planner, so a mid-day re-provision under solver pressure
degrades (and is tagged) instead of failing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.allocation.plan import AllocationPlan
from repro.config import AutoscaleConfig
from repro.core.errors import SwitchboardError
from repro.obs.events import Observability
from repro.workload.arrivals import Demand

from repro.autoscale.policy import AutoscalePolicy, ScaleDecision
from repro.autoscale.telemetry import (
    ServiceSnapshot,
    TelemetryAggregator,
    TelemetryWindow,
)

#: The rolling capacity window: each interval ``provision()`` re-runs
#: over the next this-many slots at the current scale, so provisioned
#: cores follow the demand curve instead of holding the daily peak.
PROVISION_HORIZON_SLOTS = 4


class Autoscaler:
    """Rolling re-provision loop between service plane and planner.

    ``controller`` has a ``topology`` and provides ``provision(demand,
    with_backup=...)``, ``allocation_lp(demand)`` and
    ``allocate_tail(allocation, capacity, k, scale)`` — in practice a
    :class:`~repro.switchboard.Switchboard`.  ``forecast`` is the *base*
    demand the live plan was provisioned for; ``plan`` is that live
    plan.  Bind to an engine (``rescaler=`` on
    :class:`~repro.service.engine.AdmissionEngine`) and the loop runs
    itself.
    """

    def __init__(self, controller, forecast: Demand, plan: AllocationPlan,
                 config: Optional[AutoscaleConfig] = None,
                 capacity=None, obs: Optional[Observability] = None,
                 with_backup: bool = False, migrator=None):
        if forecast.n_slots == 0:
            raise SwitchboardError("autoscaler needs a non-empty forecast")
        self.controller = controller
        self.forecast = forecast
        self.config = config or AutoscaleConfig()
        self.obs = obs
        self.with_backup = with_backup
        #: Optional :class:`~repro.migrate.MigrationExecutor`: scale-down
        #: slots still held by settled calls are handed over as deferred
        #: cell drains (the calls move out, the vacated slots are never
        #: credited back) instead of counting as shortfall.
        self.migrator = migrator
        self.policy = AutoscalePolicy(self.config)

        slot_starts = np.array([s.start_s for s in forecast.slots],
                               dtype=float)
        self.aggregator = TelemetryAggregator(
            slot_starts=slot_starts,
            slot_duration_s=forecast.slots[0].duration_s,
            forecast_per_slot=forecast.counts.sum(axis=1),
            interval_s=self.config.interval_s,
        )
        # Plans are diffed on one (slot, config, DC) integer grid: the
        # forecast's slots and configs (then any other slot or config the
        # live plan holds) and every DC, sorted by id.
        self._configs = list(forecast.configs)
        known = set(self._configs)
        dc_ids = set(controller.topology.fleet.ids)
        n_slots = forecast.n_slots
        for (t, config), cell in plan.shares.items():
            if config not in known:
                known.add(config)
                self._configs.append(config)
            dc_ids.update(cell)
            n_slots = max(n_slots, t + 1)
        self._dc_ids = sorted(dc_ids)
        #: The integerized plan as the ledger currently reflects it,
        #: updated cell by cell as rescale deltas apply.
        self.live_slots = plan.integerized_grid(self._configs,
                                                self._dc_ids, n_slots)
        #: Config axis in diff order (by ``repr``).
        self._diff_order = np.array(
            sorted(range(len(self._configs)),
                   key=lambda j: repr(self._configs[j])), dtype=np.int64)
        #: Eq 10 over the whole forecast, assembled at the first rescale;
        #: each rescale solves its tail slice.
        self._allocation = None

        self.windows: List[TelemetryWindow] = []
        self.decisions: List[ScaleDecision] = []
        self.rescale_events = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.slots_added = 0
        self.slots_drained = 0
        #: Slots a scale-down wanted to drain but found settled (debited)
        #: — nonzero would mean a drain touched live capacity.
        self.drain_shortfall = 0
        #: Held slots handed to the migrator as deferred cell drains.
        self.drains_deferred = 0
        self.max_degradation_level = 0

        #: The controller's warm-cache counters at construction, so
        #: :meth:`autoscale_metrics` reports this run's share of them.
        warmstart = getattr(controller, "warmstart_stats", None)
        self._warm_base = warmstart() if callable(warmstart) else None
        self._engine = None
        self._tail_mark = 0
        #: Piecewise-constant provisioned capacity: (t_start_s, cores).
        self._segments: List[Tuple[float, float]] = []
        if capacity is not None:
            self.max_degradation_level = max(self.max_degradation_level,
                                             capacity.degradation_level)
            self._segments.append((self.aggregator.horizon_start_s,
                                   float(capacity.total_cores())))

    # ------------------------------------------------------------------
    @property
    def interval_s(self) -> float:
        return self.config.interval_s

    def bind(self, engine) -> None:
        """Called by the engine at construction; gives the loop access
        to the live ledger and the settle-latency histogram."""
        self._engine = engine

    # ------------------------------------------------------------------
    def on_window(self, snapshot: ServiceSnapshot) -> Optional[ScaleDecision]:
        """The loop body: fold one engine snapshot; when it closes a
        telemetry window, decide and (maybe) rescale.  Returns the
        decision when a window closed, ``None`` otherwise."""
        tail = None
        if self._engine is not None:
            tail = self._engine.settle_latency.tail_since(self._tail_mark)
        window = self.aggregator.add(snapshot, settle_tail_ms=tail)
        if window is None:
            return None
        if self._engine is not None:
            self._tail_mark = len(self._engine.settle_latency)
        self.windows.append(window)

        decision = self.policy.decide(window)
        self.decisions.append(decision)
        if decision.action != "hold":
            self._rescale(window, decision)
        self._refresh_capacity(window.t_end_s)
        return decision

    # ------------------------------------------------------------------
    def _future_slot_index(self, t_s: float) -> int:
        """First forecast-slot position starting strictly after ``t_s``
        — the earliest slot a rescale may touch (its cells cannot hold
        settled debits yet)."""
        starts = self.aggregator.slot_starts
        return int(np.searchsorted(starts, t_s, side="right"))

    def _rescale(self, window: TelemetryWindow,
                 decision: ScaleDecision) -> None:
        """Re-provision the strictly-future tail of the forecast at the
        decision's target scale and apply the plan delta via the ledger."""
        k = self._future_slot_index(window.t_end_s)
        slots = self.forecast.slots
        if k >= len(slots):
            return  # horizon exhausted; nothing left to reshape
        scale = decision.target_scale
        remaining = Demand(slots[k:], self.forecast.configs,
                           self.forecast.counts[k:] * scale)
        capacity = self.controller.provision(remaining,
                                             with_backup=self.with_backup)
        if self._allocation is None:
            self._allocation = self.controller.allocation_lp(self.forecast)
        outcome = self.controller.allocate_tail(self._allocation, capacity,
                                                k, scale)
        self.max_degradation_level = max(self.max_degradation_level,
                                         capacity.degradation_level,
                                         outcome.degradation_level)

        live = self.live_slots[k:]
        want = np.zeros_like(live)
        want[:len(slots) - k] = outcome.plan.integerized_grid(
            self._configs, self._dc_ids, len(slots) - k)
        # Cells in (slot, repr(config), DC id) order: ledger writes and
        # drain requests go out in the same order every run.
        order = self._diff_order
        delta = (want - live)[:, order]
        ledger = self._engine.ledger if self._engine is not None else None
        added = drained = shortfall = deferred = 0
        ts, cs, ds = np.nonzero(delta)
        for t, j, d, change in zip(ts.tolist(), order[cs].tolist(),
                                   ds.tolist(), delta[ts, cs, ds].tolist()):
            slot_index, config, dc_id = k + t, self._configs[j], \
                self._dc_ids[d]
            if change > 0:
                if ledger is not None:
                    ledger.add_slots(slot_index, config, dc_id, change)
                live[t, j, d] += change
                added += change
                continue
            if ledger is not None:
                got = ledger.remove_slots(slot_index, config, dc_id, -change)
            else:
                got = -change
            miss = -change - got
            handed = 0
            if miss > 0 and self.migrator is not None:
                # The held slots drain through a live move at the next
                # migration window: the calls relocate and the vacated
                # source slots are never credited — the drain completes
                # without touching a call.
                self.migrator.request_cell_drain(slot_index, config, dc_id,
                                                 miss)
                handed, miss = miss, 0
            live[t, j, d] -= got + handed
            drained += got
            deferred += handed
            shortfall += miss

        self.rescale_events += 1
        if decision.action == "scale_out":
            self.scale_ups += 1
        else:
            self.scale_downs += 1
        self.slots_added += added
        self.slots_drained += drained
        self.drain_shortfall += shortfall
        self.drains_deferred += deferred
        if self.obs is not None:
            self.obs.record(
                "autoscale.rescale",
                label=f"{decision.action} -> {decision.target_scale:.2f}x "
                      f"at t={window.t_end_s:.0f}s (+{added}/-{drained} "
                      f"slots): {decision.reason}")
            self.obs.counters.increment(f"autoscale.{decision.action}")

    # ------------------------------------------------------------------
    def _refresh_capacity(self, t_s: float) -> None:
        """Rolling short-horizon re-provision: size capacity for just
        the next :data:`PROVISION_HORIZON_SLOTS` slots at the current
        scale."""
        starts = self.aggregator.slot_starts
        # The slot currently in progress, then the lookahead.
        k = max(0, int(np.searchsorted(starts, t_s, side="right")) - 1)
        if k >= len(starts):
            return
        end = min(len(starts), k + PROVISION_HORIZON_SLOTS)
        horizon = Demand(self.forecast.slots[k:end], self.forecast.configs,
                         self.forecast.counts[k:end]
                         * self.policy.current_scale)
        capacity = self.controller.provision(horizon, with_backup=False)
        self.max_degradation_level = max(self.max_degradation_level,
                                         capacity.degradation_level)
        self._segments.append((t_s, float(capacity.total_cores())))

    # ------------------------------------------------------------------
    def capacity_core_hours(self, until_s: Optional[float] = None) -> float:
        """Integral of the piecewise-constant provisioned capacity over
        the horizon, in core-hours."""
        end = until_s if until_s is not None else self.aggregator.horizon_end_s
        total = 0.0
        for i, (t, cores) in enumerate(self._segments):
            t_next = (self._segments[i + 1][0]
                      if i + 1 < len(self._segments) else end)
            if t_next > t:
                total += cores * (t_next - t) / 3600.0
        return total

    def autoscale_metrics(self) -> Dict[str, object]:
        """Summary block merged into the :class:`ServiceReport`."""
        metrics: Dict[str, object] = {
            "windows": len(self.windows),
            "rescale_events": self.rescale_events,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "final_scale": round(self.policy.current_scale, 4),
            "slots_added": self.slots_added,
            "slots_drained": self.slots_drained,
            "drain_shortfall": self.drain_shortfall,
            "drains_deferred": self.drains_deferred,
            "capacity_core_hours": round(self.capacity_core_hours(), 3),
            "max_degradation_level": self.max_degradation_level,
            "decisions": [d.to_dict() for d in self.decisions],
        }
        # The rolling-horizon refreshes re-solve one LP signature every
        # window: report this run's lookups in the controller's warm
        # cache, so the telemetry shows re-priced instances and kept
        # bases at work.
        if self._warm_base is not None:
            stats = self.controller.warmstart_stats()
            metrics["warmstart"] = {
                name: value if name == "entries"
                else value - self._warm_base[name]
                for name, value in stats.items()}
        return metrics
