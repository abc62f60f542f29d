"""The live migration executor: drains DCs through the ledgers.

:class:`MigrationExecutor` runs on the engine's **window barrier** —
the quiescent point between event batches where defrag rounds and
autoscale rescales already run, on both the thread and the process
executor.  Each window it:

1. activates pending :class:`DrainOrder`\\ s whose onset has arrived
   (adding the DC to the selector's shared ``down_dcs`` set, so new
   settles stop landing there) and heals orders whose end has passed
   (drain-back: the DC leaves the down set and may serve again);
2. walks the live calls on every draining DC — in deterministic
   ``(slot_index, call_id)`` order — and moves each through the ledger:
   **destination debited before source credited**, at most
   ``max_moves_per_window`` calls per window;
3. records per-move latency into an obs histogram, and every call with
   no feasible destination as **disrupted** — never silently dropped.

A move never touches per-call kvstore state (``call:*`` keys live in
worker-private stores on the process executor); only ledger state
moves, which is parent-owned on both executors — that is what keeps
thread/process reports byte-identical.

Disruption is a *placement* category, not an accounting one: a migrated
call keeps whatever admitted/migrated/overflowed bucket its settle
chose, so the exact-accounting partition is untouched.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from repro.config import MigrationConfig
from repro.migrate.planner import MigrationPlanner
from repro.migrate.registry import CallRegistry, LiveCall
from repro.obs.events import Observability
from repro.obs.histogram import LatencyHistogram

__all__ = ["DrainOrder", "MigrationExecutor"]

_SECONDS_PER_DAY = 86400.0


@dataclass
class DrainOrder:
    """Evacuate one DC, starting at ``at_s``; heal at ``until_s``."""

    dc: str
    at_s: float = 0.0
    until_s: Optional[float] = None
    reason: str = "drain"


@dataclass
class _CellDrain:
    """Deferred autoscale drain: move calls out of one plan cell."""

    slot_index: int
    config: object
    dc: str
    remaining: int


class MigrationExecutor:
    """Applies drain orders through the engine's ledger, batch-windowed."""

    def __init__(self, config: Optional[MigrationConfig] = None,
                 obs: Optional[Observability] = None):
        self.config = config if config is not None else MigrationConfig()
        self.obs = obs
        self.registry = CallRegistry()
        self.planner: Optional[MigrationPlanner] = None
        self._engine = None
        self._lock = threading.Lock()
        self._orders: List[DrainOrder] = []
        self._active: List[DrainOrder] = []
        self._order_log: List[DrainOrder] = []
        self._cell_drains: List[_CellDrain] = []
        #: Shared with the selector via :meth:`bind` — membership changes
        #: steer subsequent settles without re-wiring.
        self._down: Set[str] = set()
        #: Per-move latency (ms); wall-clock, excluded from canonical
        #: report comparisons.
        self.latency = LatencyHistogram()
        self.live_migrated = 0
        self.disrupted = 0
        self.fallback_moves = 0
        self.deferred_drain_moves = 0
        self.deferred_drain_misses = 0
        self.batches = 0
        self.candidates = 0
        self.heals = 0

    # -- wiring --------------------------------------------------------
    @property
    def interval_s(self) -> float:
        return self.config.interval_s

    def bind(self, engine) -> None:
        """Attach to a running engine: selector feed + ledger access."""
        self._engine = engine
        self.planner = MigrationPlanner(engine.topology, engine.ledger)
        engine.selector.registry = self.registry
        engine.selector.down_dcs = self._down

    def down_dcs(self) -> Set[str]:
        with self._lock:
            return set(self._down)

    # -- order intake --------------------------------------------------
    def order_drain(self, dc: str, at_s: float = 0.0,
                    until_s: Optional[float] = None,
                    reason: str = "drain") -> DrainOrder:
        """Schedule a DC evacuation (operator drain or failover)."""
        order = DrainOrder(dc=dc, at_s=at_s, until_s=until_s, reason=reason)
        with self._lock:
            self._orders.append(order)
            self._order_log.append(order)
        return order

    def watch(self, fault_plan, day: int = 0) -> List[DrainOrder]:
        """Consume a :class:`~repro.resilience.faults.FaultPlan`'s DC
        failures for ``day`` into drain orders.

        ``at_s``/``until_s`` on the spec give intra-day onset and heal;
        a day-granularity spec fails at the day boundary and heals at
        ``until_day`` (never, when the spec has no end).  Link failures
        carry no DC to evacuate and are left to the allocation layer.
        """
        day_start = day * _SECONDS_PER_DAY
        orders: List[DrainOrder] = []
        for spec in fault_plan.take_topology_faults(day):
            if spec.kind != "dc_failure" or not spec.dc:
                continue
            at_s = spec.at_s if spec.at_s is not None else day_start
            until_s = spec.until_s
            if until_s is None and spec.until_day is not None:
                until_s = spec.until_day * _SECONDS_PER_DAY
            orders.append(self.order_drain(
                spec.dc, at_s=at_s, until_s=until_s,
                reason=f"fault:{spec.describe()}"))
        return orders

    def request_cell_drain(self, slot_index: int, config, dc: str,
                           count: int) -> None:
        """Autoscale scale-down found ``count`` slots still held by live
        calls: move those calls out at the next window, *without*
        crediting the vacated source slots (completing the drain)."""
        if count < 1:
            return
        with self._lock:
            self._cell_drains.append(_CellDrain(
                slot_index=slot_index, config=config, dc=dc,
                remaining=count))

    # -- the window hook -----------------------------------------------
    def on_window(self, snapshot) -> int:
        """One migration batch at the engine's window barrier.

        Returns how many candidates were processed (moved or recorded
        disrupted) this window; at most ``max_moves_per_window``.
        """
        t_s = float(getattr(snapshot, "t_s", snapshot))
        with self._lock:
            for order in [o for o in self._orders if o.at_s <= t_s]:
                self._orders.remove(order)
                self._active.append(order)
                self._down.add(order.dc)
                if self.obs is not None:
                    self.obs.record("migrate.drain_start", label=order.dc,
                                    reason=order.reason, t_s=t_s)
            for order in [o for o in self._active
                          if o.until_s is not None and o.until_s <= t_s]:
                self._active.remove(order)
                if not any(a.dc == order.dc for a in self._active):
                    self._down.discard(order.dc)
                self.heals += 1
                if self.obs is not None:
                    self.obs.record("migrate.drain_end", label=order.dc,
                                    reason=order.reason, t_s=t_s)
            active = sorted(self._active, key=lambda o: (o.at_s, o.dc))
            drains = list(self._cell_drains)
        budget = self.config.max_moves_per_window
        processed = 0
        for order in active:
            if processed >= budget:
                break
            processed += self._drain_dc(order.dc, budget - processed)
        for request in drains:
            if processed >= budget:
                break
            processed += self._drain_cell(request, budget - processed)
        with self._lock:
            self._cell_drains = [r for r in self._cell_drains
                                 if r.remaining > 0]
        if processed:
            self.batches += 1
        return processed

    # -- move mechanics ------------------------------------------------
    def _drain_dc(self, dc: str, budget: int) -> int:
        processed = 0
        for call in self.registry.live_on(dc):
            if processed >= budget:
                break
            processed += 1
            self.candidates += 1
            move_start = perf_counter()
            dest, kind = self._move(call)
            self.latency.record((perf_counter() - move_start) * 1000.0)
            if dest is None:
                self.disrupted += 1
                self.registry.mark_disrupted(call.call_id)
                if self.obs is not None:
                    self.obs.record("migrate.disrupted",
                                    label=call.call_id, dc=dc)
            else:
                self.live_migrated += 1
                if kind == "fallback":
                    self.fallback_moves += 1
                if self.obs is not None:
                    self.obs.record("migrate.move", label=call.call_id,
                                    src=dc, dst=dest, move_kind=kind)
        return processed

    def _move(self, call: LiveCall) -> Tuple[Optional[str], str]:
        """Find and commit a destination; None means disrupted."""
        down = self.down_dcs()
        if call.has_debit:
            for dest in self.planner.destinations(call, down):
                if self._relocate(call, dest, credit_source=True):
                    self.registry.on_move(call.call_id, dest,
                                          has_debit=True)
                    return dest, "planned"
            return None, "disrupted"
        # Overflow/fallback placements hold no debit: try a full
        # admission into an open cell first (the call gains a debit at
        # the destination), else the pure topology fallback.
        for dest in self.planner.destinations(call, down):
            if self._engine.ledger.try_debit(call.slot_index, call.config,
                                             dest, call_id=call.call_id):
                self.registry.on_move(call.call_id, dest, has_debit=True)
                return dest, "admitted"
        dest = self.planner.fallback_dc(call, down)
        if dest is not None:
            self.registry.on_move(call.call_id, dest, has_debit=False)
            return dest, "fallback"
        return None, "disrupted"

    def _relocate(self, call: LiveCall, dest: str,
                  credit_source: bool) -> bool:
        """Debit destination before crediting source, on either ledger."""
        ledger = self._engine.ledger
        relocate = getattr(ledger, "relocate_call", None)
        if relocate is not None:
            return bool(relocate(call.call_id, call.slot_index, call.config,
                                 dest, credit_source=credit_source))
        if not ledger.try_debit(call.slot_index, call.config, dest):
            return False
        if credit_source:
            ledger.credit(call.slot_index, call.config, call.dc)
        return True

    def _drain_cell(self, request: _CellDrain, budget: int) -> int:
        processed = 0
        down = self.down_dcs()
        calls = self.registry.live_in_cell(request.slot_index,
                                           request.config, request.dc)
        for call in calls:
            if processed >= budget or request.remaining <= 0:
                break
            processed += 1
            moved = False
            move_start = perf_counter()
            for dest in self.planner.destinations(call, down):
                if self._relocate(call, dest, credit_source=False):
                    self.registry.on_move(call.call_id, dest)
                    moved = True
                    break
            self.latency.record((perf_counter() - move_start) * 1000.0)
            if moved:
                self.deferred_drain_moves += 1
                request.remaining -= 1
            else:
                # No open cell anywhere else: the call keeps serving
                # where it is; the drain stays incomplete (the
                # autoscaler re-issues on its next shortfall).
                self.deferred_drain_misses += 1
                request.remaining = 0
        return processed

    # -- reporting -----------------------------------------------------
    def migration_metrics(self) -> Dict[str, object]:
        """The deterministic migration block a ServiceReport carries.

        Wall-clock quantities (per-move latency) are deliberately *not*
        in here — this dict must be identical across executors and
        worker counts for the same served input.
        """
        with self._lock:
            return {
                "orders": len(self._order_log),
                "drained_dcs": sorted({o.dc for o in self._order_log}),
                "live_migrated_calls": self.live_migrated,
                "disrupted_calls": self.disrupted,
                "fallback_moves": self.fallback_moves,
                "deferred_drain_moves": self.deferred_drain_moves,
                "deferred_drain_misses": self.deferred_drain_misses,
                "batches": self.batches,
                "candidates": self.candidates,
                "heals": self.heals,
                "max_moves_per_window": self.config.max_moves_per_window,
            }
