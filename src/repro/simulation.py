"""Multi-day service simulation: the Fig 6 loop operated continuously.

The paper's modules run on different cadences — provisioning every few
months, the allocation plan daily, the selector per call (§5).  This
simulator turns those cadences into a loop you can actually run:

1. **bootstrap** days place calls the pre-Switchboard way (closest DC to
   the first joiner) while the Call Records Database accumulates history;
2. every ``reprovision_every`` days, capacity is re-provisioned from
   forecasts of the top call configs (with the tail cushion);
3. every day, the allocation LP emits a plan for the next day inside the
   current capacity, and the day's realized calls are served by the
   online admission service (``repro.service``: event stream → sharded
   kvstore → the real-time selector core);
4. the day's outcomes (migrations, overflow, ACL) are recorded and the
   day's calls are ingested back into the records database.

The report per day is what a service operator would watch on a dashboard;
the capacity-change log is the paper's "the cloud provider may need to
change the amount provisioned from time to time".

Scale note: at this repo's synthetic volumes, per-(slot, config) call
counts are small Poisson draws, so "overflow" (more calls of a config
than the plan set slots aside for) is common relative to Teams scale —
overflowed calls are still served at their initial DC, exactly as §5.4's
slot-exhaustion path prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.errors import SwitchboardError
from repro.core.types import make_slots
from repro.core.units import DEFAULT_FREEZE_WINDOW_S, DEFAULT_SLOT_S
from repro.allocation.realtime import SelectorStats
from repro.config import PlannerConfig
from repro.controller.columnar import build_event_batch
from repro.service.runtime import ServiceRuntime
from repro.forecasting.forecaster import CallCountForecaster
from repro.metrics.capacity import capacity_diff
from repro.provisioning.planner import CapacityPlan
from repro.records.aggregation import cushion_factor, demand_from_database, ingest_trace
from repro.records.database import CallRecordsDatabase
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand, DemandModel
from repro.workload.columnar import ColumnarTrace
from repro.workload.trace import TraceGenerator

_SLOTS_PER_DAY = int(86400.0 / DEFAULT_SLOT_S)
#: Share of the records database's configs (by call volume) forecast
#: and provisioned for.
_TOP_CONFIG_FRACTION = 0.5
#: Capacity covers the forecast times the cushion, with no backup
#: capacity for a failure scenario.
_WITH_BACKUP = False
_TOPOLOGY_FAULTS = ("dc_failure", "link_failure")


@dataclass
class DayReport:
    """One operational day as the dashboard would show it."""

    day: int
    n_calls: int
    migrations: int
    migration_rate: float
    unplanned_rate: float
    overflow_calls: int
    mean_acl_ms: float
    reprovisioned: bool
    capacity_cost: float
    cores_added: float = 0.0
    cores_reclaimed: float = 0.0
    #: How far provisioning/allocation degraded this day (0 = full LP).
    degradation_level: int = 0


@dataclass
class SimulationReport:
    """The whole run."""

    days: List[DayReport] = field(default_factory=list)

    @property
    def total_calls(self) -> int:
        return sum(day.n_calls for day in self.days)

    @property
    def overall_migration_rate(self) -> float:
        calls = self.total_calls
        if calls == 0:
            raise SwitchboardError("simulation produced no calls")
        return sum(day.migrations for day in self.days) / calls

    def summary(self) -> str:
        lines = [f"{'day':>4}{'calls':>7}{'migr%':>7}{'unpl%':>7}"
                 f"{'ovfl':>6}{'ACL ms':>8}{'cost':>10}{'reprov':>8}"]
        for day in self.days:
            lines.append(
                f"{day.day:>4}{day.n_calls:>7}{day.migration_rate:>7.1%}"
                f"{day.unplanned_rate:>7.1%}{day.overflow_calls:>6}"
                f"{day.mean_acl_ms:>8.1f}{day.capacity_cost:>10.1f}"
                f"{'yes' if day.reprovisioned else '':>8}"
            )
        lines.append(
            f"total {self.total_calls} calls, overall migrations "
            f"{self.overall_migration_rate:.2%}"
        )
        return "\n".join(lines)


class ServiceSimulator:
    """Drives the whole Switchboard stack over consecutive days."""

    def __init__(self, topology: Topology, demand_model: DemandModel,
                 bootstrap_days: int = 7,
                 reprovision_every: int = 7,
                 capacity_cushion: float = 1.25,
                 seed: int = 97,
                 planner_config: Optional[PlannerConfig] = None):
        """``planner_config`` configures the inner :class:`Switchboard`
        (defaults to DC-failure scenarios only, the simulator's
        historical setting).  Its ``fault_plan`` may inject solve faults
        (``crash`` / ``hang``); a ``dc_failure`` or ``link_failure`` is
        refused, because the simulator serves every day on the full
        topology.

        Every operational day is served by the online admission engine;
        its knobs come from ``planner_config.service``.  With the default
        single worker the engine is deterministic and the per-day
        statistics equal ``RealTimeSelector.process_trace`` over the
        day's calls on a fixed seed."""
        if bootstrap_days < 1:
            raise SwitchboardError("need at least one bootstrap day")
        if reprovision_every < 1:
            raise SwitchboardError("reprovision_every must be >= 1")
        self.planner_config = (planner_config if planner_config is not None
                               else PlannerConfig(max_link_scenarios=0))
        fault_plan = self.planner_config.fault_plan
        outages = [spec.describe() for spec in
                   (fault_plan.pending() if fault_plan is not None else ())
                   if spec.kind in _TOPOLOGY_FAULTS]
        if outages:
            raise SwitchboardError(
                f"ServiceSimulator serves the full topology every day; "
                f"it cannot inject {', '.join(outages)}")
        self.topology = topology
        self.demand_model = demand_model
        self.bootstrap_days = bootstrap_days
        self.reprovision_every = reprovision_every
        self.capacity_cushion = capacity_cushion
        self.seed = seed
        self.db = CallRecordsDatabase()
        self.controller = Switchboard(topology, config=self.planner_config)
        self.capacity: Optional[CapacityPlan] = None

    # ------------------------------------------------------------------
    def _day_trace(self, full_demand: Demand, day: int,
                   generator: TraceGenerator) -> ColumnarTrace:
        start, end = day * _SLOTS_PER_DAY, (day + 1) * _SLOTS_PER_DAY
        day_demand = Demand(
            full_demand.slots[start:end],
            full_demand.configs,
            full_demand.counts[start:end],
        )
        return generator.generate_columnar(day_demand)

    def _serve_day(self, plan, trace: ColumnarTrace) -> SelectorStats:
        """One day served by the admission engine.

        The engine keeps its ledgers and call state in a fresh sharded
        kvstore per day — the same way the production controller starts
        each plan day against Redis — and the day's statistics come from
        its selector core.
        """
        if trace.n_calls == 0:
            return SelectorStats()
        runtime = ServiceRuntime.from_config(
            self.topology, plan, self.planner_config,
            freeze_window_s=DEFAULT_FREEZE_WINDOW_S, obs=self.controller.obs)
        report = runtime.run(build_event_batch(trace, DEFAULT_FREEZE_WINDOW_S))
        report.require_exact_accounting()
        return runtime.selector.stats

    def _forecast_next_day(self, day: int) -> Demand:
        top = self.db.top_configs(_TOP_CONFIG_FRACTION)
        # Pad the history grid to whole days so the forecast's "next 48
        # slots" are exactly tomorrow, even if tonight's last buckets saw
        # no calls.
        history = demand_from_database(self.db, top,
                                       n_buckets=day * _SLOTS_PER_DAY)
        cushion = min(cushion_factor(self.db, top), 1.5)
        forecaster = CallCountForecaster(
            season_length=_SLOTS_PER_DAY, cushion=cushion
        )
        return forecaster.forecast_demand(history, _SLOTS_PER_DAY)

    # ------------------------------------------------------------------
    def run(self, n_days: int) -> SimulationReport:
        if n_days <= self.bootstrap_days:
            raise SwitchboardError(
                f"n_days ({n_days}) must exceed bootstrap_days "
                f"({self.bootstrap_days})"
            )
        full_slots = make_slots(n_days * 86400.0, DEFAULT_SLOT_S)
        full_demand = self.demand_model.sample(full_slots, seed=self.seed)
        generator = TraceGenerator(seed=self.seed + 1)

        report = SimulationReport()
        for day in range(n_days):
            trace = self._day_trace(full_demand, day, generator)
            if day < self.bootstrap_days:
                # Pre-Switchboard operation: closest DC, no plan.
                acl_sum = 0.0
                for call in trace:
                    dc_id = self.topology.closest_dc(call.first_joiner.country)
                    acl_sum += self.topology.acl_ms(dc_id, call.config())
                report.days.append(DayReport(
                    day=day, n_calls=len(trace), migrations=0,
                    migration_rate=0.0, unplanned_rate=1.0,
                    overflow_calls=0,
                    mean_acl_ms=acl_sum / len(trace) if len(trace) else 0.0,
                    reprovisioned=False, capacity_cost=0.0,
                ))
                ingest_trace(self.db, trace, self.topology,
                             seed=self.seed + 10 + day,
                             freeze_after_s=DEFAULT_FREEZE_WINDOW_S)
                continue

            forecast = self._forecast_next_day(day)

            reprovisioned = False
            cores_added = cores_reclaimed = 0.0
            due = (day - self.bootstrap_days) % self.reprovision_every == 0
            if self.capacity is None or due:
                new_capacity = self.controller.provision(
                    forecast, with_backup=_WITH_BACKUP
                ).scaled(self.capacity_cushion)
                if self.capacity is not None:
                    diff = capacity_diff(self.capacity, new_capacity)
                    cores_added = diff["totals"]["cores_added"]
                    cores_reclaimed = diff["totals"]["cores_reclaimed"]
                self.capacity = new_capacity
                reprovisioned = True

            outcome = self.controller.allocate(forecast, self.capacity)
            stats = self._serve_day(outcome.plan, trace)

            report.days.append(DayReport(
                day=day,
                n_calls=stats.calls,
                migrations=stats.migrations,
                migration_rate=stats.migration_rate,
                unplanned_rate=(stats.unplanned / stats.calls
                                if stats.calls else 0.0),
                overflow_calls=stats.overflow,
                mean_acl_ms=stats.mean_acl_ms,
                reprovisioned=reprovisioned,
                capacity_cost=self.capacity.cost(self.topology),
                cores_added=cores_added,
                cores_reclaimed=cores_reclaimed,
                degradation_level=max(self.capacity.degradation_level,
                                      outcome.degradation_level),
            ))
            ingest_trace(self.db, trace, self.topology,
                         seed=self.seed + 10 + day,
                         freeze_after_s=DEFAULT_FREEZE_WINDOW_S)
        return report
