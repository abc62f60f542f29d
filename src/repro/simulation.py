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
from typing import List, Optional, Tuple

from repro.core.errors import SwitchboardError
from repro.core.types import make_slots
from repro.core.units import DEFAULT_SLOT_S
from repro.allocation.realtime import SelectorStats
from repro.autoscale import Autoscaler
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
    #: ``describe()`` of the injected DC/link failure this day, if any.
    #: A multi-day outage (``until_day``) repeats here on every day it
    #: remains active.
    injected_fault: Optional[str] = None
    #: ``describe()`` of outage(s) whose ``until_day`` arrived this day —
    #: the failed DC/link is back and the normal plan resumes.
    recovered_fault: Optional[str] = None
    #: How far provisioning/allocation degraded this day (0 = full LP).
    degradation_level: int = 0
    #: Closed-loop autoscaler rescale events this day (0 unless
    #: ``planner_config.autoscale`` is set).
    rescales: int = 0
    #: Observability events recorded *this day* — per-day scoped via
    #: checkpoints, so multi-day runs don't silently attribute one day's
    #: noise to another.
    obs_events: int = 0


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
                 top_config_fraction: float = 0.5,
                 capacity_cushion: float = 1.25,
                 with_backup: bool = False,
                 season_length: int = _SLOTS_PER_DAY,
                 freeze_window_s: float = 300.0,
                 seed: int = 97,
                 planner_config: Optional[PlannerConfig] = None):
        """``planner_config`` configures the inner :class:`Switchboard`
        (defaults to DC-failure scenarios only, the simulator's
        historical setting).  Its ``fault_plan`` doubles as the drill
        schedule: ``dc_failure`` / ``link_failure`` specs with an
        ``at_day`` fire on that simulated day — the allocation plan is
        rebuilt for the failure scenario and the day is tagged in its
        :class:`DayReport`.

        Every operational day is served by the online admission engine;
        its knobs come from ``planner_config.service``.  With the default
        single worker the engine is deterministic and the per-day
        statistics equal ``RealTimeSelector.process_trace`` over the
        day's calls on a fixed seed."""
        if bootstrap_days < 1:
            raise SwitchboardError("need at least one bootstrap day")
        if reprovision_every < 1:
            raise SwitchboardError("reprovision_every must be >= 1")
        self.topology = topology
        self.demand_model = demand_model
        self.bootstrap_days = bootstrap_days
        self.reprovision_every = reprovision_every
        self.top_config_fraction = top_config_fraction
        self.capacity_cushion = capacity_cushion
        self.with_backup = with_backup
        self.season_length = season_length
        self.freeze_window_s = freeze_window_s
        self.seed = seed
        self.db = CallRecordsDatabase()
        self.planner_config = (planner_config if planner_config is not None
                               else PlannerConfig(max_link_scenarios=0))
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

    def _cushioned(self, capacity: CapacityPlan) -> CapacityPlan:
        return CapacityPlan(
            cores={dc: self.capacity_cushion * v
                   for dc, v in capacity.cores.items()},
            link_gbps={l: self.capacity_cushion * v
                       for l, v in capacity.link_gbps.items()},
            method=capacity.method,
            degradation_level=capacity.degradation_level,
            obs=capacity.obs,
        )

    def _serve_day(self, plan, trace: ColumnarTrace, forecast: Demand
                   ) -> Tuple[SelectorStats, int]:
        """One day served by the admission engine.

        The engine keeps its ledgers and call state in a fresh sharded
        kvstore per day — the same way the production controller starts
        each plan day against Redis — and the day's statistics come from
        its selector core.

        With ``planner_config.autoscale`` set, the engine carries a
        closed-loop :class:`~repro.autoscale.Autoscaler` that
        re-provisions the plan mid-day; returns
        ``(stats, rescale_events)``.
        """
        if trace.n_calls == 0:
            return SelectorStats(), 0
        rescaler = None
        if self.planner_config.autoscale is not None:
            rescaler = Autoscaler(
                self.controller, forecast, plan,
                config=self.planner_config.autoscale,
                capacity=self.capacity, obs=self.controller.obs,
                with_backup=self.with_backup)
        runtime = ServiceRuntime.from_config(
            self.topology, plan, self.planner_config,
            freeze_window_s=self.freeze_window_s, obs=self.controller.obs,
            rescaler=rescaler)
        report = runtime.run(build_event_batch(trace, self.freeze_window_s))
        report.require_exact_accounting()
        return runtime.selector.stats, report.rescale_events

    def _forecast_next_day(self, day: int) -> Demand:
        top = self.db.top_configs(self.top_config_fraction)
        # Pad the history grid to whole days so the forecast's "next 48
        # slots" are exactly tomorrow, even if tonight's last buckets saw
        # no calls.
        history = demand_from_database(self.db, top,
                                       n_buckets=day * _SLOTS_PER_DAY)
        cushion = min(cushion_factor(self.db, top), 1.5)
        forecaster = CallCountForecaster(
            season_length=self.season_length, cushion=cushion
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
            # Scope observability per simulated day: everything recorded
            # from here to day end is attributed to this day's report,
            # instead of a single run-lifetime blob.
            day_checkpoint = self.controller.obs.checkpoint()
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
                    obs_events=len(
                        self.controller.obs.since(day_checkpoint).events),
                ))
                ingest_trace(self.db, trace, self.topology,
                             seed=self.seed + 10 + day,
                             freeze_after_s=self.freeze_window_s)
                continue

            forecast = self._forecast_next_day(day)

            reprovisioned = False
            cores_added = cores_reclaimed = 0.0
            due = (day - self.bootstrap_days) % self.reprovision_every == 0
            if self.capacity is None or due:
                new_capacity = self._cushioned(self.controller.provision(
                    forecast, with_backup=self.with_backup
                ))
                if self.capacity is not None:
                    diff = capacity_diff(self.capacity, new_capacity)
                    cores_added = diff["totals"]["cores_added"]
                    cores_reclaimed = diff["totals"]["cores_reclaimed"]
                self.capacity = new_capacity
                reprovisioned = True

            # Drill schedule: a dc_failure/link_failure fault landing on
            # this day rebuilds the plan for the failure scenario — the
            # surviving capacity absorbs the displaced calls (§4.2).
            injected_fault = None
            recovered_fault = None
            allocation_level = 0
            fault = None
            fault_plan = self.planner_config.fault_plan
            if fault_plan is not None:
                healed = fault_plan.take_topology_recoveries(day)
                if healed:
                    recovered_fault = ", ".join(
                        spec.describe() for spec in healed)
                    self.controller.obs.record(
                        "fault.recovered", label=f"day[{day}]",
                        fault=recovered_fault,
                    )
                fault = fault_plan.take_topology_fault(day)
                if fault is not None:
                    self.controller.obs.record(
                        "fault.injected", label=f"day[{day}]",
                        fault_kind=fault.kind, fault=fault.describe(),
                    )
                else:
                    # A multi-day outage consumed on an earlier day keeps
                    # the failure-scenario plan until its recovery lands.
                    active = fault_plan.active_topology_faults(day)
                    if active:
                        fault = active[0]
                        self.controller.obs.record(
                            "fault.active", label=f"day[{day}]",
                            fault_kind=fault.kind, fault=fault.describe(),
                        )
            if fault is not None:
                injected_fault = fault.describe()
                plan = self.controller.allocation_plan(
                    forecast, failed_dc=fault.dc, failed_link=fault.link,
                )
            else:
                outcome = self.controller.allocate(forecast, self.capacity)
                allocation_level = outcome.degradation_level
                plan = outcome.plan
            stats, rescales = self._serve_day(plan, trace, forecast)

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
                injected_fault=injected_fault,
                recovered_fault=recovered_fault,
                degradation_level=max(self.capacity.degradation_level,
                                      allocation_level),
                rescales=rescales,
                obs_events=len(
                    self.controller.obs.since(day_checkpoint).events),
            ))
            ingest_trace(self.db, trace, self.topology,
                         seed=self.seed + 10 + day,
                         freeze_after_s=self.freeze_window_s)
        return report
