"""``storm-drill`` — the mis-forecast day, with the barrier stack bound.

The planner provisions and allocates a normal cushioned day with no
storm knowledge; one pass then realizes and serves three catalog storms
thread@1 at 0 ms KV, each with a different part of the window-barrier
stack bound:

* ``flash-crowd-cascade`` with the closed-loop ``Autoscaler``
  (re-provision LPs inside serving);
* ``national-event-sync-join`` with the ``Autoscaler`` plus the packing
  fleet ledger and ``Defragmenter`` (server placement on every debit);
* ``viral-megameeting-during-dc-loss`` with ``MigrationExecutor``
  watching the storm's fault plan, so the DC loss lands mid-serve and
  in-flight calls are evacuated live.

These reach overflow walks, split windows and barrier work the steady
workloads never do, and guard ``packing``/``autoscale``/``migrate``
while the roadmap folds and deletes around them.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, NamedTuple

from repro.autoscale import Autoscaler
from repro.config import (AutoscaleConfig, MigrationConfig, PackingConfig,
                          PlannerConfig, ServiceConfig)
from repro.controller.columnar import build_event_batch
from repro.core.types import make_slots
from repro.kvstore import InMemoryKVStore
from repro.migrate import MigrationExecutor
from repro.packing import build_packing
from repro.storms.catalog import get_storm
from repro.switchboard import Switchboard
from repro.workload.trace import TraceGenerator

from benchmarks.harness import probes
from benchmarks.harness.spans import NullTracer
from benchmarks.harness.workloads import PassResult, Workload, worlds


class Leg(NamedTuple):
    storm: str
    autoscale: bool = False
    packing: bool = False
    migrate: bool = False


LEGS = (
    Leg("flash-crowd-cascade", autoscale=True),
    Leg("national-event-sync-join", autoscale=True, packing=True),
    Leg("viral-megameeting-during-dc-loss", migrate=True),
)

#: Fleet head-count multiple over provisioned cores: servers used must be
#: demand-driven, not capped by an exactly-sized fleet.
FLEET_SCALE = 3.0


class StormDrill(Workload):
    name = "storm-drill"

    FULL = {"topology": "small", "n_configs": 24, "calls_per_slot": 300.0,
            "population_seed": 29, "cushion": 1.25}
    SMOKE = {"topology": "small", "n_configs": 8, "calls_per_slot": 40.0,
             "population_seed": 29, "cushion": 1.25}

    CONFIGS = ("planner", "autoscale", "packing", "migration", "service")
    autoscale = AutoscaleConfig(headroom=0.5, scale_down_patience=4)
    planner = PlannerConfig(max_link_scenarios=0, autoscale=autoscale)
    packing = PackingConfig()
    migration = MigrationConfig(interval_s=600.0, max_moves_per_window=256)
    service = ServiceConfig()

    def build(self, tracer) -> None:
        sizes = self.sizes
        self.topology = worlds.build_topology(sizes["topology"], tracer)
        model = worlds.demand_model(
            self.topology, sizes["n_configs"], sizes["calls_per_slot"],
            sizes["population_seed"])
        with tracer.span("workload.demand_sample"):
            self.base = model.expected(make_slots(86400.0))
        self.planning = self.base.scale(sizes["cushion"])
        self.controller = Switchboard(self.topology, config=self.planner)
        self.capacity, outcome = worlds.serving_plan(
            self.controller, self.planning, tracer)
        self.allocation = outcome
        self.plan = outcome.plan
        self._plan_cost = None
        self._legs: Dict[str, Dict[str, Any]] = {}
        self._lost_dcs: List[str] = []

    def price_plan(self) -> float:
        return worlds.plan_cost_ratio(
            self.topology, self.capacity, self.planning, with_backup=False)

    # ------------------------------------------------------------------
    def _events(self, leg: Leg, tracer):
        """Realize the storm over the un-stormed base and expand it."""
        dsl = get_storm(leg.storm).build()
        seed = worlds.sub_seed(self.seed, LEGS.index(leg))
        with tracer.span("storms.realize"):
            actual = dsl.realize(self.base, seed)
        with tracer.span("workload.trace_gen"):
            trace = TraceGenerator(seed=seed + 1).generate_columnar(actual)
        with tracer.span("storms.apply_trace"):
            trace = dsl.apply_trace(trace, seed=seed + 2,
                                    demand_applied=True)
        with tracer.span("controller.batch_build"):
            batch = build_event_batch(trace, worlds.FREEZE_S)
        return dsl, trace, batch

    def _wiring(self, leg: Leg, dsl) -> Dict[str, Any]:
        """Fresh barrier subsystems for one serve (they hold run state)."""
        wiring: Dict[str, Any] = {}
        if leg.autoscale:
            wiring["rescaler"] = Autoscaler(
                self.controller, self.planning, self.plan,
                config=self.autoscale, capacity=self.capacity,
                obs=self.controller.obs)
        if leg.packing:
            fleet = {dc: cores * FLEET_SCALE
                     for dc, cores in self.capacity.cores.items()}
            ledger, defragmenter = build_packing(fleet, self.packing)
            wiring.update(ledger=ledger, defragmenter=defragmenter,
                          defrag_interval_s=self.packing.defrag_interval_s)
        if leg.migrate:
            migrator = MigrationExecutor(config=self.migration,
                                         obs=self.controller.obs)
            orders = migrator.watch(dsl.fault_plan(), day=0)
            self._lost_dcs = sorted({order.dc for order in orders})
            wiring["migrator"] = migrator
        return wiring

    def _serve(self, leg: Leg, dsl, batch, tracer):
        wiring = self._wiring(leg, dsl)
        _, report = worlds.serve(self.topology, self.plan, batch,
                                 self.service, tracer,
                                 store=InMemoryKVStore(), **wiring)
        return report, wiring.get("migrator")

    def run_pass(self, tracer, index: int) -> PassResult:
        reports = []
        n_calls = 0
        n_events = 0
        for leg in LEGS:
            dsl, trace, batch = self._events(leg, tracer)
            report, migrator = self._serve(leg, dsl, batch, tracer)
            with tracer.span("service.report"):
                report.to_dict()
            reports.append(report)
            n_calls += trace.n_calls
            n_events += len(batch)
            self._legs[leg.storm] = {"report": report, "migrator": migrator,
                                     "dsl": dsl, "trace": trace}

        serve_s = sum(r.wall_time_s for r in reports)
        events = sum(r.events_total for r in reports)
        generated = sum(r.generated_calls for r in reports)
        per_leg = [worlds.service_readings(r) for r in reports]
        packed = reports[1]
        drilled = reports[2]
        layer = {
            "service.events_per_s": events / serve_s,
            "service.overflow_frac":
                sum(r.overflowed_calls for r in reports) / generated,
            "service.admission_p50_us": statistics.median(
                p["service.admission_p50_us"] for p in per_leg),
            "service.admission_p99_us": max(
                p["service.admission_p99_us"] for p in per_leg),
            "service.settle_p99_ms": max(
                p["service.settle_p99_ms"] for p in per_leg),
            "kvstore.roundtrips_per_event":
                sum(r.kv_op_count for r in reports) / events,
            "autoscale.rescales": sum(r.rescale_events for r in reports),
            "packing.servers_used_peak":
                packed.packing.get("servers_used_peak", 0),
            "packing.defrag_moves": packed.defrag_migrated_calls,
            "migrate.batches": drilled.migration_batches,
            "migrate.live_moves": drilled.live_migrated_calls,
            "migrate.disrupted": drilled.disrupted_calls,
            "migrate.latency_p50_ms":
                drilled.migration_latency_ms.get("p50") or 0.0,
        }
        layer.update(worlds.provisioning_readings(self.capacity))
        return PassResult(
            ops=events, core_s=serve_s,
            attempted=generated + len(self.capacity.scenario_results),
            failed=sum(worlds.failed_serving_ops(r) for r in reports)
            + worlds.failed_planning_ops(self.capacity, self.allocation),
            plan_cost=self.fixed_plan_cost, layer=layer,
            counts={"workload.trace_gen": n_calls,
                    "controller.batch_build": n_events})

    # ------------------------------------------------------------------
    def check(self) -> List[str]:
        """Catalog invariants per storm, evacuation invariants on the
        DC-loss leg, and thread == process parity with the migrator."""
        problems: List[str] = []
        for leg in LEGS:
            spec = get_storm(leg.storm)
            state = self._legs[leg.storm]
            report = state["report"]
            overflow = report.overflowed_calls / max(report.generated_calls, 1)
            if overflow > spec.overflow_ceiling:
                problems.append(f"{leg.storm}: overflow {overflow:.3f} over "
                                f"the ceiling {spec.overflow_ceiling}")
            if int(report.autoscale.get("drain_shortfall", 0)) != 0:
                problems.append(f"{leg.storm}: drain touched settled slots")
            settle_p99 = report.settle_latency_ms.get("p99")
            if settle_p99 is not None \
                    and settle_p99 > spec.settle_p99_ceiling_ms:
                problems.append(f"{leg.storm}: settle p99 {settle_p99} ms")
            if leg.autoscale and report.rescale_events == 0:
                problems.append(f"{leg.storm}: the autoscaler never acted")
        drill = LEGS[2]
        state = self._legs[drill.storm]
        report, migrator = state["report"], state["migrator"]
        lost = self._lost_dcs
        if not lost:
            problems.append("the DC-loss drill lost no DC")
        stranded = sum(len(migrator.registry.live_on(dc)) for dc in lost)
        if stranded:
            problems.append(f"{stranded} calls stranded on {lost}")
        candidates = int(report.migration.get("candidates", 0))
        if candidates != report.live_migrated_calls + report.disrupted_calls:
            problems.append("migration candidates not partitioned into "
                            "moved + disrupted")
        if report.live_migrated_calls == 0:
            problems.append("the drain moved nothing")
        disrupted = report.disrupted_calls / max(report.generated_calls, 1)
        if disrupted > self.migration.disruption_ceiling:
            problems.append(f"disruption {disrupted:.3f} over the ceiling")
        problems += probes.executor_parity(
            self.topology, self.plan, state["trace"], self.service,
            wiring=lambda: self._wiring(drill, state["dsl"]),
            process_workers=(2,))
        return problems

    # ------------------------------------------------------------------
    def probes(self, budget_s: float) -> Dict[str, float]:
        """What the barrier subsystems cost: the same storm served with
        and without one of them, arms interleaved."""
        null = NullTracer()
        flash, packed = LEGS[0], LEGS[1]
        dsl_f, _, batch_f = self._events(flash, null)
        dsl_p, _, batch_p = self._events(packed, null)
        arms = [
            ("flash.with", flash, dsl_f, batch_f),
            ("flash.without", Leg(flash.storm), dsl_f, batch_f),
            ("packed.with", packed, dsl_p, batch_p),
            ("packed.without", Leg(packed.storm, autoscale=True),
             dsl_p, batch_p),
        ]
        serve_s: Dict[str, List[float]] = {name: [] for name, *_ in arms}
        # Whole rounds over the arms (ABCD ABCD), as many as the budget
        # allows: at least one, at most three.
        deadline = time.perf_counter() + budget_s
        for round_index in range(3):
            if round_index and time.perf_counter() >= deadline:
                break
            for name, leg, dsl, batch in arms:
                report, _ = self._serve(leg, dsl, batch, null)
                serve_s[name].append(report.wall_time_s)
        med = {name: statistics.median(v) for name, v in serve_s.items()}
        return {
            "autoscale.barrier_s": med["flash.with"] - med["flash.without"],
            "packing.us_per_event":
                (med["packed.with"] - med["packed.without"])
                / len(batch_p) * 1e6,
        }

    def config(self) -> Dict[str, Any]:
        out = super().config()
        out["storms"] = [leg._asdict() for leg in LEGS]
        return out
