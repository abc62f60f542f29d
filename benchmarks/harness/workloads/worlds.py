"""Input builders and readings the workloads share.

Everything here goes through ``repro``'s public functions; spans are
recorded around those calls (see :mod:`benchmarks.harness.spans`).

The *deployment* — topology and call-config universe — is fixed per
workload; the ``--seed`` draws the *traffic* (demand samples, arrival
times, join offsets, storm realizations, RHS perturbations).  Serving
load is driven through ``TraceGenerator.generate_columnar`` +
``build_event_batch`` directly: ``LoadGenerator.generate`` spends ~95% of
its time materializing object views the engine never reads.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.baselines.locality_first import LocalityFirstStrategy
from repro.config import ServiceConfig
from repro.controller.columnar import ColumnarEventBatch, events_per_call
from repro.core.units import DEFAULT_FREEZE_WINDOW_S
from repro.provisioning.planner import CapacityPlan
from repro.service import ServiceReport, ServiceRuntime
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand, DemandModel
from repro.workload.columnar import ColumnarTrace
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel

FREEZE_S = DEFAULT_FREEZE_WINDOW_S

#: ``ServiceReport.to_dict()`` keys that are wall-clock (or name the arm
#: itself); everything else must match byte for byte across executors.
_NON_CANONICAL = frozenset({
    "executor", "n_workers", "wall_time_s", "events_per_s",
    "admission_latency_ms", "settle_latency_ms", "kv_latency_ms",
    "migration_latency_ms",
})


def sub_seed(seed: int, stream: int) -> int:
    """A distinct deterministic seed per (run seed, stream index)."""
    return (seed * 1_000_003 + stream * 7_919) % (2 ** 31 - 1)


def build_topology(kind: str, tracer) -> Topology:
    with tracer.span("topology.build"):
        return Topology.small() if kind == "small" else Topology.default()


def demand_model(topology: Topology, n_configs: int, calls_per_slot: float,
                 population_seed: int) -> DemandModel:
    population = generate_population(topology.world, n_configs=n_configs,
                                     seed=population_seed)
    return DemandModel(topology.world, population, DiurnalModel(),
                       calls_per_slot_at_peak=calls_per_slot)


def event_prefix(trace: ColumnarTrace, target_events: int) -> ColumnarTrace:
    """The leading whole calls whose events reach ``target_events``."""
    cum = np.cumsum(events_per_call(trace))
    keep = min(int(np.searchsorted(cum, target_events, side="left")) + 1,
               trace.n_calls)
    return trace.slice_calls(0, keep)


def serving_plan(controller: Switchboard, demand: Demand, tracer
                 ) -> Tuple[CapacityPlan, Any]:
    """Provision (no backup) and allocate ``demand``; spans per stage."""
    with tracer.span("provisioning.placement"):
        controller.placement_for(demand.configs)
    with tracer.span("provisioning.provision"):
        capacity = controller.provision(demand, with_backup=False)
    with tracer.span("allocation.offline"):
        outcome = controller.allocate(demand, capacity)
    return capacity, outcome


def plan_cost_ratio(topology: Topology, plan: CapacityPlan, demand: Demand,
                    with_backup: bool,
                    max_link_scenarios: Optional[int] = None) -> float:
    """``plan``'s cost over the Locality-First plan's on the same demand
    (the paper normalizes Switchboard to its baselines the same way)."""
    baseline = LocalityFirstStrategy(topology)
    reference = (baseline.plan_with_backup(demand, max_link_scenarios)
                 if with_backup else baseline.plan_without_backup(demand))
    return plan.cost(topology) / reference.cost(topology)


def serve(topology: Topology, plan, batch: ColumnarEventBatch,
          config: ServiceConfig, tracer, store=None, **wiring
          ) -> Tuple[ServiceRuntime, ServiceReport]:
    """One ``ServiceRuntime`` run; accounting violations raise."""
    runtime = ServiceRuntime.from_config(
        topology, plan, config, store=store, freeze_window_s=FREEZE_S,
        **wiring)
    with tracer.span("service.run"):
        report = runtime.run(batch)
    report.require_exact_accounting()
    return runtime, report


def canonical_report(report: ServiceReport) -> str:
    """The deterministic projection two executors must agree on."""
    payload = report.to_dict()
    return json.dumps({k: v for k, v in payload.items()
                       if k not in _NON_CANONICAL},
                      sort_keys=True, default=str)


def failed_serving_ops(report: ServiceReport) -> int:
    """Calls or events the service lost (zero on a correct run)."""
    return report.unsettled_calls + report.dropped_events


def failed_planning_ops(capacity: CapacityPlan, allocation) -> int:
    """Plans behind a serve that degraded a ladder rung."""
    return failed_solves(capacity, None) + (1 if allocation.degraded else 0)


def provisioning_readings(plan: CapacityPlan) -> Dict[str, float]:
    """``provisioning.*`` counters and solver seconds off a returned plan
    (``provision_s`` itself comes from the harness's span).

    A ``joint`` plan carries its single solve's stats on every scenario
    result, so ``aggregate_stats()`` would count that solve once per
    scenario; its stats are read off the first result instead.
    """
    results = plan.scenario_results
    if plan.method == "joint" and results:
        stats = results[0].stats
        arms = {stats.arm or "exact": stats}
    else:
        stats = plan.aggregate_stats()
        arms = plan.arm_stats()
    gaps = [r.bound_gap for r in results if r.bound_gap is not None]
    exact = sum(arms[a].n_solves for a in ("exact", "warm") if a in arms)
    return {
        "provisioning.assembly_s": stats.assembly_seconds,
        "provisioning.solver_s": stats.solver_seconds,
        "provisioning.lp_rows": stats.n_rows,
        "provisioning.lp_cols": stats.n_cols,
        "provisioning.lp_nnz": stats.nnz,
        "provisioning.n_solves": stats.n_solves,
        "provisioning.arm.exact.solves": exact,
        "provisioning.arm.locality.solves":
            arms["locality"].n_solves if "locality" in arms else 0,
        "provisioning.arm.dedup.scenarios":
            sum(1 for r in results if r.stats.arm == "dedup"),
        "provisioning.max_gap": max(gaps) if gaps else 0.0,
        "provisioning.degradation_level": plan.degradation_level,
    }


def failed_solves(plan: CapacityPlan, gap_limit: Optional[float]) -> int:
    """Scenario plans that degraded a ladder rung or exceeded the gap."""
    failed = len(plan.scenario_results) if plan.degraded else 0
    if gap_limit is not None:
        failed += sum(1 for r in plan.scenario_results
                      if r.bound_gap is not None
                      and r.bound_gap > gap_limit + 1e-9)
    return failed


def service_readings(report: ServiceReport, n_workers: int = 1,
                     sim_latency_s: float = 0.0) -> Dict[str, float]:
    """``service.*`` / ``kvstore.*`` off one returned report."""
    events = max(report.events_total, 1)
    admission = report.admission_latency_ms
    settle = report.settle_latency_ms
    kv = report.kv_latency_ms
    worker_s = n_workers * report.wall_time_s

    def ms(tail, key, scale=1.0):
        value = tail.get(key)
        return 0.0 if value is None else value * scale

    return {
        "service.events_per_s": report.events_per_s,
        "service.admission_p50_us": ms(admission, "p50", 1000.0),
        "service.admission_p99_us": ms(admission, "p99", 1000.0),
        "service.settle_p99_ms": ms(settle, "p99"),
        "service.overflow_frac":
            report.overflowed_calls / max(report.generated_calls, 1),
        "kvstore.roundtrips_per_event": report.kv_op_count / events,
        "kvstore.trip_p50_ms": ms(kv, "p50"),
        "kvstore.sim_latency_share":
            sim_latency_s / worker_s if worker_s > 0 else 0.0,
    }


def simulated_latency_s(store) -> float:
    """Seconds of simulated round-trip a store slept (0 at zero latency)."""
    if not getattr(store, "simulates_latency", False):
        return 0.0
    shards = ([store.shard(sid) for sid in store.shard_ids]
              if hasattr(store, "shard_ids") else [store])
    return sum(sum(shard.latency_samples_ms()) for shard in shards) / 1000.0

