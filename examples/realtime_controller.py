#!/usr/bin/env python3
"""Real-time MP assignment: the §5.4 selector driving live calls.

Provisions capacity and a daily allocation plan, then serves a day of
call events (first joins, later joins, media changes, config freezes,
call ends) through the online admission service — 8 worker threads over
the Redis-like sharded state store — measuring migrations (§6.4) and
controller throughput (Fig 10).

Run:  python examples/realtime_controller.py
"""

from repro import PlannerConfig, Switchboard, Topology, generate_population
from repro.config import ServiceConfig
from repro.controller import build_event_batch
from repro.core import make_slots
from repro.service import ServiceRuntime
from repro.workload import DemandModel, TraceGenerator


def main() -> None:
    topology = Topology.default()

    # A day of calls, expanded to individual join/media events.
    population = generate_population(topology.world, n_configs=60, seed=13)
    sampled = DemandModel(
        topology.world, population, calls_per_slot_at_peak=80.0
    ).sample(make_slots(86400.0), seed=14)
    trace = TraceGenerator(seed=15).generate_columnar(sampled)
    events = build_event_batch(trace)
    print(f"Trace: {len(trace)} calls -> {len(events)} controller events")

    # Provision + daily plan, using the freeze-time view of configs (the
    # config the controller actually observes at A=300 s).  The cushion
    # (§5.2) gives the allocation the headroom that keeps placement
    # LF-like — and migrations rare — at the no-failure operating point.
    demand = trace.to_demand(freeze_after_s=300.0)
    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(demand, with_backup=True)
    plan = controller.allocate(demand, capacity.scaled(1.25)).plan

    # Serve through the controller with simulated Redis trip latency.
    runtime = ServiceRuntime.from_config(
        topology, plan,
        ServiceConfig(executor="thread", n_workers=8,
                      kv_latency_median_ms=1.0))
    report = runtime.run(events)
    report.require_exact_accounting()

    lo, median, hi = runtime.store.latency_stats_ms()
    print(f"\nServed with 8 worker threads:")
    print(f"  throughput: {report.events_per_s:.0f} events/s "
          f"(wall {report.wall_time_s:.1f}s)")
    print(f"  store writes: {report.kv_op_count} ops, trip latency "
          f"{lo:.2f}/{median:.2f}/{hi:.2f} ms (min/median/max)")
    print(f"  calls started: {report.generated_calls}, "
          f"ended: {report.ended_calls}")
    print(f"  migrations: {report.migrated_calls} "
          f"({report.migration_rate:.2%} of calls; paper: 1.53%)")


if __name__ == "__main__":
    main()
