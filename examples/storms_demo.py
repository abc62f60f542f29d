#!/usr/bin/env python3
"""Scenario storms: compose a custom storm, then run a named one.

Part 1 builds a storm from the DSL primitives — a flash crowd layered
over a synchronized-joins burst, cascading into an aftershock — and
shows the three faces at work: the demand matrix scales inside the
windows, the generated trace gains replicated calls with compressed
join offsets, and a co-scheduled DC outage merges into one
deterministic fault timeline.

Part 2 runs a storm from the seeded registry through the chaos harness
(the same path as the ``drills`` CI job's ``storms`` entry) and prints
its invariant outcomes: exact accounting, overflow under the declared
ceiling, zero drain shortfall, bounded settle tail.

Run:  python examples/storms_demo.py [storm-name]
"""

import sys

from repro.core import make_slots
from repro.storms import (
    FlashCrowd,
    RegionalOutage,
    SynchronizedJoins,
    check_storm_report,
    get_storm,
    named_storms,
    run_storm,
)
from repro.topology.builder import Topology
from repro.workload import DemandModel, TraceGenerator
from repro.workload.configs import generate_population


def compose_a_storm() -> None:
    print("--- part 1: composing a storm from the DSL ---")
    storm = (
        FlashCrowd(factor=2.0, start_s=9000.0, duration_s=3600.0)
        .overlay(SynchronizedJoins(compress_to_s=45.0, start_s=9000.0,
                                   duration_s=3600.0))
        .overlay(RegionalOutage(dc="dc-tokyo", start_s=9000.0))
        .then(FlashCrowd(factor=1.5, duration_s=1800.0))
        .named("demo-storm")
    )
    print(storm.describe())

    topology = Topology.small()
    population = generate_population(topology.world, n_configs=8, seed=7)
    model = DemandModel(topology.world, population,
                        calls_per_slot_at_peak=60.0)
    base = model.expected(make_slots(86400.0))

    stormed = storm.apply_demand(base)
    print(f"demand face: {base.counts.sum():.0f} expected calls -> "
          f"{stormed.counts.sum():.0f} under the storm")

    actual = storm.realize(base, seed=8)
    trace = TraceGenerator(seed=9).generate_columnar(actual)
    trace = storm.apply_trace(trace, seed=10, demand_applied=True)
    print(f"trace face: {trace.n_calls} calls, "
          f"{trace.n_participants} participants (joins compressed "
          f"inside the window)")

    faults = storm.fault_plan()
    print(f"fault face: {len(faults)} co-scheduled fault(s) -> "
          f"{[spec.describe() for spec in faults.pending()]}\n")


def run_a_named_storm(name: str) -> None:
    print(f"--- part 2: chaos harness over {name!r} ---")
    spec = get_storm(name)
    print(spec.description)
    report = run_storm(name, executor="thread")
    print(f"\n  {'generated':>10}{'admitted':>10}{'migrated':>10}"
          f"{'overflowed':>12}{'rescales':>10}")
    print(f"  {report['generated_calls']:>10}{report['admitted_calls']:>10}"
          f"{report['migrated_calls']:>10}{report['overflowed_calls']:>12}"
          f"{report['rescale_events']:>10}")
    print(f"\n  overflow {report['overflow_frac']:.1%} "
          f"(ceiling {report['overflow_ceiling']:.0%}), "
          f"settle p99 {report['settle_p99_ms']}ms "
          f"(ceiling {report['settle_p99_ceiling_ms']}ms)")
    for invariant, held in report["invariants"].items():
        print(f"  {'PASS' if held else 'FAIL'}  {invariant}")
    check_storm_report(report)
    print("\nall declared invariants hold")


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "national-event-sync-join"
    if name not in named_storms():
        print(f"unknown storm {name!r}; known: {', '.join(named_storms())}")
        raise SystemExit(2)
    compose_a_storm()
    run_a_named_storm(name)


if __name__ == "__main__":
    main()
