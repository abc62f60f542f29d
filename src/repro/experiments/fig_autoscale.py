"""Demand surprise: static daily plan vs the closed-loop autoscaler.

The planner provisions a day from a cushioned forecast; then the day
goes wrong: actual demand runs at ``demand_surprise`` (1.5x) the base
forecast all day, with a flash-crowd hour on top near the diurnal ramp.
Two arms serve the *same* realized event stream against the *same*
initial plan:

* **static** — the plan as provisioned, never touched (the paper's
  daily cadence);
* **closed_loop** — the same plan plus a
  :class:`~repro.autoscale.Autoscaler` bound to the engine: telemetry
  windows, hysteresis policy, incremental provision/allocate re-runs
  applied through the slot ledger, and the rolling short-horizon
  capacity refresh.

Headline: the closed loop must end the day with at least half the
static arm's overflowed calls at equal-or-lower provisioned
capacity-hours (it follows the demand curve instead of holding the
daily peak around the clock).  The smoke path asserts exactly that,
plus exact accounting through every rescale and zero drain shortfall —
this is the ``drills`` CI job's ``autoscale`` entry.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Tuple

from repro.autoscale import Autoscaler
from repro.config import AutoscaleConfig, PlannerConfig
from repro.controller.columnar import build_event_batch
from repro.core.types import make_slots
from repro.core.units import DEFAULT_SLOT_S
from repro.service import ServiceRuntime
from repro.storms import FlashCrowd, StormPlan
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import DemandModel
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.trace import TraceGenerator

FREEZE_WINDOW_S = 300.0


def _surprise_storm(demand_surprise: float, flash_slots: Tuple[int, ...],
                    flash_factor: float,
                    slot_s: float = DEFAULT_SLOT_S) -> StormPlan:
    """The day that actually happens, as ``repro.storms`` overlays: an
    all-day surprise backdrop with a flash crowd layered on
    ``flash_slots`` (realization is one Poisson draw over the stormed
    expectation, via :meth:`StormPlan.realize`)."""
    plan = FlashCrowd(factor=demand_surprise).plan()
    for slot in flash_slots:
        plan = plan.overlay(FlashCrowd(factor=flash_factor,
                                       start_s=slot * slot_s,
                                       duration_s=slot_s))
    return plan.named("demand-surprise")


def _serve(topology: Topology, plan, events,
           rescaler: Optional[Autoscaler] = None) -> Dict[str, object]:
    """One arm: a fresh engine (fresh kvstore + ledger) over the
    realized stream; returns the arm's result row."""
    runtime = ServiceRuntime.from_config(
        topology, plan, freeze_window_s=FREEZE_WINDOW_S, rescaler=rescaler)
    report = runtime.run(events)
    report.require_exact_accounting()
    return {
        "generated_calls": report.generated_calls,
        "admitted_calls": report.admitted_calls,
        "migrated_calls": report.migrated_calls,
        "overflowed_calls": report.overflowed_calls,
        "accounting_exact": report.accounting_exact,
        "rescale_events": report.rescale_events,
        "autoscale": report.autoscale,
    }


def run(n_configs: int = 12, calls_per_slot: float = 150.0, seed: int = 23,
        demand_surprise: float = 1.5,
        flash_slots: Tuple[int, ...] = (26, 27),
        flash_factor: float = 2.0,
        cushion: float = 1.25,
        config: Optional[AutoscaleConfig] = None,
        topology: Optional[Topology] = None) -> Dict[str, object]:
    topo = topology if topology is not None else Topology.default()
    population = generate_population(topo.world, n_configs=n_configs,
                                     seed=seed)
    model = DemandModel(topo.world, population, DiurnalModel(),
                        calls_per_slot_at_peak=calls_per_slot)
    slots = make_slots(86400.0, DEFAULT_SLOT_S)
    base = model.expected(slots)
    # What the planner believes: the base forecast with its usual tail
    # cushion.  Both arms are provisioned from this, and the autoscaler
    # measures demand ratios against it.
    planning = base.scale(cushion)
    storm = _surprise_storm(demand_surprise, flash_slots, flash_factor)
    actual = storm.realize(base, seed + 1)
    trace = TraceGenerator(seed=seed + 2).generate_columnar(actual)
    events = build_event_batch(trace, FREEZE_WINDOW_S)

    # Demand-surprise tuning: generous headroom (per-cell Poisson noise
    # is large at synthetic volumes) and patient scale-down (the
    # surprise is sustained, so a quiet window is noise, not a trend).
    autoscale = config if config is not None else AutoscaleConfig(
        headroom=0.5, scale_down_patience=4)
    controller = Switchboard(topo, config=PlannerConfig(
        max_link_scenarios=0, autoscale=autoscale))
    capacity = controller.provision(planning, with_backup=False)
    plan = controller.allocate(planning, capacity).plan

    static = _serve(topo, plan, events)
    static["capacity_core_hours"] = round(capacity.total_cores() * 24.0, 3)

    rescaler = Autoscaler(controller, planning, plan, config=autoscale,
                          capacity=capacity, obs=controller.obs)
    closed = _serve(topo, plan, events, rescaler=rescaler)
    closed["capacity_core_hours"] = rescaler.autoscale_metrics()[
        "capacity_core_hours"]

    overflow_reduction = (
        1.0 - closed["overflowed_calls"] / static["overflowed_calls"]
        if static["overflowed_calls"] > 0 else None)
    return {
        "n_configs": n_configs,
        "calls_per_slot": calls_per_slot,
        "seed": seed,
        "demand_surprise": demand_surprise,
        "flash_slots": list(flash_slots),
        "flash_factor": flash_factor,
        "cushion": cushion,
        "generated_calls": static["generated_calls"],
        "static": static,
        "closed_loop": closed,
        "overflow_reduction": overflow_reduction,
        "capacity_hours_ratio": (
            closed["capacity_core_hours"] / static["capacity_core_hours"]
            if static["capacity_core_hours"] > 0 else None),
    }


def check(result: Dict[str, object]) -> None:
    """The ``drills`` job's ``autoscale`` contract; raises
    AssertionError on violation."""
    static, closed = result["static"], result["closed_loop"]
    assert static["accounting_exact"], "static arm accounting broken"
    assert closed["accounting_exact"], \
        "closed-loop accounting broken through rescales"
    drain_shortfall = closed["autoscale"].get("drain_shortfall", 0)
    assert drain_shortfall == 0, \
        f"scale-down touched settled slots (shortfall={drain_shortfall})"
    assert closed["rescale_events"] > 0, "closed loop never rescaled"
    reduction = result["overflow_reduction"]
    assert reduction is not None and reduction >= 0.5, (
        f"closed loop must cut overflow >= 50% "
        f"(got {reduction if reduction is None else f'{reduction:.1%}'}: "
        f"{static['overflowed_calls']} -> {closed['overflowed_calls']})")
    ratio = result["capacity_hours_ratio"]
    assert ratio is not None and ratio <= 1.0, (
        f"closed loop must not spend more capacity-hours than static "
        f"(ratio {ratio:.3f})")


def render(result: Dict[str, object]) -> str:
    static, closed = result["static"], result["closed_loop"]
    reduction = result["overflow_reduction"]
    lines = [
        f"demand surprise x{result['demand_surprise']} + flash hour "
        f"x{result['flash_factor']} over slots {result['flash_slots']} "
        f"({result['generated_calls']} calls, seed {result['seed']}):",
        f"  {'arm':<12}{'overflowed':>11}{'rescales':>9}"
        f"{'capacity core-h':>17}",
        f"  {'static':<12}{static['overflowed_calls']:>11}"
        f"{0:>9}{static['capacity_core_hours']:>17.1f}",
        f"  {'closed-loop':<12}{closed['overflowed_calls']:>11}"
        f"{closed['rescale_events']:>9}"
        f"{closed['capacity_core_hours']:>17.1f}",
    ]
    if reduction is not None:
        lines.append(
            f"  closed loop cuts overflow {reduction:.1%} at "
            f"{result['capacity_hours_ratio']:.2f}x the capacity-hours")
    scale = closed["autoscale"].get("final_scale")
    if scale is not None:
        lines.append(
            f"  final scale {scale}x after "
            f"{closed['autoscale'].get('scale_ups', 0)} scale-ups / "
            f"{closed['autoscale'].get('scale_downs', 0)} scale-downs")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Static plan vs closed-loop autoscaling under "
                    "demand surprise")
    parser.add_argument("--smoke", action="store_true",
                        help="small scale + assert the CI contract")
    parser.add_argument("--json", type=str, default=None,
                        help="write the result dict to this path")
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args(argv)

    if args.smoke:
        result = run(n_configs=8, calls_per_slot=120.0, seed=args.seed)
    else:
        result = run(seed=args.seed)
    print(render(result))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2, default=str)
        print(f"report written to {args.json}")
    if args.smoke:
        check(result)
        print("autoscale contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
