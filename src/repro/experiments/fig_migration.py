"""Survive a DC loss under load: the live cross-DC migration drill.

``fig_storms`` handles an outage *statically*: the fault is known before
the day starts, so the planner rebuilds the allocation for the failure
scenario and the service never places a call on the doomed DC.  This
experiment does what an operator actually faces — the outage lands
mid-day with calls already settled on the failing DC — and drives the
live plane instead:

1. the planner provisions and allocates a **normal** cushioned day (no
   storm or fault knowledge);
2. the storm's fault plan is handed to a
   :class:`~repro.migrate.MigrationExecutor` as drain orders
   (:meth:`~repro.migrate.MigrationExecutor.watch`), so the DC loss
   fires *during* serving at its declared onset;
3. the stormed day (flash crowd + outage from the storm catalog) is
   served end to end; at the outage onset the selector stops settling
   onto the lost DC and the migrator evacuates every in-flight call
   through the ledger, bounded per batch window;
4. the drill asserts: exact accounting (zero lost calls), the drain
   fired, the lost DC fully evacuated (every in-flight call moved or
   explicitly disrupted), disruption under the configured ceiling, zero
   drain shortfall, a settle tail in the regime of the same day served
   with no migrator — and, in smoke mode, that the thread oracle and
   the process executor at 1/2/4 workers emit **byte-identical**
   canonical reports.

``--smoke --json`` is the ``drills`` CI job's ``migration`` entry.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.config import MigrationConfig, PlannerConfig, ServiceConfig
from repro.controller.columnar import build_event_batch
from repro.core.errors import SwitchboardError
from repro.core.types import make_slots
from repro.core.units import DEFAULT_FREEZE_WINDOW_S, DEFAULT_SLOT_S
from repro.migrate import MigrationExecutor
from repro.service import ServiceRuntime
from repro.storms.catalog import get_storm
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import DemandModel
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.trace import TraceGenerator

__all__ = ["check", "main", "render", "run"]

#: Version of the drill report dict; the ``drills`` CI job's
#: ``migration`` artifact keys its parsing off this field.
#:
#: History:
#:   1 — initial schema.
#:   2 — per-arm ``drain_fired`` invariant and ``settle_p99_ms``;
#:       top-level ``settle_tail`` block.
FIG_MIGRATION_SCHEMA_VERSION = 2

#: The storm-catalog scenario the drill serves: a 3x flash crowd landing
#: in the same hour a DC is lost.
DEFAULT_STORM = "viral-megameeting-during-dc-loss"

#: Report keys whose values are wall-clock (or name the arm itself) and
#: therefore excluded from the canonical byte-identity comparison.
_NON_CANONICAL_KEYS = frozenset({
    "executor", "n_workers", "wall_time_s", "events_per_s",
    "admission_latency_ms", "settle_latency_ms", "kv_latency_ms",
    "migration_latency_ms",
})

#: Evacuating a DC may not push the drill's settle p99 out of the
#: no-migrator baseline's regime: ``max(5x baseline, baseline + 5 ms)``.
#: Migration work is bounded per window, so the tail must stay put.
TAIL_FACTOR = 5.0
TAIL_SLACK_MS = 5.0


def canonical_report(report_dict: Dict[str, object]) -> str:
    """The deterministic projection of a ``ServiceReport.to_dict()``.

    Two runs serving the same input must agree on this string byte for
    byte, whatever the executor or worker count.
    """
    projected = {key: value for key, value in report_dict.items()
                 if key not in _NON_CANONICAL_KEYS}
    return json.dumps(projected, sort_keys=True, default=str)


def _stormed_day(plan_dsl, *, n_configs: int, calls_per_slot: float,
                 cushion: float, seed: int):
    """A fresh world: the plan of a normal day and the stormed events."""
    topo = Topology.small()

    # The planner's view: a normal cushioned day — unlike the static
    # storm harness, the fault plan is NOT consulted here.  The plan
    # still holds slots on the DC that is about to fail.
    population = generate_population(topo.world, n_configs=n_configs,
                                     seed=seed)
    model = DemandModel(topo.world, population, DiurnalModel(),
                        calls_per_slot_at_peak=calls_per_slot)
    slots = make_slots(86400.0, DEFAULT_SLOT_S)
    base = model.expected(slots)
    planning = base.scale(cushion)
    controller = Switchboard(topo, config=PlannerConfig(
        max_link_scenarios=0))
    capacity = controller.provision(planning, with_backup=False)
    plan = controller.allocate(planning, capacity).plan

    # The day that actually happens (same seeds as the storm harness).
    actual = plan_dsl.realize(base, seed + 1)
    trace = TraceGenerator(seed=seed + 2).generate_columnar(actual)
    trace = plan_dsl.apply_trace(trace, seed=seed + 3, demand_applied=True)
    events = build_event_batch(trace, DEFAULT_FREEZE_WINDOW_S)
    return topo, controller, plan, events


def _serve(topo, plan, events, executor: str, n_workers: int,
           migrator: Optional[MigrationExecutor] = None):
    svc = ServiceConfig(executor=executor, n_workers=n_workers)
    runtime = ServiceRuntime.from_config(
        topo, plan, svc, freeze_window_s=DEFAULT_FREEZE_WINDOW_S,
        migrator=migrator)
    return runtime.run(events)


def _serve_drill(storm_name: str, executor: str, n_workers: int, *,
                 migration: MigrationConfig,
                 **day) -> Dict[str, object]:
    """One arm of the drill: fresh world, fresh ledgers, one run."""
    plan_dsl = get_storm(storm_name).build()
    topo, controller, plan, events = _stormed_day(plan_dsl, **day)

    # The fault plan drives the live plane instead: DC failures become
    # drain orders firing mid-serve at their declared onset.
    migrator = MigrationExecutor(config=migration, obs=controller.obs)
    orders = migrator.watch(plan_dsl.fault_plan(), day=0)
    if not orders:
        raise SwitchboardError(
            f"storm {storm_name!r} carries no dc_failure fault; the "
            f"live-migration drill needs a DC to lose")

    report = _serve(topo, plan, events, executor, n_workers, migrator)

    generated = report.generated_calls
    metrics = report.migration
    candidates = int(metrics.get("candidates", 0))
    lost_dcs = sorted({order.dc for order in orders})
    # live_on excludes disrupted calls, so a non-empty answer means an
    # in-flight call was neither moved nor accounted for.
    stranded = sum(len(migrator.registry.live_on(dc)) for dc in lost_dcs)
    disruption_frac = (report.disrupted_calls / generated
                       if generated else 0.0)
    invariants = {
        "accounting_exact": bool(report.accounting_exact),
        "drain_fired": candidates > 0,
        "dc_evacuated": stranded == 0,
        "disruption_bounded":
            disruption_frac <= migration.disruption_ceiling,
        "candidates_partitioned":
            candidates == report.live_migrated_calls + report.disrupted_calls,
        "drain_clean": int(report.autoscale.get("drain_shortfall", 0)) == 0,
    }
    return {
        "executor": executor,
        "n_workers": n_workers,
        "lost_dcs": lost_dcs,
        "generated_calls": generated,
        "admitted_calls": report.admitted_calls,
        "migrated_calls": report.migrated_calls,
        "overflowed_calls": report.overflowed_calls,
        "live_migrated_calls": report.live_migrated_calls,
        "disrupted_calls": report.disrupted_calls,
        "disruption_frac": round(disruption_frac, 6),
        "disruption_ceiling": migration.disruption_ceiling,
        "migration_batches": report.migration_batches,
        "fallback_moves": int(metrics.get("fallback_moves", 0)),
        "stranded_calls": stranded,
        "settle_p99_ms": report.settle_latency_ms["p99"],
        "invariants": invariants,
        "ok": all(invariants.values()),
        "canonical": canonical_report(report.to_dict()),
    }


def run(smoke: bool = False, *,
        storm: str = DEFAULT_STORM,
        n_configs: int = 8, calls_per_slot: float = 60.0,
        cushion: float = 1.25, seed: int = 29,
        migrate_interval_s: float = 600.0,
        max_moves_per_window: int = 256,
        disruption_ceiling: float = 0.25) -> Dict[str, object]:
    """The DC-loss drill; ``smoke=True`` adds the process-executor arms
    (1/2/4 workers) and the byte-identity comparison against the thread
    oracle.  The thread@1 arm's settle tail is bounded against the same
    day served with no migrator."""
    migration = MigrationConfig(
        interval_s=migrate_interval_s,
        max_moves_per_window=max_moves_per_window,
        disruption_ceiling=disruption_ceiling)
    day = dict(n_configs=n_configs, calls_per_slot=calls_per_slot,
               cushion=cushion, seed=seed)
    arms: List[Dict[str, object]] = [("thread", 1)]
    if smoke:
        arms.extend(("process", w) for w in (1, 2, 4))

    runs = [_serve_drill(storm, executor, n_workers, migration=migration,
                         **day)
            for executor, n_workers in arms]
    oracle_canonical = runs[0]["canonical"]
    for row in runs:
        row["canonical_matches_oracle"] = (
            row["canonical"] == oracle_canonical)
        del row["canonical"]  # multi-KB blob; the boolean is the result
    identical = all(r["canonical_matches_oracle"] for r in runs)

    topo, _, plan, events = _stormed_day(get_storm(storm).build(), **day)
    base_p99 = _serve(topo, plan, events, "thread", 1).settle_latency_ms["p99"]
    bound_ms = max(TAIL_FACTOR * base_p99, base_p99 + TAIL_SLACK_MS)
    settle_tail = {"baseline_p99_ms": base_p99,
                   "drill_p99_ms": runs[0]["settle_p99_ms"],
                   "bound_ms": bound_ms,
                   "held": runs[0]["settle_p99_ms"] <= bound_ms}
    return {
        "schema_version": FIG_MIGRATION_SCHEMA_VERSION,
        "storm": storm,
        "seed": seed,
        "n_configs": n_configs,
        "calls_per_slot": calls_per_slot,
        "cushion": cushion,
        "migrate_interval_s": migrate_interval_s,
        "max_moves_per_window": max_moves_per_window,
        "smoke": smoke,
        "runs": runs,
        "canonical_identical": identical,
        "settle_tail": settle_tail,
        "ok": (identical and settle_tail["held"]
               and all(r["ok"] for r in runs)),
    }


def check(result: Dict[str, object]) -> None:
    """The ``drills`` job's ``migration`` contract; raises on any
    violated invariant."""
    failures: List[str] = []
    for row in result["runs"]:
        for invariant, held in row["invariants"].items():
            if not held:
                failures.append(
                    f"{row['executor']}@{row['n_workers']}: {invariant} "
                    f"(disrupted {row['disrupted_calls']}, stranded "
                    f"{row['stranded_calls']}, generated "
                    f"{row['generated_calls']})")
        if not row["canonical_matches_oracle"]:
            failures.append(
                f"{row['executor']}@{row['n_workers']}: canonical report "
                f"differs from the thread oracle")
    tail = result["settle_tail"]
    if not tail["held"]:
        failures.append(
            f"settle tail: drill p99 {tail['drill_p99_ms']:.2f} ms over "
            f"the bound {tail['bound_ms']:.2f} ms (no-migrator baseline "
            f"{tail['baseline_p99_ms']:.2f} ms)")
    if failures:
        raise SwitchboardError(
            "migration drill invariants violated:\n  "
            + "\n  ".join(failures))


def render(result: Dict[str, object]) -> str:
    lines = [
        f"DC-loss drill — storm {result['storm']!r}, "
        f"seed {result['seed']}:",
        f"  {'arm':<12}{'calls':>7}{'live-moves':>12}{'disrupted':>11}"
        f"{'batches':>9}{'stranded':>10}  ok",
    ]
    for row in result["runs"]:
        arm = f"{row['executor']}@{row['n_workers']}"
        lines.append(
            f"  {arm:<12}{row['generated_calls']:>7}"
            f"{row['live_migrated_calls']:>12}{row['disrupted_calls']:>11}"
            f"{row['migration_batches']:>9}{row['stranded_calls']:>10}"
            f"  {'yes' if row['ok'] else 'NO'}")
    lines.append(
        f"  canonical reports identical across arms: "
        f"{'yes' if result['canonical_identical'] else 'NO'}")
    tail = result["settle_tail"]
    lines.append(
        f"  settle p99: baseline {tail['baseline_p99_ms']:.2f} ms -> drill "
        f"{tail['drill_p99_ms']:.2f} ms (bound {tail['bound_ms']:.2f} ms)")
    lines.append(f"  all invariants hold: {'yes' if result['ok'] else 'NO'}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Live cross-DC migration drill: lose a DC mid-day "
                    "under a flash crowd and evacuate it through the "
                    "ledger with zero lost calls")
    parser.add_argument("--smoke", action="store_true",
                        help="add process@1/2/4 arms, assert the CI "
                             "contract and thread/process byte-identity")
    parser.add_argument("--json", type=str, default=None,
                        help="write the drill report to this path")
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--storm", type=str, default=DEFAULT_STORM)
    args = parser.parse_args(argv)

    result = run(smoke=args.smoke, storm=args.storm, seed=args.seed)
    print(render(result))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2, default=str)
        print(f"report written to {args.json}")
    if args.smoke:
        check(result)
        print("migration contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
