"""§6.4: frequency of inter-DC call migration, served live.

The real-time selector guesses the closest DC to the first joiner; at
A = 300 s the config freezes and the call is reconciled against the
precomputed plan, migrating when the guess disagrees.  The paper measures
1.53% migrations for Switchboard — the same as Locality-First needs —
because (a) the first joiner predicts the majority country for 95.2% of
calls and (b) with backup capacity, SB's plan coincides with LF placement.

The measurement runs on the **live service plane**: the trace's event
stream is served through :class:`~repro.service.ServiceRuntime` (thread
executor, one worker — the deterministic oracle configuration) and the
selector statistics are read off the resulting
:class:`~repro.service.report.ServiceReport`.  The old offline replay
(``RealTimeSelector.process_trace`` straight over the call list) is kept
as the *planning oracle*: ``run()`` replays it and raises if the live
path disagrees on a single call, so any drift between the serving and
planning planes fails loudly.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.allocation.realtime import RealTimeSelector
from repro.config import PlannerConfig, ServiceConfig
from repro.controller.columnar import build_event_batch
from repro.core.errors import SwitchboardError
from repro.experiments.common import Scenario, build_scenario
from repro.provisioning.planner import CapacityPlan
from repro.service import ServiceRuntime
from repro.switchboard import Switchboard

_FREEZE_S = 300.0


def _build_plan(scn: Scenario, cushion: float, with_backup: bool,
                max_link_scenarios: int):
    trace = scn.trace
    demand = trace.to_demand(freeze_after_s=_FREEZE_S)
    controller = Switchboard(
        scn.topology, scn.load_model,
        config=PlannerConfig(max_link_scenarios=max_link_scenarios),
    )
    capacity = controller.provision(demand, with_backup=with_backup)
    cushioned = CapacityPlan(
        cores={dc: v * cushion for dc, v in capacity.cores.items()},
        link_gbps={l: v * cushion for l, v in capacity.link_gbps.items()},
    )
    return controller.allocate(demand, cushioned).plan


def _oracle_stats(scn: Scenario, plan):
    """The offline planning replay the live path is pinned against."""
    selector = RealTimeSelector(scn.topology, plan,
                                freeze_window_s=_FREEZE_S)
    selector.process_trace(scn.trace.calls)
    return selector.stats


def _as_result(scn: Scenario, stats, lf_migrations: int
               ) -> Dict[str, object]:
    trace = scn.trace
    return {
        "sb_migration_rate": stats.migration_rate,
        "sb_mean_acl_ms": stats.mean_acl_ms,
        "sb_unplanned_rate": stats.unplanned / stats.calls,
        "sb_overflow_calls": stats.overflow,
        "lf_migration_rate": lf_migrations / len(trace.calls),
        "majority_matches_first_joiner": trace.majority_matches_first_joiner_rate(),
        "n_calls": len(trace.calls),
        "live_path": True,
    }


def _lf_migrations(scn: Scenario) -> int:
    # The LF comparator: migrate iff the min-ACL DC of the frozen config
    # differs from the closest DC to the first joiner.
    return sum(
        1 for call in scn.trace.calls
        if scn.topology.best_dc(call.config(_FREEZE_S))
        != scn.topology.closest_dc(call.first_joiner.country)
    )


def run(scenario: Optional[Scenario] = None,
        cushion: float = 1.25,
        with_backup: bool = True,
        max_link_scenarios: int = 0) -> Dict[str, object]:
    """Serve the trace through the live service plane and report §6.4.

    The offline planning replay runs alongside as the oracle; any
    disagreement on migrations, overflow, unplanned placements, call
    count, or mean ACL raises :class:`SwitchboardError`.
    """
    scn = scenario if scenario is not None else build_scenario("default")
    plan = _build_plan(scn, cushion, with_backup, max_link_scenarios)

    runtime = ServiceRuntime.from_config(
        scn.topology, plan, ServiceConfig(), freeze_window_s=_FREEZE_S)
    report = runtime.run(build_event_batch(scn.columnar_trace, _FREEZE_S))
    report.require_exact_accounting()
    live_stats = runtime.selector.stats

    oracle = _oracle_stats(scn, plan)
    mismatches = {
        name: (got, want)
        for name, got, want in (
            ("calls", live_stats.calls, oracle.calls),
            ("migrations", live_stats.migrations, oracle.migrations),
            ("unplanned", live_stats.unplanned, oracle.unplanned),
            ("overflow", live_stats.overflow, oracle.overflow),
        )
        if got != want
    }
    if abs(live_stats.mean_acl_ms - oracle.mean_acl_ms) > 1e-6:
        mismatches["mean_acl_ms"] = (live_stats.mean_acl_ms,
                                     oracle.mean_acl_ms)
    if mismatches:
        raise SwitchboardError(
            f"live service path diverged from the planning oracle: "
            f"{mismatches} (live, oracle)")

    return _as_result(scn, live_stats, _lf_migrations(scn))


def render(result: Dict[str, object]) -> str:
    return "\n".join([
        f"§6.4 — call migration over {result['n_calls']} calls"
        + (" (live service plane)" if result.get("live_path") else "") + ":",
        f"  majority == first joiner: "
        f"{result['majority_matches_first_joiner']:.1%} (paper: 95.2%)",
        f"  SB migrations: {result['sb_migration_rate']:.2%} "
        "(paper: 1.53%)",
        f"  LF migrations: {result['lf_migration_rate']:.2%} "
        "(paper: same as SB)",
        f"  SB mean ACL: {result['sb_mean_acl_ms']:.1f} ms; unplanned "
        f"configs: {result['sb_unplanned_rate']:.2%}; overflowed calls: "
        f"{result['sb_overflow_calls']}",
    ])


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
