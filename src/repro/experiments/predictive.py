"""§8 applied: prediction-assisted selection vs the first-joiner heuristic.

The paper's discussion closes with: accurate per-call config prediction
"can significantly reduce inter-DC migrations".  This experiment runs a
workload of recurring meetings through both selectors against the same
daily plan:

* the standard §5.4 selector (closest DC to the first joiner, reconcile at
  A = 300 s);
* the predictive selector, which places each recurring call where the plan
  wants its *predicted* config.

The predictive selector should migrate strictly fewer calls at equal (or
better) latency.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.allocation.predictive import compare_selectors, series_hint_fn
from repro.prediction.predictor import CallConfigPredictor
from repro.config import PlannerConfig
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.series import generate_series, series_to_calls
from repro.workload.trace import CallTrace


def run(topology: Optional[Topology] = None,
        n_series: int = 120, occurrences: int = 10,
        train_fraction: float = 0.7, cushion: float = 1.25,
        with_backup: bool = True,
        seed: int = 53) -> Dict[str, object]:
    topo = topology if topology is not None else Topology.default()
    all_series = generate_series(topo.world, n_series=n_series,
                                 occurrences=occurrences, seed=seed)
    split = int(train_fraction * len(all_series))
    predictor = CallConfigPredictor().fit(all_series[:split])

    calls = series_to_calls(all_series, seed=seed + 1)
    # Fold the weekly occurrences onto one planning day: the plan is per
    # (slot, config) and all occurrences of a series share the start slot.
    slot_horizon = max(call.start_s + 1.0 for call in calls)
    from repro.core.types import make_slots

    trace = CallTrace(calls, make_slots(slot_horizon, 1800.0))
    demand = trace.to_demand(freeze_after_s=300.0)

    controller = Switchboard(topo, config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(demand, with_backup=with_backup)
    plan = controller.allocate(demand, capacity.scaled(cushion)).plan

    series_index = {series.series_id: series for series in all_series}
    hint_fn = series_hint_fn(series_index, predictor)
    comparison = compare_selectors(topo, plan, calls, hint_fn)
    comparison["migration_reduction"] = (
        1.0 - comparison["predictive_migration_rate"]
        / comparison["standard_migration_rate"]
        if comparison["standard_migration_rate"] > 0 else 0.0
    )
    return comparison


def render(result: Dict[str, object]) -> str:
    return "\n".join([
        f"§8 applied — predictive selection over {result['n_calls']:.0f} "
        "recurring-call instances:",
        f"  standard selector:   migrations "
        f"{result['standard_migration_rate']:.2%}, "
        f"mean ACL {result['standard_mean_acl_ms']:.1f} ms",
        f"  predictive selector: migrations "
        f"{result['predictive_migration_rate']:.2%}, "
        f"mean ACL {result['predictive_mean_acl_ms']:.1f} ms "
        f"(hints for {result['hint_rate']:.0%} of calls)",
        f"  migration reduction: {result['migration_reduction']:.0%} "
        "(paper: prediction 'can significantly reduce inter-DC migrations')",
    ])


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
