"""Table 3: the headline — cores / WAN / cost / mean ACL for RR, LF, SB.

Evaluates the two baselines and Switchboard on the standard scenario's
ground-truth demand, with and without backup capacity, and reports all
metrics normalized to Round-Robin — the paper's presentation.

Paper's values for reference (normalized to RR):

================  =====  ====  ====  ========
scheme            Cores  WAN   Cost  Mean ACL
================  =====  ====  ====  ========
without backup
LF                1.08   0.18  0.35  0.45
SB                1.00   0.14  0.29  0.51
with backup
LF                1.10   0.55  0.64  0.45
SB                1.00   0.43  0.49  0.45
================  =====  ====  ====  ========

Expected shape here: SB's cores track RR's, its WAN and cost undercut
both baselines, and its ACL lands at LF's level (with backup) or between
LF's and RR's (without).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.locality_first import LocalityFirstStrategy
from repro.baselines.round_robin import RoundRobinStrategy
from repro.experiments.common import Scenario, build_scenario
from repro.metrics.report import (
    SchemeMetrics,
    comparison_table,
    evaluate_strategy,
    render_table,
)
from repro.config import PlannerConfig
from repro.switchboard import Switchboard


def run(scenario: Optional[Scenario] = None,
        max_link_scenarios: int = 3) -> Dict[str, object]:
    scn = scenario if scenario is not None else build_scenario("default")
    demand = scn.sampled_demand
    strategies = [
        RoundRobinStrategy(scn.topology, scn.load_model),
        LocalityFirstStrategy(scn.topology, scn.load_model),
        Switchboard(scn.topology, scn.load_model,
                    config=PlannerConfig(
                        max_link_scenarios=max_link_scenarios)),
    ]
    metrics: List[SchemeMetrics] = []
    for with_backup in (False, True):
        for strategy in strategies:
            metrics.append(evaluate_strategy(
                strategy, demand, with_backup,
                max_link_scenarios=max_link_scenarios,
            ))
    table = comparison_table(metrics)
    sb_with = table[True]["switchboard"]
    lf_with = table[True]["locality_first"]
    return {
        "metrics": metrics,
        "normalized": table,
        "headline": {
            "sb_cost_saving_vs_rr": 1.0 - sb_with["Cost"],
            "sb_cost_saving_vs_lf": 1.0 - sb_with["Cost"] / lf_with["Cost"],
            "sb_wan_saving_vs_lf": 1.0 - sb_with["WAN"] / lf_with["WAN"],
        },
    }


def render(result: Dict[str, object]) -> str:
    lines = ["Table 3 — resources, cost and mean ACL (normalized to RR):"]
    lines.append(render_table(result["normalized"]))
    headline = result["headline"]
    lines.append(
        f"SB saves {headline['sb_cost_saving_vs_rr']:.0%} cost vs RR "
        f"(paper: 51%) and {headline['sb_cost_saving_vs_lf']:.0%} vs LF "
        f"(paper: 23%); SB WAN is {headline['sb_wan_saving_vs_lf']:.0%} "
        "below LF's (paper: 22%)."
    )
    return "\n".join(lines)


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
