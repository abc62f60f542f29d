"""Scheme comparison reports: the machinery behind Tables 3 and 4.

Evaluates each strategy (RR, LF, SB) on a demand matrix, with and without
backup capacity, and renders the results normalized to the RR baseline —
the exact presentation of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.errors import SwitchboardError
from repro.baselines.base import ProvisioningStrategy
from repro.switchboard import Switchboard
from repro.workload.arrivals import Demand


@dataclass
class SchemeMetrics:
    """One row of Table 3 in absolute units."""

    scheme: str
    with_backup: bool
    total_cores: float
    total_wan_gbps: float
    total_cost: float
    mean_acl_ms: float

    def normalized_to(self, baseline: "SchemeMetrics") -> Dict[str, float]:
        if min(baseline.total_cores, baseline.total_wan_gbps,
               baseline.total_cost, baseline.mean_acl_ms) <= 0:
            raise SwitchboardError("degenerate baseline metrics")
        return {
            "Cores": self.total_cores / baseline.total_cores,
            "WAN": self.total_wan_gbps / baseline.total_wan_gbps,
            "Cost": self.total_cost / baseline.total_cost,
            "Mean ACL": self.mean_acl_ms / baseline.mean_acl_ms,
        }


def evaluate_strategy(strategy: ProvisioningStrategy, demand: Demand,
                      with_backup: bool,
                      max_link_scenarios: Optional[int] = None) -> SchemeMetrics:
    """Provision + allocate one strategy and measure the §6.1 metrics.

    For Switchboard, latency is measured on the latency-optimal daily
    allocation *inside* the provisioned capacity — with backup capacity
    available, that allocation converges to LF's placement (§6.3's
    observation that SB's ACL equals LF's with backup).
    """
    topology = strategy.topology
    if with_backup:
        capacity = strategy.plan_with_backup(
            demand, max_link_scenarios=max_link_scenarios
        )
    else:
        capacity = strategy.plan_without_backup(demand)

    if isinstance(strategy, Switchboard):
        mean_acl = strategy.mean_acl_with_capacity(demand, capacity)
    else:
        mean_acl = strategy.mean_acl_ms(demand)

    return SchemeMetrics(
        scheme=strategy.name,
        with_backup=with_backup,
        total_cores=capacity.total_cores(),
        total_wan_gbps=capacity.total_wan_gbps(topology),
        total_cost=capacity.cost(topology),
        mean_acl_ms=mean_acl,
    )


def comparison_table(metrics: Sequence[SchemeMetrics]
                     ) -> Dict[bool, Dict[str, Dict[str, float]]]:
    """Table 3: per backup-regime, per scheme, metrics normalized to RR."""
    table: Dict[bool, Dict[str, Dict[str, float]]] = {}
    for regime in (False, True):
        rows = [m for m in metrics if m.with_backup == regime]
        if not rows:
            continue
        baseline = next((m for m in rows if m.scheme == "round_robin"), None)
        if baseline is None:
            raise SwitchboardError(
                f"no round_robin row for regime with_backup={regime}"
            )
        table[regime] = {m.scheme: m.normalized_to(baseline) for m in rows}
    return table


def render_table(table: Dict[bool, Dict[str, Dict[str, float]]]) -> str:
    """Human-readable Table 3 (same layout as the paper)."""
    lines = []
    header = f"{'Scheme':<16}{'Cores':>8}{'WAN':>8}{'Cost':>8}{'Mean ACL':>10}"
    for regime, label in ((False, "Without backup"), (True, "With backup")):
        if regime not in table:
            continue
        lines.append(f"--- {label} ---")
        lines.append(header)
        for scheme, row in table[regime].items():
            lines.append(
                f"{scheme:<16}"
                f"{row['Cores']:>8.2f}{row['WAN']:>8.2f}"
                f"{row['Cost']:>8.2f}{row['Mean ACL']:>10.2f}"
            )
    return "\n".join(lines)
