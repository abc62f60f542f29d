"""§4.4: application-specific vs resource-log-based provisioning.

The paper's fourth key idea, illustrated with a surge: "let's say calls
with all their users in India are increasing.  On one hand, if Switchboard
were making provisioning decisions simply based on compute and
network-specific resource usage, it would end up adding more capacity in
India, and potentially increasing the peak.  However [with]
application-specific provisioning, we could absorb this surge in demand by
shifting calls to another DC, and thereby not increase the peak (and
therefore, cost)."

Like the paper (which presents this as a worked idea, not an evaluated
table), we demonstrate it on the 3-DC running example with time-shifted
single peaks: one country's calls surge, and

* **resource-log** provisioning (the pre-Switchboard approach, e.g.
  Approv [34]) keeps the production placement policy — locality-first —
  and sizes each resource to its own projected usage, so the surging
  country's DC grows by the full surge;
* **app-aware** provisioning re-runs Switchboard's placement LP over the
  new *call-config* demand and absorbs the surge into the other DCs'
  off-peak slack.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.baselines.locality_first import LocalityFirstStrategy
from repro.baselines.resource_log import ResourceLogProvisioner
from repro.core.types import CallConfig, MediaType, make_slots
from repro.config import PlannerConfig
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand
from repro.workload.media import MediaLoadModel

#: Per-slot call counts per country: single time-shifted peaks, as in the
#: paper's running example (Figs 3-4).  Each country peaks in a different
#: slot, leaving slack elsewhere.
#: JP's peak slot (0) carries less total demand than the global-peak slot
#: (1), so a JP surge fits inside capacity the other countries' peaks
#: already paid for — the §4.4 "absorb without growing the peak" setup.
_TOY_DEMAND = {
    "JP": [300.0, 120.0, 80.0],
    "HK": [240.0, 440.0, 200.0],
    "IN": [80.0, 240.0, 440.0],
}


def _toy_demand(surge_country: Optional[str] = None,
                surge: float = 0.0) -> Demand:
    slots = make_slots(3 * 1800.0, 1800.0)
    configs = [CallConfig.build({code: 1}, MediaType.AUDIO) for code in _TOY_DEMAND]
    counts = np.zeros((len(slots), len(configs)))
    for j, code in enumerate(_TOY_DEMAND):
        factor = 1.0 + surge if code == surge_country else 1.0
        for t, value in enumerate(_TOY_DEMAND[code]):
            counts[t, j] = value * factor
    return Demand(slots, configs, counts)


def _compare(topology: Topology, load_model: MediaLoadModel,
             base: Demand, surged: Demand) -> Dict[str, Dict[str, float]]:
    lf = LocalityFirstStrategy(topology, load_model)
    logs = ResourceLogProvisioner(topology, load_model)
    sb = Switchboard(topology, load_model,
                     config=PlannerConfig(max_link_scenarios=0))

    log_before = logs.provision(lf.allocation_plan(base), base)
    log_after = logs.provision(lf.allocation_plan(surged), surged)
    sb_before = sb.provision(base, with_backup=False)
    sb_after = sb.provision(surged, with_backup=False)

    def deltas(before, after):
        return {
            "cost_before": before.cost(topology),
            "cost_after": after.cost(topology),
            "cost_increase": after.cost(topology) / before.cost(topology) - 1.0,
            "cores_increase": after.total_cores() / before.total_cores() - 1.0,
            "cores_added": after.total_cores() - before.total_cores(),
        }

    return {
        "log_based": deltas(log_before, log_after),
        "app_aware": deltas(sb_before, sb_after),
    }


def run(surge_country: str = "JP", surge: float = 0.5) -> Dict[str, object]:
    """The paper's illustration on the 3-DC running example."""
    topology = Topology.small()
    load_model = MediaLoadModel()
    result = _compare(
        topology, load_model,
        _toy_demand(),
        _toy_demand(surge_country, surge),
    )
    result.update({"country": surge_country, "surge": surge, "world": "3-DC toy"})
    return result


def render(result: Dict[str, object]) -> str:
    log_based = result["log_based"]
    app = result["app_aware"]
    return "\n".join([
        f"§4.4 — absorbing a +{result['surge']:.0%} surge in "
        f"{result['country']} calls ({result['world']} world):",
        f"  resource-log provisioning: cost +{log_based['cost_increase']:.1%}, "
        f"cores +{log_based['cores_increase']:.1%} "
        f"({log_based['cores_added']:+.1f} cores)",
        f"  app-aware (Switchboard):   cost +{app['cost_increase']:.1%}, "
        f"cores +{app['cores_increase']:.1%} "
        f"({app['cores_added']:+.1f} cores)",
        "  (paper: app-aware absorbs the surge by shifting calls, "
        "not growing the peak)",
    ])


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
