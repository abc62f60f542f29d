"""The exact joint provisioning LP across all failure scenarios.

The sequential incremental pass in :mod:`repro.provisioning.planner` is an
upper bound: scenario order can leave a little money on the table.  This
module solves the *joint* problem exactly — allocation variables
``S_tcx^f`` per scenario, with **shared** capacity variables ``CP_x`` /
``NP_l`` covering every scenario's usage (the literal reading of Eqs 7-8
as in-LP constraints).  It is the reference the ablation benchmark
compares the incremental planner against, and is practical for moderate
instance sizes (the variable count multiplies by the scenario count).

It is the per-scenario LP with more serving blocks: a
:class:`~repro.provisioning.formulation.ScenarioLP` holding one block per
scenario (``S`` keys tagged with the scenario's index) over one set of
``CP``/``NP`` columns, so assembly, numerical conditioning, infeasibility
diagnosis and extraction are that class's — see that module's docstring.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Optional

from repro.core.errors import SolverError
from repro.provisioning.demand import PlacementData
from repro.provisioning.failures import FailureScenario
from repro.provisioning.formulation import ScenarioLP
from repro.provisioning.planner import CapacityPlan
from repro.workload.arrivals import Demand

if TYPE_CHECKING:
    from repro.provisioning.background import BackgroundTraffic


class JointProvisioningLP:
    """One LP, all scenarios, shared capacity.

    ``latency_weight`` adds the allocation stage's latency objective
    (Eq 10) as a tiny secondary term, exactly as §5.3 describes ("adds
    the following secondary objective to the LP above"): among
    cost-optimal solutions the LP then prefers low-ACL placements, so the
    provisioned capacity covers the latency-optimal allocation the daily
    planner will later ask for.  The default weight is small enough that
    the cost objective is distorted by well under 0.1%.
    """

    def __init__(self, placement: PlacementData, demand: Demand,
                 scenarios: List[FailureScenario],
                 latency_weight: float = 1e-6,
                 background: Optional["BackgroundTraffic"] = None,
                 dc_core_limits: Optional[Mapping[str, float]] = None):
        if not scenarios:
            raise SolverError("need at least one scenario")
        if latency_weight < 0:
            raise SolverError("latency weight must be non-negative")
        self.scenarios = list(scenarios)
        self.problem = ScenarioLP(
            placement, demand, self.scenarios[0],
            latency_weight=latency_weight, background=background,
            dc_core_limits=dc_core_limits,
        )
        self.problem.blocks = list(enumerate(self.scenarios))

    def solve(self) -> CapacityPlan:
        """The joint plan: one result per scenario, each sharing the plan's
        capacities, their Eq 3 cost and the single solve's stats."""
        results = self.problem.solve_blocks(
            description="joint provisioning LP"
        )
        # The base is empty, so the plan is exactly what the LP bought:
        # the excess maps hold the solver's values bit for bit (a -0.0
        # stays -0.0, and so does every allocation LP built on the plan).
        return CapacityPlan(cores=results[0].excess_cores,
                            link_gbps=results[0].excess_links,
                            scenario_results=results)
