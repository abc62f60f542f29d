"""The offline daily allocation LP (§5.3 "Allocation plan", Eq 10).

Runs once per day with the *provisioned capacities fixed*: choose the DC
shares ``S_tcx`` that minimize total ACL (Eq 10) subject to the capacity
already provisioned.  Because cost is fixed at this stage, the latency
objective is primary here; the paper describes it as a secondary objective
added to the provisioning LP, which is equivalent once ``CP``/``NP`` are
pinned at their provisioned values.

Realized demand can exceed what was provisioned for (forecast error), so
every capacity constraint carries an expensive *overflow* slack: the LP
always solves, and the overflow total reports how far reality outran the
plan — the quantity a production system would alarm on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.core.types import CallConfig
from repro.allocation.plan import AllocationPlan
from repro.provisioning.demand import PlacementData
from repro.provisioning.formulation import assemble_serving_blocks
from repro.provisioning.lp import LinearProgram, SolveStats
from repro.provisioning.planner import CapacityPlan
from repro.workload.arrivals import Demand

#: Objective price of one unit of overflow (cores or Gbps).  It only needs
#: to dominate any achievable ACL coefficient (ms values are < 1e3).
_OVERFLOW_PENALTY = 1e7

#: Sub-millisecond objective bonus for placing a config at the DC the
#: real-time selector will guess (closest to the majority country, which
#: is where the first joiner almost always is).  Among DCs whose ACL
#: differs by less than this, the plan prefers the guess DC — avoiding
#: migrations that would buy less than half a millisecond (§5.4/§6.4).
_GUESS_ALIGNMENT_BONUS_MS = 0.5


@dataclass
class AllocationOutcome:
    """The plan plus how much capacity overflow it needed.

    ``method`` / ``degradation_level`` mirror
    :class:`~repro.provisioning.planner.CapacityPlan`'s tags: ``"lp"`` at
    level 0 is the Eq 10 optimum; ``"locality"`` at level 1 means the
    allocation LP failed persistently and the min-ACL heuristic produced
    the plan instead.
    """

    plan: AllocationPlan
    compute_overflow_cores: float
    network_overflow_gbps: float
    objective_acl_sum: float
    stats: SolveStats = field(default_factory=SolveStats)
    method: str = "lp"
    degradation_level: int = 0

    @property
    def overflowed(self) -> bool:
        return self.compute_overflow_cores > 1e-6 or self.network_overflow_gbps > 1e-6

    @property
    def degraded(self) -> bool:
        return self.degradation_level > 0


class AllocationOptimizer:
    """Builds and solves the daily allocation LP against fixed capacity."""

    def __init__(self, placement: PlacementData, capacity: CapacityPlan):
        self.placement = placement
        self.capacity = capacity

    def allocate(self, demand: Demand) -> AllocationOutcome:
        """Assemble (the shared serving-block assembler, one block) and
        solve the LP."""
        t_build = time.perf_counter()
        lp = LinearProgram()
        topology = self.placement.topology
        options = [self.placement.options(config) for config in demand.configs]
        objective = []
        for config, config_options in zip(demand.configs, options):
            guess_dc = topology.closest_dc(config.majority_country)
            objective.append([
                option.acl_ms - (_GUESS_ALIGNMENT_BONUS_MS
                                 if option.dc_id == guess_dc else 0.0)
                for option in config_options
            ])

        def capacity_row(kind, resource, slots):
            # Each capacity row carries its own expensive overflow slack,
            # so the LP always solves and reports how far demand outran
            # the plan.
            if kind == "CP":
                cap, slack = self.capacity.cores.get(resource, 0.0), "over_cp"
            else:
                cap, slack = self.capacity.link_gbps.get(resource, 0.0), "over_np"
            start = lp.variables.add_batch(
                [(slack, int(t), resource) for t in slots],
                objective=_OVERFLOW_PENALTY,
            )
            return np.full(slots.size, cap), np.arange(start, start + slots.size)

        assemble_serving_blocks(lp, demand.counts, [(None, options, objective)],
                                capacity_row)

        assembly_seconds = time.perf_counter() - t_build
        solution = lp.solve(description="daily allocation LP",
                            assembly_seconds=assembly_seconds)

        shares: Dict[Tuple[int, CallConfig], Dict[str, float]] = {}
        acl_sum = 0.0
        configs = demand.configs
        compute_overflow = 0.0
        network_overflow = 0.0
        for key, value in solution.values.items():
            if value <= 1e-9:
                continue
            if key[0] == "S":
                _, t, j, dc_id = key
                shares.setdefault((t, configs[j]), {})[dc_id] = value
            elif key[0] == "over_cp":
                compute_overflow += value
            elif key[0] == "over_np":
                network_overflow += value
        for (t, config), cell in shares.items():
            for option in self.placement.options(config):
                if option.dc_id in cell:
                    acl_sum += option.acl_ms * cell[option.dc_id]

        return AllocationOutcome(
            plan=AllocationPlan(slots=list(demand.slots), shares=shares),
            compute_overflow_cores=compute_overflow,
            network_overflow_gbps=network_overflow,
            objective_acl_sum=acl_sum,
            stats=solution.stats,
        )
