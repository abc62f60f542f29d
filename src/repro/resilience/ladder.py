"""The degradation ladder: ``provision()`` always returns a plan.

A production controller must degrade, not crash: when the configured
provisioning method fails persistently (solver crash, timeout,
infeasibility), the planner walks a configurable ladder of
progressively cheaper-but-rougher methods and returns the first plan any
rung produces, *tagged with how far it degraded*:

    joint  →  max-combining  →  incremental  →  locality-first heuristic

* ``joint`` — the exact joint serving+backup LP (§4.2), one big solve;
* ``max`` — independent per-scenario LPs element-wise max-combined
  (Eqs 7-8), solved on threads and resilient to single-scenario failures;
* ``incremental`` — the sequential growing-base sweep, small LPs only;
* ``locality`` — **no LP at all**: every config at its min-ACL DC,
  closed-form regional backup, failover-peak link capacity.  It always
  succeeds, which is what makes the ladder total.

The walk starts at the configured ``backup_method``'s position (a planner
configured for ``incremental`` never escalates *up* to the joint LP) and
each fallback emits a ``ladder.fallback`` event with the failing rung and
error.  The returned :class:`~repro.provisioning.planner.CapacityPlan`
carries ``method`` (the rung that produced it), ``degradation_level``
(its index in the walk — 0 means no degradation) and the full
observability bundle.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.errors import SwitchboardError, TopologyError
from repro.core.types import CallConfig
from repro.config import PlannerConfig
from repro.allocation.offline import AllocationOutcome
from repro.allocation.plan import AllocationPlan
from repro.provisioning.demand import PlacementData
from repro.provisioning.planner import CapacityPlan, CapacityPlanner
from repro.resilience.supervisor import SolveSupervisor
from repro.topology.geo import REGIONS
from repro.workload.arrivals import Demand


def provision_with_ladder(placement: PlacementData, demand: Demand,
                          config: PlannerConfig, with_backup: bool = True,
                          supervisor: Optional[SolveSupervisor] = None,
                          warm_cache=None) -> CapacityPlan:
    """Walk the degradation ladder until some rung yields a plan.

    Without backup there is only one LP to run, so the walk is the
    two-rung ``serving → locality``.  With backup the walk is
    :meth:`PlannerConfig.provisioning_ladder`.  ``config.portfolio`` arms
    the planner with arm racing and scenario dedup; every scenario LP is
    solved through the caller-owned ``warm_cache``, when one is given.
    """
    supervisor = supervisor or SolveSupervisor(config)
    obs = supervisor.obs
    planner = CapacityPlanner(placement, demand, supervisor=supervisor,
                              portfolio=config.portfolio,
                              warm_cache=warm_cache)
    rungs: Tuple[str, ...]
    if with_backup:
        rungs = config.provisioning_ladder()
    else:
        rungs = ("serving", "locality")

    last_error: Optional[SwitchboardError] = None
    for level, rung in enumerate(rungs):
        try:
            if rung == "locality":
                plan = locality_fallback_plan(placement, demand, config,
                                              with_backup=with_backup)
            elif rung == "serving":
                plan = planner.plan_without_backup(
                    background=config.background,
                    dc_core_limits=config.dc_core_limits,
                )
            else:
                plan = planner.plan_with_backup(
                    max_link_scenarios=config.max_link_scenarios,
                    method=rung,
                    background=config.background,
                    dc_core_limits=config.dc_core_limits,
                )
        except SwitchboardError as exc:
            last_error = exc
            obs.record(
                "ladder.fallback", label=rung, error=str(exc),
                next_rung=rungs[level + 1] if level + 1 < len(rungs) else None,
            )
            continue
        plan.method = rung
        plan.degradation_level = level
        plan.obs = obs
        obs.record("ladder.selected", label=rung, level=level)
        if level > 0:
            obs.counters.increment("ladder.degraded")
        return plan
    # Only reachable with a custom ladder that omits the terminal
    # locality rung — the default configuration always returns above.
    raise last_error


# ---------------------------------------------------------------------------
# The LP-free terminal rung.
# ---------------------------------------------------------------------------

def _locality_shares(placement: PlacementData, demand: Demand,
                     failed_dc: Optional[str] = None,
                     failed_link: Optional[str] = None) -> Dict:
    """Min-ACL single-DC shares for every (slot, config) with demand."""
    shares: Dict = {}
    best: Dict[CallConfig, Optional[str]] = {}
    for j, config in enumerate(demand.configs):
        if failed_dc is not None or failed_link is not None:
            options = placement.options_under_failure(
                config, failed_dc=failed_dc, failed_link=failed_link
            )
        else:
            options = placement.options(config)
        if not options:
            best[config] = None  # unservable under this failure
            continue
        best[config] = min(options, key=lambda o: o.acl_ms).dc_id
    for t in range(demand.n_slots):
        for j, config in enumerate(demand.configs):
            count = demand.counts[t, j]
            dc_id = best.get(config)
            if count <= 0 or dc_id is None:
                continue
            shares[(t, config)] = {dc_id: float(count)}
    return shares


def locality_allocation_plan(placement: PlacementData, demand: Demand,
                             failed_dc: Optional[str] = None,
                             failed_link: Optional[str] = None
                             ) -> AllocationPlan:
    """Min-ACL allocation plan (no LP), optionally under a failure."""
    return AllocationPlan(
        slots=list(demand.slots),
        shares=_locality_shares(placement, demand, failed_dc=failed_dc,
                                failed_link=failed_link),
    )


def locality_fallback_plan(placement: PlacementData, demand: Demand,
                           config: PlannerConfig,
                           with_backup: bool = True) -> CapacityPlan:
    """Last-resort capacity plan with no LP solve anywhere.

    Serving: each config at its min-ACL placement option; per-DC /
    per-link peaks computed directly.  Backup (when requested): within
    each region of ``n >= 2`` DCs every DC adds ``region_max / (n - 1)``
    backup cores, so any single in-region DC failure is covered
    (``(n-1) · region_max/(n-1) >= serving_x``); link capacity takes the
    max over per-DC failover and per-link reroute peaks.  Deliberately
    conservative — this rung trades cost optimality for the guarantee
    that it cannot fail.
    """
    from repro.baselines.base import UsageCalculator

    topology = placement.topology
    usage = UsageCalculator(topology, placement.load_model)
    base_plan = locality_allocation_plan(placement, demand)
    serving_cores, link_peaks = usage.peaks(base_plan, demand)
    cores = dict(serving_cores)
    links = dict(link_peaks)

    if with_backup:
        for region in REGIONS:
            region_dcs = [dc.dc_id for dc in topology.fleet.in_region(region)]
            if len(region_dcs) < 2:
                continue
            region_max = max(
                (serving_cores.get(dc_id, 0.0) for dc_id in region_dcs),
                default=0.0,
            )
            if region_max <= 0:
                continue
            share = region_max / (len(region_dcs) - 1)
            for dc_id in region_dcs:
                cores[dc_id] = cores.get(dc_id, 0.0) + share

        for dc_id in list(serving_cores):
            failover = locality_allocation_plan(placement, demand,
                                                failed_dc=dc_id)
            try:
                _, failover_links = usage.peaks(failover, demand)
            except TopologyError:
                continue
            for link_id, gbps in failover_links.items():
                links[link_id] = max(links.get(link_id, 0.0), gbps)

        candidates = [
            link for link in topology.wan.links
            if link.link_id in link_peaks
            and not topology.wan.is_bridge(link.link_id)
        ]
        candidates.sort(key=lambda link: (-link.unit_cost, link.link_id))
        if config.max_link_scenarios is not None:
            candidates = candidates[:config.max_link_scenarios]
        for link in candidates:
            try:
                _, rerouted = usage.peaks(base_plan, demand,
                                          failed_link=link.link_id)
            except TopologyError:
                continue
            for link_id, gbps in rerouted.items():
                links[link_id] = max(links.get(link_id, 0.0), gbps)

    return CapacityPlan(cores=cores, link_gbps=links, scenario_results=[])


def locality_allocation_outcome(placement: PlacementData,
                                capacity: CapacityPlan,
                                demand: Demand) -> AllocationOutcome:
    """LP-free allocation fallback inside a fixed capacity plan.

    Assigns every config to its min-ACL DC and reports how far the
    resulting peaks exceed the provisioned capacity as overflow — the
    same alarm-worthy quantity the allocation LP's slack would carry.
    """
    from repro.baselines.base import UsageCalculator

    plan = locality_allocation_plan(placement, demand)
    usage = UsageCalculator(placement.topology, placement.load_model)
    dc_peaks, link_peaks = usage.peaks(plan, demand)
    compute_overflow = sum(
        max(0.0, peak - capacity.cores.get(dc_id, 0.0))
        for dc_id, peak in dc_peaks.items()
    )
    network_overflow = sum(
        max(0.0, peak - capacity.link_gbps.get(link_id, 0.0))
        for link_id, peak in link_peaks.items()
    )
    acl_of = {
        (config, option.dc_id): option.acl_ms
        for config in demand.configs
        for option in placement.options(config)
    }
    acl_sum = 0.0
    for (_, config), cell in plan.shares.items():
        for dc_id, count in cell.items():
            acl_sum += acl_of.get((config, dc_id), 0.0) * count
    return AllocationOutcome(
        plan=plan,
        compute_overflow_cores=compute_overflow,
        network_overflow_gbps=network_overflow,
        objective_acl_sum=acl_sum,
        method="locality",
        degradation_level=1,
    )
