"""Capacity planner: per-scenario LPs max-combined into one plan (Eqs 7-8).

Following §5.3's procedure literally: solve the provisioning LP once per
failure scenario (``F_0``, each DC, each link), then set every DC's cores
and every link's Gbps to the **maximum** required across scenarios.  The
joint serving+backup multiplexing of §4.2 falls out of the max: capacity
that scenario ``F_0`` provisions for India's 05:30 peak is the same
capacity that scenario ``F_dc:tokyo`` reuses as Japan's 00:00 backup — it
is only paid for once.

Two sweep modes implement the combining:

* ``combine="incremental"`` (default) — scenario *k* sees everything
  scenarios 0..k-1 provisioned as free base capacity and pays only for
  its excess.  The base grows as the sweep proceeds, so the scenarios are
  **dependent** and the sweep is sequential by design.
* ``combine="max"`` — every scenario is solved independently against an
  empty base and the plan takes the element-wise maximum (the literal
  Eqs 7-8).  The scenarios are independent LPs, so the sweep solves them
  on one thread per usable CPU (HiGHS releases the GIL while it runs);
  results are merged in scenario order regardless of completion order.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.errors import SolverError
from repro.obs.events import Event, Observability
from repro.provisioning.demand import PlacementData
from repro.provisioning.failures import (
    NO_FAILURE,
    FailureScenario,
    dedupe_scenarios,
    enumerate_scenarios,
)
from repro.provisioning.formulation import ScenarioLP, ScenarioResult
from repro.provisioning.lp import SolveStats, WarmStartCache
from repro.provisioning.portfolio import build_arms, run_race
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand

if TYPE_CHECKING:
    from repro.config import PortfolioConfig
    from repro.resilience.supervisor import SolveSupervisor


@dataclass
class CapacityPlan:
    """Provisioned capacity: cores per DC, Gbps per link, and provenance.

    Plans produced through the resilient orchestration additionally carry
    ``method`` (the degradation-ladder rung that produced them, e.g.
    ``"joint"`` or ``"locality"``), ``degradation_level`` (0 = the
    configured method succeeded; higher = how many rungs were skipped),
    and ``obs`` — the :class:`~repro.obs.Observability` bundle holding
    the full attempt/retry/fallback event trail of the run.
    """

    cores: Dict[str, float]
    link_gbps: Dict[str, float]
    scenario_results: List[ScenarioResult] = field(default_factory=list)
    method: Optional[str] = None
    degradation_level: int = 0
    obs: Optional[Observability] = field(default=None, repr=False, compare=False)

    @property
    def degraded(self) -> bool:
        """True when the plan came from a fallback rung, not the
        configured method."""
        return self.degradation_level > 0

    def events(self, kind: Optional[str] = None,
               label_contains: Optional[str] = None) -> List[Event]:
        """The orchestration event trail (empty for unsupervised plans)."""
        if self.obs is None:
            return []
        return self.obs.events(kind=kind, label_contains=label_contains)

    def counter(self, name: str) -> int:
        """One observability counter (0 for unsupervised plans)."""
        if self.obs is None:
            return 0
        return self.obs.counters.get(name)

    def scaled(self, factor: float) -> "CapacityPlan":
        """Every DC's cores and link's Gbps times ``factor`` (the tail
        cushion); provenance is carried, scenario results are not."""
        return CapacityPlan(
            cores={dc: factor * v for dc, v in self.cores.items()},
            link_gbps={l: factor * v for l, v in self.link_gbps.items()},
            method=self.method, degradation_level=self.degradation_level,
            obs=self.obs)

    def total_cores(self) -> float:
        """Sum of peak cores across DCs (the "Compute cores" metric, §6.1)."""
        return sum(self.cores.values())

    def total_wan_gbps(self, topology: Topology) -> float:
        """Sum of peak Gbps across **inter-country** links (§6.1)."""
        inter = {link.link_id for link in topology.wan.inter_country_links}
        return sum(gbps for link_id, gbps in self.link_gbps.items() if link_id in inter)

    def cost(self, topology: Topology) -> float:
        """Total provisioning cost (Eq 3) at the plan's capacities."""
        return (
            sum(topology.dc_cost(dc) * v for dc, v in self.cores.items())
            + sum(topology.wan_cost(l) * v for l, v in self.link_gbps.items())
        )

    def baseline_result(self) -> ScenarioResult:
        """The no-failure scenario's allocation (used for latency stats)."""
        for result in self.scenario_results:
            if result.scenario.is_baseline:
                return result
        raise SolverError("plan has no F_0 scenario result")

    def _solve_records(self) -> List[SolveStats]:
        """One :class:`SolveStats` per solve: a ``joint`` plan hangs its
        single solve's record on every scenario result, so records are
        counted by identity, not once per result."""
        return list({id(result.stats): result.stats
                     for result in self.scenario_results}.values())

    def aggregate_stats(self) -> SolveStats:
        """Merged :class:`SolveStats` over every scenario solve.

        Seconds, nnz, and solve counts *sum* across scenarios (total
        work); ``n_rows``/``n_cols`` take the *max* (the largest problem
        solved) — so the record answers "how much LP work did this plan
        cost, and how big did it get?".  ``arm`` survives only when every
        scenario was won by the same arm; use :meth:`arm_stats` for the
        per-arm breakdown.
        """
        return SolveStats.combine(self._solve_records())

    def arm_stats(self) -> Dict[str, SolveStats]:
        """Per-arm aggregate :class:`SolveStats`, keyed by arm name.

        Results with no arm attribution (the historical cold exact path)
        group under ``"exact"``; deduplicated fan-out copies appear under
        ``"dedup"`` with ``n_solves == 0``.
        """
        grouped: Dict[str, List[SolveStats]] = {}
        for stats in self._solve_records():
            grouped.setdefault(stats.arm or "exact", []).append(stats)
        return {
            arm: SolveStats.combine(stats) for arm, stats in grouped.items()
        }

    def fits(self, other: "CapacityPlan", tolerance: float = 1e-6) -> bool:
        """True when ``other``'s capacities fit inside this plan's."""
        for dc_id, cores in other.cores.items():
            if cores > self.cores.get(dc_id, 0.0) + tolerance:
                return False
        for link_id, gbps in other.link_gbps.items():
            if gbps > self.link_gbps.get(link_id, 0.0) + tolerance:
                return False
        return True


def _scenario_label(scenario: FailureScenario) -> str:
    return f"provision.scenario[{scenario.name}]"


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS
    keeps one): how many threads the ``max`` sweep solves on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class CapacityPlanner:
    """Runs the full §5.3 procedure over a scenario set.

    ``supervisor`` (optional) routes every LP solve through a
    :class:`~repro.resilience.supervisor.SolveSupervisor` — per-solve
    timeouts, bounded retries, fault injection, structured events.
    Without a supervisor solves run directly, record no events, and
    failures propagate immediately.

    ``warm_cache`` (optional, a
    :class:`~repro.provisioning.lp.WarmStartCache`) carries every
    scenario LP, its basis and duals across planners: a repeat solve of
    the same LP signature re-prices the kept instance and re-solves from
    its basis.  Its owner — a :class:`~repro.switchboard.Switchboard` —
    keeps it across days and rolling refreshes; the ``max`` sweep's
    threads all share it.

    ``portfolio`` (optional, a :class:`~repro.config.PortfolioConfig`)
    turns on the raced sweep: empty-base scenario solves race the
    locality heuristic, certified by the cache's duals, against the exact
    LP (first-valid-wins-under-gap), and structurally identical scenarios
    are deduplicated before the sweep.
    """

    def __init__(self, placement: PlacementData, demand: Demand,
                 supervisor: Optional["SolveSupervisor"] = None,
                 portfolio: Optional["PortfolioConfig"] = None,
                 warm_cache: Optional[WarmStartCache] = None):
        self.placement = placement
        self.demand = demand
        self.supervisor = supervisor
        self.portfolio = portfolio
        self.warm_cache = warm_cache

    def _run(self, label: str, fn: Callable[[], ScenarioResult]):
        if self.supervisor is None:
            return fn()
        return self.supervisor.run(label, fn)

    def _exact_solve(self, lp: ScenarioLP) -> Callable[[], ScenarioResult]:
        """The exact-LP thunk for one scenario, through the warm cache."""
        return functools.partial(lp.solve, warm_cache=self.warm_cache)

    def plan_without_backup(self, background=None,
                            dc_core_limits=None) -> CapacityPlan:
        """Serving capacity only: the single no-failure LP."""
        return self.plan(scenarios=[NO_FAILURE], background=background,
                         dc_core_limits=dc_core_limits)

    def plan_with_backup(self, max_link_scenarios: Optional[int] = None,
                         method: str = "joint",
                         background=None,
                         dc_core_limits=None) -> CapacityPlan:
        """Serving + backup: all DC and (non-bridge) link failures.

        ``method="joint"`` (default) co-optimizes serving placement with
        every failure scenario in one LP — the full peak-aware joint
        serving+backup of §4.2, where the no-failure placement itself
        shifts to make failures cheap to absorb.  ``method="incremental"``
        runs one LP per scenario against a growing base — much faster, and
        an upper bound the ablation benchmark quantifies.  ``method="max"``
        solves every scenario independently and element-wise
        max-combines, which is the only mode whose scenario LPs are
        independent, so only it solves on several threads (:meth:`plan`).
        """
        scenarios = enumerate_scenarios(
            self.placement.topology, max_link_scenarios=max_link_scenarios
        )
        if method == "joint":
            from repro.provisioning.joint import JointProvisioningLP

            joint = JointProvisioningLP(
                self.placement, self.demand, scenarios,
                background=background,
                dc_core_limits=dc_core_limits,
            )
            return self._run("provision.joint", joint.solve)
        if method == "incremental":
            return self.plan(scenarios=scenarios, background=background,
                             dc_core_limits=dc_core_limits)
        if method == "max":
            return self.plan(scenarios=scenarios, background=background,
                             dc_core_limits=dc_core_limits,
                             combine="max")
        raise SolverError(f"unknown provisioning method {method!r}")

    def plan(self, scenarios: List[FailureScenario], background=None,
             dc_core_limits=None, combine: str = "incremental"
             ) -> CapacityPlan:
        """Sweep the scenario set and combine into one plan.

        ``combine="incremental"``: scenario *k* is solved with everything
        scenarios 0..k-1 already provisioned available as free base
        capacity, and pays only for the excess it needs.  This is the
        operational form of §4.2's repurposing: the max-combination of
        Eqs 7-8 emerges with every core and Gbps priced exactly once.
        The no-failure scenario runs first so serving capacity anchors
        the base; the data dependence makes this mode inherently
        sequential.

        ``combine="max"``: every scenario is solved against an empty base
        and the plan takes per-DC / per-link maxima (the literal Eqs
        7-8).  The LPs are independent, so they solve on one thread per
        usable CPU (:meth:`_solve_independent`); the merge walks results
        in scenario order, so the plan is a sequential run's.
        """
        if not scenarios:
            raise SolverError("need at least one scenario")
        if combine not in ("incremental", "max"):
            raise SolverError(f"unknown combine mode {combine!r}")
        ordered = sorted(scenarios, key=lambda s: not s.is_baseline)
        if combine == "max":
            results = self._sweep_deduped(ordered, background,
                                          dc_core_limits)
            cores: Dict[str, float] = {}
            link_gbps: Dict[str, float] = {}
            for result in results:
                for dc_id, value in result.cores.items():
                    cores[dc_id] = max(cores.get(dc_id, 0.0), value)
                for link_id, value in result.link_gbps.items():
                    link_gbps[link_id] = max(link_gbps.get(link_id, 0.0), value)
            return CapacityPlan(cores=cores, link_gbps=link_gbps,
                                scenario_results=results)

        cores = {}
        link_gbps = {}
        results = []
        for scenario in ordered:
            lp = ScenarioLP(
                self.placement, self.demand, scenario,
                base_cores=cores, base_links=link_gbps,
                background=background,
                dc_core_limits=dc_core_limits,
            )
            result = self._run(_scenario_label(scenario),
                               self._exact_solve(lp))
            results.append(result)
            for dc_id, extra in result.excess_cores.items():
                cores[dc_id] = cores.get(dc_id, 0.0) + extra
            for link_id, extra in result.excess_links.items():
                link_gbps[link_id] = link_gbps.get(link_id, 0.0) + extra
        return CapacityPlan(cores=cores, link_gbps=link_gbps, scenario_results=results)

    def _sweep_deduped(self, ordered: List[FailureScenario],
                       background, dc_core_limits) -> List[ScenarioResult]:
        """The independent sweep, with structural scenario dedup under a
        portfolio.

        Only the first scenario of each structure class is solved; the
        duplicates are fanned back out as zero-cost copies (fresh
        ``n_solves=0`` stats tagged ``arm="dedup"``) so the result list
        still lines up one-to-one with ``ordered`` and aggregate stats
        count the LP work exactly once.
        """
        if self.portfolio is None or len(ordered) < 2:
            return self._solve_independent(ordered, background,
                                           dc_core_limits)
        unique, expansion = dedupe_scenarios(
            self.placement, self.demand, ordered
        )
        if len(unique) == len(ordered):
            return self._solve_independent(ordered, background,
                                           dc_core_limits)
        if self.supervisor is not None:
            self.supervisor.obs.record(
                "dedup.collapsed", label="provision.max",
                scenarios=len(ordered), unique=len(unique),
            )
        solved = self._solve_independent(unique, background, dc_core_limits)
        seen: set = set()
        results: List[ScenarioResult] = []
        for scenario, idx in zip(ordered, expansion):
            result = solved[idx]
            if idx in seen:
                result = dataclasses.replace(
                    result, scenario=scenario,
                    stats=SolveStats(n_solves=0, arm="dedup"))
            seen.add(idx)
            results.append(result)
        return results

    def _solve_independent(self, ordered: List[FailureScenario],
                           background, dc_core_limits) -> List[ScenarioResult]:
        """Solve independent scenario LPs on one thread per usable CPU.

        HiGHS releases the GIL while it solves, so the LPs run in
        parallel; every thread goes through the one thread-safe warm
        cache, and results come back in scenario order whichever thread
        finished first.  After the first failure no further scenario
        starts; once the running ones return, the failure of the earliest
        scenario propagates — a supervised sweep's
        :class:`SolveTimeoutError` reaches the degradation ladder this way.
        """
        solve = functools.partial(self._solve_scenario, background=background,
                                  dc_core_limits=dc_core_limits)
        n_threads = min(usable_cpus(), len(ordered))
        if n_threads <= 1:
            return [solve(scenario) for scenario in ordered]
        failed = threading.Event()

        def task(scenario: FailureScenario) -> ScenarioResult:
            if failed.is_set():
                raise CancelledError
            try:
                return solve(scenario)
            except BaseException:
                failed.set()
                raise

        with ThreadPoolExecutor(n_threads,
                                thread_name_prefix="provision.max") as pool:
            futures = [pool.submit(task, scenario) for scenario in ordered]
        # Threads take scenarios in order, so any skipped one comes after
        # the failure that skipped it.
        return [future.result() for future in futures]

    def _solve_scenario(self, scenario: FailureScenario, background,
                        dc_core_limits) -> ScenarioResult:
        """One empty-base scenario: the exact LP, or the portfolio race."""
        label = _scenario_label(scenario)
        if self.portfolio is None:
            lp = ScenarioLP(self.placement, self.demand, scenario,
                            background=background,
                            dc_core_limits=dc_core_limits)
            return self._run(label, self._exact_solve(lp))
        arms = build_arms(self.placement, self.demand, scenario,
                          arms=self.portfolio.arms,
                          warm_cache=self.warm_cache,
                          background=background,
                          dc_core_limits=dc_core_limits)
        if self.supervisor is None:
            return run_race(arms, self.portfolio.gap, label=label)[0]
        return self.supervisor.race(label, arms, self.portfolio.gap)
