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
  Eqs 7-8).  The scenarios are independent LPs, so the sweep fans out
  over a :class:`~concurrent.futures.ProcessPoolExecutor` when
  ``workers > 1``; results are merged in deterministic scenario order
  regardless of completion order.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.errors import InfeasibleError, SolverError, SolveTimeoutError
from repro.obs.events import Event, Observability
from repro.provisioning.demand import PlacementData
from repro.provisioning.failures import (
    NO_FAILURE,
    FailureScenario,
    dedupe_scenarios,
    enumerate_scenarios,
)
from repro.provisioning.formulation import ScenarioLP, ScenarioResult
from repro.provisioning.lp import SolveStats, WarmEntry, WarmStartCache
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


# ---------------------------------------------------------------------------
# Process-pool plumbing for the independent-scenario ("max") sweep.  The
# heavyweight shared inputs are shipped once per worker via the pool
# initializer; each task then sends only its FailureScenario and the
# warm-cache entry for it.  A fault plan (drills/tests) rides along so
# worker-side faults — a hang, or a hard worker death — happen inside the
# worker process for real.
# ---------------------------------------------------------------------------

_WORKER_CONTEXT: dict = {}


def _scenario_label(scenario: FailureScenario) -> str:
    return f"provision.scenario[{scenario.name}]"


def _init_scenario_worker(placement, demand, background, dc_core_limits,
                          fault_plan=None, portfolio=None):
    _WORKER_CONTEXT["args"] = (placement, demand, background, dc_core_limits)
    _WORKER_CONTEXT["faults"] = fault_plan
    _WORKER_CONTEXT["portfolio"] = portfolio


def _inject_worker_faults(scenario: FailureScenario) -> None:
    faults = _WORKER_CONTEXT.get("faults")
    if faults is None:
        return
    label = _scenario_label(scenario)
    if faults.take("worker_death", label) is not None:
        # An OOM-kill / segfault stand-in: the whole worker process
        # hard-exits, breaking the pool for every sibling future.
        os._exit(1)
    hang = faults.take("hang", label)
    if hang is not None:
        time.sleep(hang.hang_seconds)


def _solve_scenario_in_worker(scenario: FailureScenario,
                              entry: Optional[WarmEntry] = None):
    """Pool task: solve one scenario, or race the arms for portfolio runs.

    Returns ``(result, trail, report)`` — the parent replays the win/loss
    ``trail`` into its observability log and hands ``report`` to
    :meth:`WarmStartCache.absorb`.  The task's cache starts from the
    parent's ``entry``.
    """
    placement, demand, background, dc_core_limits = _WORKER_CONTEXT["args"]
    _inject_worker_faults(scenario)
    portfolio = _WORKER_CONTEXT["portfolio"]
    lp = ScenarioLP(placement, demand, scenario, background=background,
                    dc_core_limits=dc_core_limits)
    signature = lp.signature()
    cache = WarmStartCache(entries=entry and {signature: entry})
    if portfolio is None:
        result, trail = lp.solve(warm_cache=cache), []
    else:
        arms = build_arms(placement, demand, scenario, arms=portfolio.arms,
                          warm_cache=cache, background=background,
                          dc_core_limits=dc_core_limits)
        result, trail = run_race(arms, portfolio.gap,
                                 label=_scenario_label(scenario))
    result.worker_pid = os.getpid()
    return result, trail, (cache.shipped(signature) if cache.stores
                           else None, cache.stats())


class CapacityPlanner:
    """Runs the full §5.3 procedure over a scenario set.

    ``supervisor`` (optional) routes every LP solve through a
    :class:`~repro.resilience.supervisor.SolveSupervisor` — per-solve
    timeouts, bounded retries, fault injection, structured events — and
    arms the ``method="max"`` sweep's process pool with death recovery.
    Without a supervisor solves run directly, record no events, and
    failures propagate immediately.

    ``warm_cache`` (optional, a
    :class:`~repro.provisioning.lp.WarmStartCache`) carries every
    scenario LP, its basis and duals across planners: a repeat solve of
    the same LP signature re-prices the kept instance and re-solves from
    its basis.  Its owner — a :class:`~repro.switchboard.Switchboard` —
    keeps it across days and rolling refreshes.

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
                         latency_tiebreak: float = 1e-6,
                         background=None,
                         dc_core_limits=None,
                         workers: Optional[int] = None) -> CapacityPlan:
        """Serving + backup: all DC and (non-bridge) link failures.

        ``method="joint"`` (default) co-optimizes serving placement with
        every failure scenario in one LP — the full peak-aware joint
        serving+backup of §4.2, where the no-failure placement itself
        shifts to make failures cheap to absorb.  ``method="incremental"``
        runs one LP per scenario against a growing base — much faster, and
        an upper bound the ablation benchmark quantifies.  ``method="max"``
        solves every scenario independently and element-wise
        max-combines, which is the only mode whose scenario LPs are
        independent — ``workers`` fans them out across processes there.
        ``workers`` is ignored by the single-LP joint method and by the
        incremental sweep (sequential by design); the parallel plan is
        bitwise-deterministic and identical to the sequential one because
        results are merged in scenario order.
        """
        scenarios = enumerate_scenarios(
            self.placement.topology, max_link_scenarios=max_link_scenarios
        )
        if method == "joint":
            from repro.provisioning.joint import JointProvisioningLP

            joint = JointProvisioningLP(
                self.placement, self.demand, scenarios,
                latency_weight=latency_tiebreak,
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
                             combine="max", workers=workers)
        raise SolverError(f"unknown provisioning method {method!r}")

    def plan(self, scenarios: List[FailureScenario], background=None,
             dc_core_limits=None, combine: str = "incremental",
             workers: Optional[int] = None) -> CapacityPlan:
        """Sweep the scenario set and combine into one plan.

        ``combine="incremental"``: scenario *k* is solved with everything
        scenarios 0..k-1 already provisioned available as free base
        capacity, and pays only for the excess it needs.  This is the
        operational form of §4.2's repurposing: the max-combination of
        Eqs 7-8 emerges with every core and Gbps priced exactly once.
        The no-failure scenario runs first so serving capacity anchors
        the base; the data dependence makes this mode inherently
        sequential (``workers`` is ignored).

        ``combine="max"``: every scenario is solved against an empty base
        and the plan takes per-DC / per-link maxima (the literal Eqs
        7-8).  The LPs are independent, so ``workers > 1`` solves them in
        a process pool; the merge always walks results in scenario order,
        so the plan is identical to a sequential run.
        """
        if not scenarios:
            raise SolverError("need at least one scenario")
        if combine not in ("incremental", "max"):
            raise SolverError(f"unknown combine mode {combine!r}")
        ordered = sorted(scenarios, key=lambda s: not s.is_baseline)
        if combine == "max":
            results = self._sweep_deduped(
                ordered, background, dc_core_limits, workers
            )
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
                       background, dc_core_limits,
                       workers: Optional[int]) -> List[ScenarioResult]:
        """The independent sweep, with structural scenario dedup under a
        portfolio.

        Only the first scenario of each structure class is solved; the
        duplicates are fanned back out as zero-cost copies (fresh
        ``n_solves=0`` stats tagged ``arm="dedup"``) so the result list
        still lines up one-to-one with ``ordered`` and aggregate stats
        count the LP work exactly once.
        """
        if self.portfolio is None or len(ordered) < 2:
            return self._solve_independent(
                ordered, background, dc_core_limits, workers
            )
        unique, expansion = dedupe_scenarios(
            self.placement, self.demand, ordered
        )
        if len(unique) == len(ordered):
            return self._solve_independent(
                ordered, background, dc_core_limits, workers
            )
        if self.supervisor is not None:
            self.supervisor.obs.record(
                "dedup.collapsed", label="provision.max",
                scenarios=len(ordered), unique=len(unique),
            )
        solved = self._solve_independent(
            unique, background, dc_core_limits, workers
        )
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
                           background, dc_core_limits,
                           workers: Optional[int]) -> List[ScenarioResult]:
        """Solve independent scenario LPs, optionally process-parallel.

        Results always come back in scenario order whichever worker
        finished first — the merge is deterministic.  The pool path is
        :meth:`_solve_pool`.
        """
        n_workers = self._effective_workers(workers, len(ordered))
        portfolio = self.portfolio
        if n_workers > 1:
            return self._solve_pool(ordered, background, dc_core_limits,
                                    n_workers)
        results = []
        for scenario in ordered:
            label = _scenario_label(scenario)
            if portfolio is None:
                lp = ScenarioLP(self.placement, self.demand, scenario,
                                background=background,
                                dc_core_limits=dc_core_limits)
                results.append(self._run(label, self._exact_solve(lp)))
                continue
            arms = build_arms(self.placement, self.demand, scenario,
                              arms=portfolio.arms,
                              warm_cache=self.warm_cache,
                              background=background,
                              dc_core_limits=dc_core_limits)
            if self.supervisor is None:
                results.append(run_race(arms, portfolio.gap, label=label)[0])
            else:
                results.append(self.supervisor.race(label, arms, portfolio.gap))
        return results

    def _solve_pool(self, ordered: List[FailureScenario],
                    background, dc_core_limits,
                    n_workers: int) -> List[ScenarioResult]:
        """The ``max`` sweep in a process pool: timeouts + pool recovery.

        Without a supervisor the sweep runs under one with no retries,
        no pool restarts and no timeout, so any failure propagates.

        * **crash faults** are intercepted parent-side at submission (a
          worker cannot be asked to "crash deterministically" across
          resubmissions), burning one retry each;
        * **hang / worker-death faults** ship to the workers via the pool
          initializer and happen inside the worker process for real;
        * a worker death breaks the whole pool (``BrokenProcessPool``):
          the sweep consumes one ``worker_death`` budget unit, rebuilds
          the pool, and resubmits only the unfinished scenarios — up to
          ``pool_restarts`` times;
        * a scenario exceeding ``solve_timeout_s`` fails the sweep with
          :class:`SolveTimeoutError` (the hung worker cannot be reclaimed
          without killing the pool), handing control to the ladder;
        * a solver error inside a worker is retried by resubmission to
          the same pool, up to ``solve_retries`` per scenario.
        """
        supervisor = self.supervisor
        if supervisor is None:
            from repro.config import PlannerConfig
            from repro.resilience.supervisor import SolveSupervisor
            supervisor = SolveSupervisor(
                PlannerConfig(solve_retries=0, pool_restarts=0))
        cfg = supervisor.config
        obs = supervisor.obs
        fault_plan = cfg.fault_plan
        cache = self.warm_cache
        signatures = [None if cache is None else ScenarioLP(
            self.placement, self.demand, scenario, background=background,
            dc_core_limits=dc_core_limits).signature() for scenario in ordered]
        shipped = [None if cache is None else cache.shipped(signature)
                   for signature in signatures]
        results: Dict[int, ScenarioResult] = {}
        restarts_left = cfg.pool_restarts
        retries_left = {i: cfg.solve_retries for i in range(len(ordered))}

        while len(results) < len(ordered):
            pending = [(i, scenario) for i, scenario in enumerate(ordered)
                       if i not in results]
            obs.record("pool.start", label="provision.max",
                       workers=n_workers, pending=len(pending))
            executor = ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_init_scenario_worker,
                initargs=(self.placement, self.demand, background,
                          dc_core_limits, fault_plan, self.portfolio),
            )
            broken = False
            try:
                submitted = []
                for i, scenario in pending:
                    label = _scenario_label(scenario)
                    # Parent-side crash injection: each injected crash
                    # burns one retry; budget exhaustion fails the sweep.
                    while fault_plan is not None and \
                            fault_plan.take("crash", label) is not None:
                        obs.record("fault.injected", label=label,
                                   kind="crash", fault=f"crash({label})")
                        obs.record("solve.error", label=label,
                                   error="injected solver crash")
                        if retries_left[i] <= 0:
                            raise SolverError(
                                f"{label}: injected crashes exhausted retries"
                            )
                        retries_left[i] -= 1
                        obs.record("solve.retry", label=label,
                                   delay_s=0.0)
                    submitted.append((i, scenario, executor.submit(
                        _solve_scenario_in_worker, scenario, shipped[i])))
                for i, scenario, future in submitted:
                    label = _scenario_label(scenario)
                    while True:
                        try:
                            results[i], trail, report = future.result(
                                timeout=cfg.solve_timeout_s
                            )
                            for kind, fields in trail:
                                obs.record(kind, **fields)
                            if cache is not None:
                                cache.absorb(signatures[i], *report)
                            obs.record("solve.success", label=label)
                            break
                        except FutureTimeoutError:
                            obs.record("solve.timeout", label=label,
                                       timeout_s=cfg.solve_timeout_s)
                            raise SolveTimeoutError(
                                f"{label}: pooled solve exceeded "
                                f"{cfg.solve_timeout_s}s budget"
                            ) from None
                        except BrokenProcessPool:
                            broken = True
                            break
                        except InfeasibleError as exc:
                            obs.record(
                                "solve.infeasible", label=label,
                                error=str(exc),
                                diagnosis=getattr(exc, "diagnosis", None),
                            )
                            raise
                        except SolverError as exc:
                            obs.record("solve.error", label=label,
                                       error=str(exc))
                            if retries_left[i] <= 0:
                                obs.record("solve.failure", label=label,
                                           error=str(exc))
                                raise
                            retries_left[i] -= 1
                            obs.record("solve.retry", label=label,
                                       delay_s=0.0)
                            future = executor.submit(
                                _solve_scenario_in_worker, scenario,
                                shipped[i])
                    if broken:
                        break
            finally:
                executor.shutdown(wait=False, cancel_futures=True)
            if not broken:
                continue
            # A worker died and took the pool with it.  Account for the
            # injected death parent-side (so a rebuilt pool does not
            # replay it), then rebuild and resubmit the unfinished tail.
            if fault_plan is not None:
                fault_plan.take_first("worker_death")
            obs.record("pool.worker_death", label="provision.max",
                       completed=len(results),
                       pending=len(ordered) - len(results))
            if restarts_left <= 0:
                obs.record("pool.failure", label="provision.max",
                           error="pool restarts exhausted")
                raise SolverError(
                    "process pool died and pool_restarts is exhausted"
                )
            restarts_left -= 1
            obs.record("pool.restart", label="provision.max",
                       restarts_left=restarts_left)
        return [results[i] for i in range(len(ordered))]

    @staticmethod
    def _effective_workers(workers: Optional[int], n_scenarios: int) -> int:
        if workers is None:
            return 1
        if workers < 1:
            raise SolverError("workers must be a positive integer")
        return min(workers, n_scenarios, max(os.cpu_count() or 1, 1) * 4)
