"""Solver portfolio: heuristic bounds racing the exact scenario LP.

The max-combining sweep solves one LP per failure scenario.  Most of
those scenarios are *easy* — the optimal plan is near the obvious one —
so paying a full LP for each is wasted wall clock at 10–100x scenario
counts.  This module provides cheap **arms** that bracket the optimum
with certified bounds, and a race that accepts the first arm whose upper
bound is provably within the configured gap of the best lower bound:

* ``locality`` — closed form.  Upper bound: assign every config to its
  cheapest surviving option (unit cost = cores·DC$ + Σ Gbps·WAN$) and
  price the resulting peaks.  Lower bound: the busiest slot priced at
  cheapest-option rates — valid because total cost is at least any one
  slot's usage priced at the cheapest unit rates.
* ``exact`` — the full :class:`~repro.provisioning.formulation.ScenarioLP`
  (re-priced and re-solved from a cached basis when its signature is
  cached), upper bound = lower bound = optimum.

**First-valid-wins-under-gap**: arms run cheapest first; each one raises
the best known lower bound, and a heuristic wins the moment its upper
bound is ≤ ``(1+gap)`` times that bound — so a returned plan is *always*
within ``gap`` of the exact optimum, by construction, whether or not the
exact LP ever ran.  Heuristic arms are only raced on empty-base solves
(the max-combining sweep); incremental/base-capacity solves always use
the exact arm.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import PORTFOLIO_ARMS
from repro.core.errors import InfeasibleError
from repro.provisioning.demand import PlacementData, PlacementOption
from repro.provisioning.failures import FailureScenario
from repro.provisioning.formulation import ScenarioLP, ScenarioResult
from repro.provisioning.lp import SolveStats, WarmStartCache
from repro.workload.arrivals import Demand

if TYPE_CHECKING:
    from repro.provisioning.background import BackgroundTraffic

#: Relative slack when testing UB <= (1+gap)·LB, so solver-tolerance noise
#: on an exactly-tight bound doesn't flip a win into a loss.
_BOUND_RTOL = 1e-9


@dataclass
class ArmOutcome:
    """One arm's verdict: a feasible plan (maybe) plus certified bounds.

    A heuristic arm may give its result's shares as a builder
    (:class:`~repro.provisioning.formulation.ScenarioResult`): they are
    built only if someone reads them, so a losing arm's never are.
    """

    arm: str
    result: Optional[ScenarioResult]
    upper_bound: float
    lower_bound: float
    exact: bool = False


def scenario_lower_bound(placement: PlacementData, demand: Demand,
                         scenario: FailureScenario) -> float:
    """Closed-form lower bound on a scenario's standalone optimum.

    Any feasible plan's cost is at least any single slot's usage priced
    at each config's cheapest surviving unit rate
    (:meth:`~PlacementData.option_unit_costs`), so the busiest slot so
    priced bounds the optimum from below.
    """
    counts = demand.counts
    if counts.size == 0:
        return 0.0
    min_costs = np.array([
        placement.option_unit_costs(config, scenario).min()
        for config in demand.configs
    ])
    return float((counts * min_costs).sum(axis=1).max())


def _used_links(placement: PlacementData, demand: Demand,
                scenario: FailureScenario) -> List[str]:
    links: set = set()
    for config in demand.configs:
        for option in placement.options_under_scenario(config, scenario):
            links.update(option.link_gbps)
    return sorted(links)


def _assignment_shares(demand: Demand,
                       chosen: Sequence[Tuple[int, PlacementOption]]
                       ) -> Dict[Tuple[int, object], Dict[str, float]]:
    """Every slot's calls of config ``j`` on its one ``chosen`` option."""
    shares: Dict[Tuple[int, object], Dict[str, float]] = {}
    for j, option in chosen:
        column = demand.counts[:, j]
        config = demand.configs[j]
        for t in np.nonzero(column > 0)[0]:
            shares[(int(t), config)] = {option.dc_id: float(column[t])}
    return shares


def _locality_arm(placement: PlacementData, demand: Demand,
                  scenario: FailureScenario,
                  background: Optional["BackgroundTraffic"],
                  dc_core_limits: Optional[Dict[str, float]]) -> ArmOutcome:
    """Every config's calls on its cheapest surviving option in every
    slot, priced from per-config count columns.  The plan's shares are
    built when first read; a plan over a DC core cap is no plan (upper
    bound ``inf``)."""
    started = time.perf_counter()
    counts = demand.counts
    n_slots = demand.n_slots
    core_series: Dict[str, np.ndarray] = {}
    link_series: Dict[str, np.ndarray] = {}
    chosen: List[Tuple[int, PlacementOption]] = []
    for j, config in enumerate(demand.configs):
        options = placement.options_under_scenario(config, scenario)
        option = options[int(np.argmin(
            placement.option_unit_costs(config, scenario)))]
        active = counts[:, j] > 0
        if not active.any():
            continue
        chosen.append((j, option))
        calls = np.where(active, counts[:, j], 0.0).astype(float)
        series = core_series.setdefault(option.dc_id, np.zeros(n_slots))
        series += calls * option.cores_per_call
        for link_id, gbps in option.link_gbps.items():
            series = link_series.setdefault(link_id, np.zeros(n_slots))
            series += calls * gbps
    lower = scenario_lower_bound(placement, demand, scenario)

    cores = {dc_id: float(series.max())
             for dc_id, series in core_series.items()}
    if dc_core_limits:
        for dc_id, value in cores.items():
            cap = dc_core_limits.get(dc_id)
            if cap is not None and value > cap * (1.0 + 1e-9):
                return ArmOutcome("locality", None, float("inf"), lower)

    link_gbps: Dict[str, float] = {}
    for link_id, series in link_series.items():
        if background is not None:
            series = series + background.series(link_id)[:n_slots]
        link_gbps[link_id] = float(series.max())
    if background is not None:
        # Mirror the LP: NP on every reachable link must cover the
        # background's own peak even where no call traffic lands.
        for link_id in _used_links(placement, demand, scenario):
            peak = background.peak(link_id)
            if peak > 0:
                link_gbps[link_id] = max(link_gbps.get(link_id, 0.0), peak)

    topology = placement.topology
    cost = (
        sum(topology.dc_cost(dc_id) * v for dc_id, v in cores.items())
        + sum(topology.wan_cost(l) * v for l, v in link_gbps.items())
    )
    result = ScenarioResult(
        scenario=scenario,
        cores=cores,
        link_gbps=link_gbps,
        excess_cores=dict(cores),
        excess_links=dict(link_gbps),
        shares=functools.partial(_assignment_shares, demand, chosen),
        cost=cost,
        stats=SolveStats(
            solver_seconds=time.perf_counter() - started,
            arm="locality",
        ),
    )
    return ArmOutcome("locality", result, cost, lower)


def build_arms(placement: PlacementData, demand: Demand,
               scenario: FailureScenario,
               arms: Sequence[str] = PORTFOLIO_ARMS,
               warm_cache: Optional[WarmStartCache] = None,
               background: Optional["BackgroundTraffic"] = None,
               dc_core_limits: Optional[Dict[str, float]] = None,
               ) -> List[Tuple[str, Callable[[], ArmOutcome]]]:
    """The race lineup for one empty-base scenario solve, in race order.

    All arms share one :class:`ScenarioLP` object: its memoized
    :meth:`~ScenarioLP.prepared` instance serves both the dual-floor
    pricing and (when no heuristic certifies) the exact solve, so a
    failed heuristic attempt costs only the bound arithmetic — the
    formulation is assembled at most once, and not at all when
    ``warm_cache`` holds its signature (the cached instance is re-priced).

    The closed-form lower bounds are weak on large topologies (the
    busiest-slot relaxation ignores that different configs peak in
    different slots), so heuristic arms also raise their lower bound to
    the **cached-dual floor**: the previous same-signature solve's dual
    point priced on today's RHS
    (:meth:`ScenarioLP.dual_floor`).  That is what lets a 2-3%-tight
    locality plan actually *win* on day N+1 sweeps.
    """
    caps = dict(dc_core_limits) if dc_core_limits else None
    lp = ScenarioLP(placement, demand, scenario,
                    background=background, dc_core_limits=caps)
    def locality() -> ArmOutcome:
        outcome = _locality_arm(placement, demand, scenario, background, caps)
        floor = lp.dual_floor(warm_cache)
        if floor is not None:
            outcome.lower_bound = max(outcome.lower_bound, floor)
        return outcome

    def exact() -> ArmOutcome:
        result = lp.solve(warm_cache=warm_cache)
        if result.stats.arm is None:
            result.stats.arm = "exact"
        return ArmOutcome("exact", result, result.cost, result.cost,
                          exact=True)

    available = {"locality": locality, "exact": exact}
    return [(name, available[name]) for name in arms]


def run_race(arms: Sequence[Tuple[str, Callable[[], ArmOutcome]]],
             gap: float,
             runner: Optional[Callable[[str, Callable[[], ArmOutcome]],
                                       ArmOutcome]] = None,
             label: str = "portfolio",
             ) -> Tuple[ScenarioResult, List[Tuple[str, Dict[str, object]]]]:
    """Race the arms; first valid under the gap wins.

    ``runner(label, fn)`` lets a supervisor wrap each arm with its
    timeout/retry machinery; by default arms run directly (an
    unsupervised sweep).

    Returns ``(result, trail)`` where ``result.bound_gap`` is the
    certified relative gap of the winning plan (0.0 for exact wins) and
    ``trail`` is a list of ``(event_kind, fields)`` pairs —
    ``portfolio.arm.win`` / ``portfolio.arm.loss`` — in race order.
    """
    trail: List[Tuple[str, Dict[str, object]]] = []
    best_lower = 0.0
    fallback: Optional[ArmOutcome] = None
    for name, fn in arms:
        arm_label = f"{label}@{name}"
        try:
            outcome = runner(arm_label, fn) if runner is not None else fn()
        except InfeasibleError:
            raise  # infeasibility is a property of the scenario, not the arm
        except Exception as exc:
            if name == "exact":
                raise
            trail.append(("portfolio.arm.loss", {
                "label": label, "arm": name, "error": repr(exc),
            }))
            continue
        best_lower = max(best_lower, outcome.lower_bound)
        fields: Dict[str, object] = {
            "label": label, "arm": name,
            "upper_bound": outcome.upper_bound,
            "lower_bound": best_lower,
        }
        wins = outcome.exact or (
            outcome.result is not None
            and outcome.upper_bound
            <= (1.0 + gap) * best_lower * (1.0 + _BOUND_RTOL)
        )
        if wins:
            if best_lower > 0:
                bound_gap = max(
                    0.0, (outcome.upper_bound - best_lower) / best_lower
                )
            else:
                bound_gap = 0.0 if outcome.upper_bound <= 0 else float("inf")
            outcome.result.bound_gap = bound_gap
            fields["gap"] = bound_gap
            trail.append(("portfolio.arm.win", fields))
            return outcome.result, trail
        trail.append(("portfolio.arm.loss", fields))
        if outcome.result is not None and (
            fallback is None or outcome.upper_bound < fallback.upper_bound
        ):
            fallback = outcome
    if fallback is None or fallback.result is None:
        raise InfeasibleError(f"{label}: no portfolio arm produced a plan")
    # No arm met the gap (an exact-less lineup): return the best upper
    # bound with its honest gap so callers can see what they got.
    if best_lower > 0:
        fallback.result.bound_gap = max(
            0.0, (fallback.upper_bound - best_lower) / best_lower
        )
    trail.append(("portfolio.arm.win", {
        "label": label, "arm": fallback.arm,
        "upper_bound": fallback.upper_bound,
        "lower_bound": best_lower,
        "gap": fallback.result.bound_gap,
        "gap_exceeded": True,
    }))
    return fallback.result, trail
