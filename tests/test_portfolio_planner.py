"""The solver portfolio: warm starts, dual floors, arm racing, dedup.

Covers the pillars of the raced scenario sweep:

* warm starts — re-priced instances re-solved from the cached basis
  match cold solves across randomized day-pair demand perturbations
  (property test);
* arm racing — first-valid-wins-under-gap semantics, loss/win events,
  exact fallback, infeasibility propagation;
* structural dedup — identical down-sets solve once and fan back out.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PlannerConfig, PortfolioConfig
from repro.core.errors import InfeasibleError, SwitchboardError
from repro.core.types import CallConfig, MediaType, make_slots
from repro.obs import Observability
from repro.provisioning.demand import PlacementData
from repro.provisioning.failures import (NO_FAILURE, FailureScenario,
                                         dedupe_scenarios,
                                         enumerate_scenarios)
from repro.provisioning.formulation import ScenarioLP, ScenarioResult
from repro.provisioning.lp import SolveStats, WarmEntry, WarmStartCache
from repro.provisioning.planner import CapacityPlanner
from repro.provisioning.background import BackgroundTraffic
from repro.provisioning.portfolio import (ArmOutcome, _locality_arm,
                                          build_arms, run_race,
                                          scenario_lower_bound)
from repro.resilience import SolveSupervisor
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand
from repro.workload.media import MediaLoadModel

_TOPOLOGY = Topology.small()
_CONFIGS = [
    CallConfig.build({"JP": 2}, MediaType.AUDIO),
    CallConfig.build({"HK": 3}, MediaType.VIDEO),
    CallConfig.build({"IN": 1, "JP": 2}, MediaType.SCREEN_SHARE),
]
_PLACEMENT = PlacementData(_TOPOLOGY, _CONFIGS, MediaLoadModel())

# Strictly positive demand so the day-pair perturbation preserves the
# activity mask (part of the warm-cache structural signature).
_DAY_COUNTS = st.lists(
    st.lists(st.floats(min_value=1.0, max_value=200.0),
             min_size=len(_CONFIGS), max_size=len(_CONFIGS)),
    min_size=1, max_size=3,
)
_PERTURBATIONS = st.lists(
    st.lists(st.floats(min_value=0.5, max_value=1.5),
             min_size=len(_CONFIGS), max_size=len(_CONFIGS)),
    min_size=3, max_size=3,
)


def _demand(counts):
    matrix = np.array(counts)
    slots = make_slots(len(counts) * 1800.0, 1800.0)
    return Demand(slots, _CONFIGS, matrix)


def _perturbed(counts, factors):
    return [
        [value * factors[j % len(factors)][j] for j, value in enumerate(row)]
        for row in counts
    ]


# ---------------------------------------------------------------------------
# Warm starts


@settings(max_examples=20, deadline=None)
@given(_DAY_COUNTS, _PERTURBATIONS)
def test_warm_resolve_matches_cold_across_day_pairs(counts, factors):
    """Day N's instance and basis re-solve day N+1 to the cold optimum."""
    cache = WarmStartCache()
    day1 = _demand(counts)
    day2 = _demand(_perturbed(counts, factors))

    ScenarioLP(_PLACEMENT, day1).solve(warm_cache=cache)
    assert len(cache) == 1

    warm = ScenarioLP(_PLACEMENT, day2).solve(warm_cache=cache)
    cold = ScenarioLP(_PLACEMENT, day2).solve()
    assert warm.stats.arm == "warm"
    assert warm.cost == pytest.approx(cold.cost, rel=1e-9)
    for name, got, want in (("cores", warm.cores, cold.cores),
                            ("link_gbps", warm.link_gbps, cold.link_gbps)):
        assert set(got) == set(want), name
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-9, abs=1e-9), (
                name, key)


def test_warm_cache_hit_tagged_and_day_pair_reuses_seed():
    counts = [[40.0, 10.0, 5.0], [80.0, 30.0, 10.0]]
    cache = WarmStartCache()
    first = ScenarioLP(_PLACEMENT, _demand(counts)).solve(warm_cache=cache)
    assert first.stats.arm is None  # cold: nothing cached yet
    assert cache.stats()["stores"] == 1 and cache.stats()["misses"] == 1

    shifted = [[v * 1.2 for v in row] for row in counts]
    second = ScenarioLP(_PLACEMENT, _demand(shifted)).solve(warm_cache=cache)
    assert cache.stats()["hits"] == 1
    assert second.stats.arm == "warm"
    exact = ScenarioLP(_PLACEMENT, _demand(shifted)).solve()
    assert second.cost == pytest.approx(exact.cost, rel=1e-9)


def test_warm_cache_eviction():
    cache = WarmStartCache(max_entries=2)
    instances = {name: ScenarioLP(_PLACEMENT, _demand([[v, 1.0, 1.0]]))
                 .prepared()[1] for name, v in (("x", 1.0), ("y", 2.0))}
    cache.put("a", instances["x"])
    cache.put("b", instances["y"])
    cache.put("a", instances["y"])  # an update: "a" is the most recent
    assert len(cache) == 2
    cache.put("c", instances["x"])  # evicts the least recently used, "b"
    assert cache.get("b") is None
    assert cache.get("a").instance is instances["y"]  # a use: "c" is oldest
    cache.put("d", instances["x"])
    assert cache.get("c") is None
    stats = cache.stats()
    assert stats["entries"] == 2 and stats["stores"] == 5
    assert stats["misses"] == 2 and stats["hits"] == 1


def test_warm_cache_byte_budget():
    """Entries past ``max_bytes`` go least recently used first; one entry
    over the whole budget is kept alone."""
    instance = ScenarioLP(_PLACEMENT, _demand([[5.0, 1.0, 1.0]])).prepared()[1]
    size = WarmEntry(instance, None, None, None).nbytes
    assert size == WarmEntry(instance, None, np.ones(4), None).nbytes - 32
    cache = WarmStartCache()
    cache.max_bytes = 2 * size
    for name in "abc":
        cache.put(name, instance)
    assert len(cache) == 2
    assert cache.get("a") is None and cache.get("b") is not None
    cache.put("b", instance)  # an update frees its old bytes first
    cache.put("d", instance)  # "c" is the least recently used
    assert cache.get("c") is None and len(cache) == 2
    cache.max_bytes = size // 2
    cache.put("e", instance)
    assert len(cache) == 1 and cache.get("e") is not None
    cache.clear()
    cache.max_bytes = 2 * size
    cache.put("f", instance)
    cache.put("g", instance)
    assert len(cache) == 2  # clearing released every byte


def test_switchboard_drops_warm_entries_of_an_old_placement():
    """Signatures start with the placement: a new config set's day leaves
    only its own entries in the controller's cache.  (Exact-only: locality
    would certify every scenario of this small topology unsolved.)"""
    config = PlannerConfig(backup_method="max",
                           portfolio=PortfolioConfig(arms=("exact",)))
    days = [_demand([[60.0, 20.0, 8.0]]),
            Demand(make_slots(1800.0, 1800.0), _CONFIGS[:2],
                   np.array([[60.0, 20.0]]))]
    switchboard = Switchboard(_TOPOLOGY, config=config)
    for demand in days:
        switchboard.provision(demand)
    alone = Switchboard(_TOPOLOGY, config=config)
    alone.provision(days[1])
    stats = switchboard.warmstart_stats()
    assert stats["entries"] == alone.warmstart_stats()["entries"] > 0
    assert stats["stores"] > alone.warmstart_stats()["stores"]
    switchboard.provision(days[1])  # same placement: entries are kept
    assert switchboard.warmstart_stats()["hits"] > stats["hits"]


def test_failure_allocation_keeps_one_placement_in_the_cache():
    """``allocation_plan``'s failure-scenario LP empties the cache of
    another placement's entries before it stores its own."""
    day = _demand([[60.0, 20.0, 8.0]])
    switchboard = Switchboard(_TOPOLOGY, config=PlannerConfig(
        backup_method="max"))
    switchboard.provision(day)
    assert switchboard.warmstart_stats()["entries"] > 1
    other = Demand(day.slots, _CONFIGS[:2], day.counts[:, :2])
    failed = _TOPOLOGY.best_dc(_CONFIGS[0])
    switchboard.allocation_plan(other, failed_dc=failed)
    assert switchboard.warmstart_stats()["entries"] == 1
    switchboard.allocation_plan(other, failed_dc=failed)
    assert switchboard.warmstart_stats()["hits"] == 1


def test_warm_cache_rejects_bad_capacity():
    with pytest.raises(SwitchboardError):
        WarmStartCache(max_entries=0)


# ---------------------------------------------------------------------------
# Dual-certificate lower bounds


def test_cached_duals_price_next_day_into_a_tight_floor():
    """Day-N duals bound day-N+1's optimum: valid, and near-tight.

    Dual feasibility depends only on the matrix and objective, which the
    structural signature pins — so day 1's cached dual point prices
    day 2's perturbed RHS into a lower bound with zero solver work.
    """
    counts = [[60.0, 20.0, 8.0], [120.0, 45.0, 16.0], [30.0, 10.0, 4.0]]
    cache = WarmStartCache()
    ScenarioLP(_PLACEMENT, _demand(counts)).solve(warm_cache=cache)

    rng = np.random.default_rng(7)
    for _ in range(5):
        factors = rng.uniform(0.9, 1.1, (len(counts), len(_CONFIGS)))
        day2 = _demand((np.array(counts) * factors).tolist())
        lp = ScenarioLP(_PLACEMENT, day2)
        floor = lp.dual_floor(cache)
        exact = lp.solve()
        assert floor is not None
        assert floor <= exact.cost + 1e-6      # weak duality: never above
        assert floor >= 0.5 * exact.cost       # and far from trivial
    assert cache.stats()["dual_hits"] >= 5


def test_dual_floor_unavailable_paths():
    """No cache, no cached duals, or mismatched duals -> None, never a lie."""
    demand = _demand([[50.0, 15.0, 6.0]])
    lp = ScenarioLP(_PLACEMENT, demand)
    assert lp.dual_floor(None) is None
    cache = WarmStartCache()
    assert lp.dual_floor(cache) is None        # empty cache
    cache.put(lp.signature(), lp.prepared()[1])  # instance, no dual point
    assert lp.dual_floor(cache) is None
    assert cache.get_duals(lp.signature()) is None
    assert cache.stats()["dual_hits"] == 0

    # A dual point of the wrong shape must be rejected, not mis-priced.
    _, instance, _ = lp.prepared()
    assert instance.dual_bound((0.0,), None) is None


def test_dual_bound_matches_objective_at_own_optimum():
    """Strong duality sanity: an instance's own duals price it exactly."""
    demand = _demand([[80.0, 30.0, 12.0], [40.0, 15.0, 6.0]])
    lp = ScenarioLP(_PLACEMENT, demand)
    _, instance, _ = lp.prepared()
    solution = instance.solve()
    bound = instance.dual_bound(solution.dual_ineq, solution.dual_eq)
    assert bound == pytest.approx(solution.objective, rel=1e-6, abs=1e-6)


def test_day_two_race_certifies_heuristic_wins():
    """End to end: the shared cache turns day 2 into locality wins."""
    counts = [[60.0, 20.0, 8.0], [120.0, 45.0, 16.0]]
    scenarios = enumerate_scenarios(_TOPOLOGY)
    gap = 0.05
    portfolio = PortfolioConfig(gap=gap, arms=("locality", "exact"))
    cache = WarmStartCache()

    CapacityPlanner(_PLACEMENT, _demand(counts), portfolio=portfolio,
                    warm_cache=cache).plan(scenarios, combine="max")
    day2 = _demand([[v * 1.04 for v in row] for row in counts])
    raced = CapacityPlanner(_PLACEMENT, day2, portfolio=portfolio,
                            warm_cache=cache).plan(scenarios, combine="max")

    wins = raced.arm_stats()
    assert wins.get("locality") is not None and wins["locality"].n_solves > 0
    exact_plan = CapacityPlanner(_PLACEMENT, day2).plan(
        scenarios, combine="max"
    )
    for exact, fast in zip(exact_plan.scenario_results,
                           raced.scenario_results):
        assert fast.cost <= (1.0 + gap) * exact.cost + 1e-9


# ---------------------------------------------------------------------------
# Portfolio racing (real arms)


def test_portfolio_plan_within_gap_of_exact_on_every_scenario():
    """The parity pin: racing never changes the plan beyond the gap."""
    counts = [[60.0, 20.0, 8.0], [120.0, 45.0, 16.0], [30.0, 10.0, 4.0]]
    demand = _demand(counts)
    scenarios = enumerate_scenarios(_TOPOLOGY)
    gap = 0.02

    exact_plan = CapacityPlanner(_PLACEMENT, demand).plan(
        scenarios, combine="max"
    )
    portfolio = PortfolioConfig(gap=gap)
    raced_plan = CapacityPlanner(_PLACEMENT, demand, portfolio=portfolio).plan(
        scenarios, combine="max"
    )

    assert len(raced_plan.scenario_results) == len(exact_plan.scenario_results)
    for exact, fast in zip(exact_plan.scenario_results,
                           raced_plan.scenario_results):
        assert exact.scenario.name == fast.scenario.name
        assert fast.cost <= (1.0 + gap) * exact.cost + 1e-9
        if fast.bound_gap is not None:
            assert fast.bound_gap <= gap + 1e-9


def _raced_loop(demand, scenarios, portfolio, cache=None, supervisor=None):
    """The oracle: the deduplicated sweep as a plain loop in scenario
    order, each scenario raced through the same arms and cache."""
    unique, _ = dedupe_scenarios(_PLACEMENT, demand, scenarios)
    results = {}
    for scenario in unique:
        label = f"provision.scenario[{scenario.name}]"
        arms = build_arms(_PLACEMENT, demand, scenario, arms=portfolio.arms,
                          warm_cache=cache)
        results[scenario.name] = (
            run_race(arms, portfolio.gap, label=label)[0]
            if supervisor is None
            else supervisor.race(label, arms, portfolio.gap))
    return results


def _assert_matches_loop(plan, loop):
    solved = [r for r in plan.scenario_results if r.stats.arm != "dedup"]
    assert [r.scenario.name for r in solved] == list(loop)
    for got in solved:
        want = loop[got.scenario.name]
        assert (got.cost, got.stats.arm, got.bound_gap, got.cores,
                got.link_gbps, got.shares) == (
            want.cost, want.stats.arm, want.bound_gap, want.cores,
            want.link_gbps, want.shares)


def test_pooled_portfolio_plan_equals_sequential(four_threads):
    """Four threads race the scenarios; every result is the sequential
    loop's, merged in scenario order."""
    demand = _demand([[60.0, 20.0, 8.0], [120.0, 45.0, 16.0]])
    scenarios = enumerate_scenarios(_TOPOLOGY)
    portfolio = PortfolioConfig(gap=0.02)
    plan = CapacityPlanner(_PLACEMENT, demand, portfolio=portfolio).plan(
        scenarios, combine="max")
    assert [r.scenario.name for r in plan.scenario_results] == [
        s.name for s in scenarios]
    _assert_matches_loop(plan, _raced_loop(demand, scenarios, portfolio))


@pytest.mark.parametrize("supervised", [False, True])
def test_pooled_days_carry_warm_entries_across_days(supervised, four_threads):
    """Threaded day 1 fills the shared cache, so threaded day 2 gets dual
    floors and re-priced instances: the same wins, cache counters and
    plan as a sequential loop over its own cache.  (Day 1 runs
    exact-only: on this small topology locality's closed-form bound
    would certify every scenario.)"""
    counts = [[60.0, 20.0, 8.0], [120.0, 45.0, 16.0]]
    days = [(_demand(counts), ("exact",)),
            (_demand([[v * 1.04 for v in row] for row in counts]),
             ("locality", "exact"))]
    scenarios = enumerate_scenarios(_TOPOLOGY)
    threaded_cache, loop_cache = WarmStartCache(), WarmStartCache()
    for demand, arms in days:
        portfolio = PortfolioConfig(gap=0.05, arms=arms)
        supervisors = [SolveSupervisor(obs=Observability()) if supervised
                       else None for _ in range(2)]
        plan = CapacityPlanner(_PLACEMENT, demand, supervisor=supervisors[0],
                               portfolio=portfolio,
                               warm_cache=threaded_cache).plan(
            scenarios, combine="max")
        _assert_matches_loop(plan, _raced_loop(
            demand, scenarios, portfolio, loop_cache, supervisors[1]))
        assert threaded_cache.stats() == loop_cache.stats()
        if supervised:
            counts_of = [s.obs.counters.snapshot() for s in supervisors]
            counts_of[0].pop("dedup.collapsed", None)
            assert counts_of[0] == counts_of[1]
    stats = threaded_cache.stats()
    assert stats["dual_hits"] > 0 and stats["hits"] > 0
    assert "locality" in plan.arm_stats()


def test_pooled_exact_days_solve_through_the_shared_cache(four_threads):
    """Without a portfolio a threaded max sweep still re-prices day 1's
    instances on day 2 and re-solves from their bases: the controller's
    plan is a sequential loop's over its own cache."""
    counts = [[60.0, 20.0, 8.0], [120.0, 45.0, 16.0]]
    days = [_demand(counts),
            _demand([[v * 1.04 for v in row] for row in counts])]
    switchboard = Switchboard(_TOPOLOGY, config=PlannerConfig(
        backup_method="max"))
    cache = WarmStartCache()
    for demand in days:
        plan = switchboard.provision(demand)
        loop = [ScenarioLP(_PLACEMENT, demand, scenario).solve(warm_cache=cache)
                for scenario in enumerate_scenarios(_TOPOLOGY)]
        assert plan.method == "max"
        assert [(r.scenario.name, r.stats.arm, r.cost, r.cores, r.shares)
                for r in plan.scenario_results] == [
            (r.scenario.name, r.stats.arm, r.cost, r.cores, r.shares)
            for r in loop]
    assert {r.stats.arm for r in plan.scenario_results} == {"warm"}
    stats = switchboard.warmstart_stats()
    assert stats == cache.stats() and stats["hits"] > 0


def test_exact_arm_results_carry_zero_gap():
    demand = _demand([[50.0, 15.0, 6.0]])
    portfolio = PortfolioConfig(arms=("exact",))
    plan = CapacityPlanner(_PLACEMENT, demand, portfolio=portfolio).plan(
        [NO_FAILURE], combine="max"
    )
    result = plan.scenario_results[0]
    assert result.stats.arm == "exact"
    assert result.bound_gap == 0.0


def test_scenario_lower_bound_is_a_lower_bound():
    demand = _demand([[70.0, 25.0, 9.0], [140.0, 50.0, 18.0]])
    for scenario in enumerate_scenarios(_TOPOLOGY):
        exact = ScenarioLP(_PLACEMENT, demand, scenario).solve()
        bound = scenario_lower_bound(_PLACEMENT, demand, scenario)
        assert bound <= exact.cost + 1e-6


def _reference_locality(placement, demand, scenario, background, caps):
    """The locality arm as it priced plans before per-config arrays: a
    per-(config, slot) loop over dicts, unit costs recomputed per call.
    Returns ``(result or None, upper, lower)``."""
    topology = placement.topology

    def unit_cost(option):
        return (option.cores_per_call * topology.dc_cost(option.dc_id)
                + sum(gbps * topology.wan_cost(link_id)
                      for link_id, gbps in option.link_gbps.items()))

    counts, n_slots = demand.counts, demand.n_slots
    choice = {}
    for j, config in enumerate(demand.configs):
        costs = [unit_cost(o)
                 for o in placement.options_under_scenario(config, scenario)]
        choice[j] = int(np.argmin(costs))
    lower = float((counts * np.array([
        min(unit_cost(o)
            for o in placement.options_under_scenario(config, scenario))
        for config in demand.configs])).sum(axis=1).max())
    core_series, link_series, shares = {}, {}, {}
    for j, config in enumerate(demand.configs):
        options = placement.options_under_scenario(config, scenario)
        column = counts[:, j]
        for t in np.nonzero(column > 0)[0]:
            option = options[choice[j]]
            calls = float(column[t])
            core_series.setdefault(option.dc_id, np.zeros(n_slots))[t] += \
                calls * option.cores_per_call
            for link_id, gbps in option.link_gbps.items():
                link_series.setdefault(link_id, np.zeros(n_slots))[t] += \
                    calls * gbps
            shares.setdefault((int(t), config), {})[option.dc_id] = calls
    cores = {dc: float(series.max()) for dc, series in core_series.items()}
    for dc, value in cores.items():
        if caps and dc in caps and value > caps[dc] * (1.0 + 1e-9):
            return None, float("inf"), lower
    link_gbps = {}
    for link_id, series in link_series.items():
        if background is not None:
            series = series + background.series(link_id)[:n_slots]
        link_gbps[link_id] = float(series.max())
    if background is not None:
        used = sorted({link for config in demand.configs
                       for o in placement.options_under_scenario(config,
                                                                 scenario)
                       for link in o.link_gbps})
        for link_id in used:
            if background.peak(link_id) > 0:
                link_gbps[link_id] = max(link_gbps.get(link_id, 0.0),
                                         background.peak(link_id))
    cost = (sum(topology.dc_cost(dc) * v for dc, v in cores.items())
            + sum(topology.wan_cost(l) * v for l, v in link_gbps.items()))
    return (cores, link_gbps, shares, cost), cost, lower


_SCENARIOS = enumerate_scenarios(_TOPOLOGY)
_BACKGROUND_LINKS = sorted(link.link_id for link in _TOPOLOGY.wan.links)[:4]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_locality_pricing_matches_the_reference_loop(data):
    """The array-priced locality arm returns, bit for bit, the plan, the
    bounds and (once it is final) the shares of the per-slot loop it
    replaced — with and without background traffic and core caps."""
    n_slots = data.draw(st.integers(1, 4))
    counts = np.array(data.draw(st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(0.5, 300.0)),
                 min_size=len(_CONFIGS), max_size=len(_CONFIGS)),
        min_size=n_slots, max_size=n_slots)))
    demand = _demand(counts)
    scenario = data.draw(st.sampled_from(_SCENARIOS))
    background = None
    if data.draw(st.booleans()):
        background = BackgroundTraffic({
            link_id: data.draw(st.lists(st.floats(0.0, 5.0), min_size=n_slots,
                                        max_size=n_slots))
            for link_id in data.draw(st.lists(
                st.sampled_from(_BACKGROUND_LINKS), unique=True))}, n_slots)
    caps = data.draw(st.one_of(st.none(), st.dictionaries(
        st.sampled_from(_TOPOLOGY.fleet.ids), st.floats(0.0, 200.0))))

    want, upper, lower = _reference_locality(_PLACEMENT, demand, scenario,
                                             background, caps)
    outcome = _locality_arm(_PLACEMENT, demand, scenario, background, caps)
    assert (outcome.upper_bound, outcome.lower_bound) == (upper, lower)
    if want is None:
        assert outcome.result is None
        return
    result = outcome.result
    cores, link_gbps, shares, cost = want
    assert list(result.cores.items()) == list(cores.items())
    assert list(result.link_gbps.items()) == list(link_gbps.items())
    assert list(result.shares.items()) == list(shares.items())
    assert result.cost == cost
    assert result.excess_cores == cores and result.excess_links == link_gbps


def test_race_builds_shares_only_for_the_returned_arm():
    """A losing locality plan never builds its shares; a winning one
    builds them when they are read, once."""
    built = []

    def outcome(upper):
        result = _fake_result(upper)
        result.shares = lambda: built.append(upper) or {"s": upper}
        return ArmOutcome("locality", result, upper, 100.0)

    exact = _arm("exact", upper=100.0, lower=100.0, exact=True)
    loser, _ = run_race([("locality", lambda: outcome(150.0)), exact], 0.02)
    assert built == [] and loser.shares == {}
    winner, _ = run_race([("locality", lambda: outcome(101.0)), exact], 0.02)
    assert built == []
    assert winner.shares == {"s": 101.0} and winner.shares == {"s": 101.0}
    assert built == [101.0]


def test_heuristic_lineup_reports_honest_gap():
    """Exact-less lineups fall back to the best UB with its true gap."""
    demand = _demand([[60.0, 20.0, 8.0], [120.0, 45.0, 16.0]])
    arms = build_arms(_PLACEMENT, demand, NO_FAILURE, arms=("locality",))
    result, trail = run_race(arms, gap=0.0)
    exact = ScenarioLP(_PLACEMENT, demand).solve()
    assert result.bound_gap is not None
    assert result.cost <= (1.0 + result.bound_gap) * exact.cost + 1e-6
    assert trail[-1][0] == "portfolio.arm.win"


# ---------------------------------------------------------------------------
# Race semantics (fake arms)


def _fake_result(cost: float) -> ScenarioResult:
    return ScenarioResult(
        scenario=NO_FAILURE, cores={"dc": cost}, link_gbps={},
        excess_cores={"dc": cost}, excess_links={}, shares={}, cost=cost,
        stats=SolveStats(arm="locality"),
    )


def _arm(name, upper, lower, cost=None, exact=False):
    outcome = ArmOutcome(
        name, _fake_result(upper if cost is None else cost), upper, lower,
        exact=exact,
    )
    return (name, lambda: outcome)


def test_race_first_valid_under_gap_wins_without_running_later_arms():
    def exploding_exact():
        raise AssertionError("exact must not run when a heuristic wins")

    arms = [_arm("locality", upper=101.0, lower=100.0),
            ("exact", exploding_exact)]
    result, trail = run_race(arms, gap=0.02)
    assert result.cost == 101.0
    assert result.bound_gap == pytest.approx(0.01)
    assert [kind for kind, _ in trail] == ["portfolio.arm.win"]


def test_race_heuristic_above_gap_loses_to_exact():
    arms = [_arm("locality", upper=120.0, lower=100.0),
            _arm("exact", upper=105.0, lower=105.0, exact=True)]
    result, trail = run_race(arms, gap=0.02)
    assert result.cost == 105.0
    assert result.bound_gap == 0.0
    assert [kind for kind, _ in trail] == [
        "portfolio.arm.loss", "portfolio.arm.win",
    ]


def test_race_crashing_heuristic_is_a_loss_not_a_failure():
    def crashing():
        raise RuntimeError("numerics blew up")

    arms = [("locality", crashing),
            _arm("exact", upper=50.0, lower=50.0, exact=True)]
    result, trail = run_race(arms, gap=0.02)
    assert result.cost == 50.0
    assert trail[0][0] == "portfolio.arm.loss"
    assert "numerics blew up" in str(trail[0][1]["error"])


def test_race_propagates_infeasibility_and_exact_crashes():
    def infeasible():
        raise InfeasibleError("scenario has no surviving options")

    with pytest.raises(InfeasibleError):
        run_race([("locality", infeasible)], gap=0.02)

    def broken_exact():
        raise RuntimeError("solver died")

    with pytest.raises(RuntimeError):
        run_race([("exact", broken_exact)], gap=0.02)


def test_race_exactless_fallback_flags_gap_exceeded():
    arms = [_arm("locality", upper=150.0, lower=100.0),
            _arm("heuristic", upper=130.0, lower=90.0)]
    result, trail = run_race(arms, gap=0.02)
    assert result.cost == 130.0  # best upper bound of the lineup
    assert result.bound_gap == pytest.approx(0.3)
    kind, fields = trail[-1]
    assert kind == "portfolio.arm.win"
    assert fields["gap_exceeded"] is True
    assert fields["arm"] == "heuristic"


def test_supervisor_race_records_events():
    supervisor = SolveSupervisor(obs=Observability())
    arms = [_arm("locality", upper=120.0, lower=100.0),
            _arm("exact", upper=100.0, lower=100.0, exact=True)]
    result = supervisor.race("provision.F0", arms, gap=0.01)
    assert result.cost == 100.0
    losses = supervisor.obs.events("portfolio.arm.loss")
    wins = supervisor.obs.events("portfolio.arm.win")
    assert len(losses) == 1 and len(wins) == 1
    # Each arm also ran under the full run() policy: attempts were logged.
    attempts = supervisor.obs.events("solve.attempt")
    assert {e.detail.get("label", e.label) for e in attempts} == {
        "provision.F0@locality", "provision.F0@exact",
    }


# ---------------------------------------------------------------------------
# Structural dedup


def test_dedupe_collapses_identical_down_sets():
    duplicates = [
        NO_FAILURE,
        FailureScenario(name="F_dc:dc-pune", failed_dc="dc-pune"),
        FailureScenario(name="F_dc2:dc-pune-again", failed_dcs=("dc-pune",)),
    ]
    demand = _demand([[40.0, 12.0, 5.0]])
    unique, expansion = dedupe_scenarios(_PLACEMENT, demand, duplicates)
    assert [s.name for s in unique] == [NO_FAILURE.name, "F_dc:dc-pune"]
    assert expansion == [0, 1, 1]


def test_dedup_fans_results_back_out_in_input_order():
    duplicates = [
        NO_FAILURE,
        FailureScenario(name="F_dc:dc-pune", failed_dc="dc-pune"),
        FailureScenario(name="F_dc2:dc-pune-again", failed_dcs=("dc-pune",)),
    ]
    demand = _demand([[40.0, 12.0, 5.0], [80.0, 24.0, 10.0]])
    portfolio = PortfolioConfig(arms=("exact",))
    plan = CapacityPlanner(_PLACEMENT, demand, portfolio=portfolio).plan(
        duplicates, combine="max"
    )
    assert [r.scenario.name for r in plan.scenario_results] == [
        s.name for s in duplicates
    ]
    solved, copy = plan.scenario_results[1], plan.scenario_results[2]
    assert copy.stats.n_solves == 0 and copy.stats.arm == "dedup"
    assert solved.stats.n_solves > 0
    assert copy.cost == solved.cost
    assert copy.cores == solved.cores
    # Aggregate stats count the LP exactly once for the pair.
    assert plan.aggregate_stats().n_solves == 2
    assert set(plan.arm_stats()) == {"exact", "dedup"}


# ---------------------------------------------------------------------------
# Stats plumbing


def test_solve_stats_merge_sums_work_and_maxes_sizes():
    a = SolveStats(n_rows=100, n_cols=50, nnz=400, assembly_seconds=0.1,
                   solver_seconds=0.2, n_solves=1, arm="exact")
    b = SolveStats(n_rows=80, n_cols=70, nnz=300, assembly_seconds=0.3,
                   solver_seconds=0.4, n_solves=2, arm="exact")
    merged = a.merge(b)
    assert merged.n_rows == 100 and merged.n_cols == 70
    assert merged.nnz == 700 and merged.n_solves == 3
    assert merged.assembly_seconds == pytest.approx(0.4)
    assert merged.solver_seconds == pytest.approx(0.6)
    assert merged.arm == "exact"
    assert a.merge(SolveStats(arm="locality")).arm is None


def test_solve_stats_combine_keeps_attribution():
    records = [SolveStats(n_solves=1, arm="warm"),
               SolveStats(n_solves=1, arm="warm")]
    assert SolveStats.combine(records).arm == "warm"
    assert SolveStats.combine([]).n_solves == 0


# ---------------------------------------------------------------------------
# Config


def test_portfolio_config_validation():
    with pytest.raises(SwitchboardError):
        PortfolioConfig(arms=())
    with pytest.raises(SwitchboardError):
        PortfolioConfig(arms=("exact", "simplex-of-doom"))
    with pytest.raises(SwitchboardError):
        PortfolioConfig(gap=-0.1)
    # No pricing rounds remain to configure; the harness's call stands.
    with pytest.raises(TypeError):
        PortfolioConfig(max_pricing_rounds=2)
    assert PortfolioConfig(gap=0.05, arms=("locality", "exact")).gap == 0.05


def test_portfolio_config_but_is_a_frozen_copy():
    base = PortfolioConfig()
    tightened = base.but(gap=0.001, arms=("exact",))
    assert tightened.gap == 0.001 and tightened.arms == ("exact",)
    assert base.gap == 0.02 and base.arms == ("locality", "exact")
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.gap = 0.5
