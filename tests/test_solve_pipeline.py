"""Regression tests for the solve pipeline: numerical conditioning,
threaded scenario sweeps, and SolveStats instrumentation.

The conditioning tests pin the LP's positive homogeneity across demand
magnitudes far outside HiGHS's ~1e-7 absolute feasibility tolerance —
the seed bug was that sub-tolerance demand got zeroed in presolve, so
``cost(5.96e-08 calls)`` returned 0.0 while ``cost(1.19e-07)`` did not.
"""

import threading
import time

import numpy as np
import pytest

from repro.config import PlannerConfig
from repro.core.types import CallConfig, MediaType, make_slots
from repro.provisioning import planner as planner_module
from repro.provisioning.backup_lp import solve_backup_lp
from repro.provisioning.demand import PlacementData
from repro.provisioning.failures import enumerate_scenarios
from repro.provisioning.formulation import ScenarioLP
from repro.provisioning.lp import SolveStats
from repro.provisioning.planner import CapacityPlanner
from repro.resilience import FaultPlan, SolveSupervisor
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand
from repro.workload.media import MediaLoadModel

_TOPOLOGY = Topology.small()
_CONFIGS = [
    CallConfig.build({"JP": 2}, MediaType.AUDIO),
    CallConfig.build({"HK": 2}, MediaType.VIDEO),
    CallConfig.build({"IN": 1, "JP": 2}, MediaType.SCREEN_SHARE),
]
_PLACEMENT = PlacementData(_TOPOLOGY, _CONFIGS, MediaLoadModel())
_BASE_COUNTS = np.array([
    [100.0, 60.0, 20.0],
    [30.0, 110.0, 60.0],
    [20.0, 50.0, 110.0],
])

MAGNITUDES = [1e-8, 1e-4, 1.0, 1e4, 1e8]


def _demand(counts):
    matrix = np.asarray(counts, dtype=float)
    slots = make_slots(matrix.shape[0] * 1800.0, 1800.0)
    return Demand(slots, _CONFIGS, matrix)


class TestDemandMagnitudeSweep:
    """Homogeneity, completeness, and cost consistency from 1e-8 to 1e8."""

    @pytest.fixture(scope="class")
    def unit_result(self):
        return ScenarioLP(_PLACEMENT, _demand(_BASE_COUNTS)).solve()

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_homogeneity(self, magnitude, unit_result):
        scaled = ScenarioLP(
            _PLACEMENT, _demand(_BASE_COUNTS * magnitude)
        ).solve()
        assert scaled.cost == pytest.approx(
            magnitude * unit_result.cost, rel=1e-5
        )
        assert scaled.cost > 0

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_completeness_eq9(self, magnitude):
        demand = _demand(_BASE_COUNTS * magnitude)
        result = ScenarioLP(_PLACEMENT, demand).solve()
        for t in range(demand.n_slots):
            for j, config in enumerate(demand.configs):
                expected = demand.counts[t, j]
                assigned = sum(result.shares.get((t, config), {}).values())
                assert assigned == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_cost_consistency(self, magnitude):
        result = ScenarioLP(
            _PLACEMENT, _demand(_BASE_COUNTS * magnitude)
        ).solve()
        recomputed = (
            sum(_TOPOLOGY.dc_cost(dc) * v for dc, v in result.cores.items())
            + sum(_TOPOLOGY.wan_cost(l) * v
                  for l, v in result.link_gbps.items())
        )
        assert result.cost == pytest.approx(recomputed, rel=1e-9)
        assert all(v >= -1e-9 for v in result.cores.values())
        assert all(v >= -1e-9 for v in result.link_gbps.values())

    def test_seed_bug_sub_tolerance_demand_has_nonzero_cost(self):
        """The exact seed failure: 5.96e-08 calls must cost exactly half
        of 1.19e-07 calls, and neither may collapse to zero."""
        tiny = ScenarioLP(
            _PLACEMENT, _demand(_BASE_COUNTS * 5.96e-10)
        ).solve()
        double = ScenarioLP(
            _PLACEMENT, _demand(_BASE_COUNTS * 1.192e-9)
        ).solve()
        assert tiny.cost > 0
        assert double.cost == pytest.approx(2.0 * tiny.cost, rel=1e-6)

    def test_tiny_demand_has_defined_acl(self):
        """Sub-tolerance demand still hosts calls: the share filter is
        relative to slot demand, so mean_acl_ms stays defined."""
        demand = _demand(_BASE_COUNTS * 5.96e-10)
        result = ScenarioLP(_PLACEMENT, demand).solve()
        acl = result.mean_acl_ms(_PLACEMENT, demand)
        assert np.isfinite(acl)
        assert acl > 0

    def test_incremental_base_rescaled_with_demand(self):
        """Base capacity interacts with normalized demand: a plan solved
        at one magnitude fully covers the same demand re-solved against
        it, at any magnitude."""
        for magnitude in (1e-8, 1e6):
            demand = _demand(_BASE_COUNTS * magnitude)
            first = ScenarioLP(_PLACEMENT, demand).solve()
            again = ScenarioLP(
                _PLACEMENT, demand,
                base_cores=first.cores, base_links=first.link_gbps,
            ).solve()
            assert sum(again.excess_cores.values()) == pytest.approx(
                0.0, abs=1e-6 * max(magnitude, 1.0)
            )


class TestBackupLPConditioning:
    def test_backup_lp_homogeneous_at_tiny_scale(self):
        reference = solve_backup_lp({"jp": 100.0, "hk": 110.0, "in": 110.0})
        tiny = solve_backup_lp({"jp": 1e-8, "hk": 1.1e-8, "in": 1.1e-8})
        assert sum(tiny.values()) == pytest.approx(
            1e-10 * sum(reference.values()), rel=1e-6
        )

    def test_all_zero_serving(self):
        assert solve_backup_lp({"a": 0.0, "b": 0.0}) == {"a": 0.0, "b": 0.0}

    def test_wide_dynamic_range_servings(self):
        """Hypothesis counterexample: max-normalizing [611, 6.1e-5] put
        the small requirement at 1e-7 — inside presolve's zeroing band —
        so the DC serving 6.1e-5 got no backup at all.  The geometric-mean
        scale keeps both ends solvable."""
        serving = {"dc0": 611.0, "dc1": 6.103515625e-05}
        backup = solve_backup_lp(serving)
        for failed, required in serving.items():
            others = sum(v for k, v in backup.items() if k != failed)
            assert others >= required - 1e-6

    def test_extreme_dynamic_range_stays_feasible(self):
        """Hypothesis counterexample: the geometric mean of [1, 1.1e-78]
        rescales the large serving to ~1e39, past HiGHS's infinite-bound
        threshold — the LP went infeasible.  The clamp keeps the large
        end at a finite, solvable magnitude."""
        backup = solve_backup_lp({"dc0": 1.0, "dc1": 1.0759316871676962e-78})
        assert backup["dc1"] >= 1.0 - 1e-6


class TestConditioningEdgeCases:
    def test_subnormal_demand_solves(self):
        """Hypothesis counterexample: a subnormal max count made
        ``1.0 / scale`` overflow to inf, feeding inf into b_eq.  Division
        by the scale stays finite and the demand is served exactly."""
        counts = np.zeros((1, 3))
        counts[0, 2] = 2.2250738585e-313
        demand = _demand(counts)
        result = ScenarioLP(_PLACEMENT, demand).solve()
        assigned = sum(result.shares.get((0, _CONFIGS[2]), {}).values())
        assert assigned == pytest.approx(counts[0, 2], rel=1e-6)

    def test_wide_range_demand_solves(self):
        """Hypothesis counterexample: counts spanning [1.3e-187, 1.0] went
        infeasible when centering pushed the large config past HiGHS's
        infinite-bound threshold."""
        counts = np.array([[0.0, 1.0, 1.3412265849157348e-187]])
        result = ScenarioLP(_PLACEMENT, _demand(counts)).solve()
        assert result.cost > 0
        assigned = sum(result.shares.get((0, _CONFIGS[1]), {}).values())
        assert assigned == pytest.approx(1.0, rel=1e-6)


def _sequential(demand, scenarios):
    """The oracle: every scenario's cold exact LP, one after another."""
    return [ScenarioLP(_PLACEMENT, demand, scenario).solve()
            for scenario in scenarios]


def _assert_results_identical(got, want):
    assert [r.scenario.name for r in got] == [r.scenario.name for r in want]
    for a, b in zip(got, want):
        assert (a.cost, a.cores, a.link_gbps, a.shares) == \
            (b.cost, b.cores, b.link_gbps, b.shares)


class TestParallelScenarioSweep:
    @pytest.fixture(scope="class")
    def planner(self):
        return CapacityPlanner(_PLACEMENT, _demand(_BASE_COUNTS))

    def _assert_plans_equal(self, a, b, tolerance=1e-6):
        assert set(a.cores) == set(b.cores)
        assert set(a.link_gbps) == set(b.link_gbps)
        for dc_id in a.cores:
            assert a.cores[dc_id] == pytest.approx(
                b.cores[dc_id], abs=tolerance
            )
        for link_id in a.link_gbps:
            assert a.link_gbps[link_id] == pytest.approx(
                b.link_gbps[link_id], abs=tolerance
            )

    def test_parallel_matches_sequential(self, planner, four_threads):
        """Threads change when a scenario is solved, never what: results
        merge in scenario order, bit for bit the sequential loop's."""
        parallel = planner.plan_with_backup(method="max")
        _assert_results_identical(
            parallel.scenario_results,
            _sequential(planner.demand, enumerate_scenarios(_TOPOLOGY)))

    def test_max_plan_covers_every_scenario(self, planner, four_threads):
        plan = planner.plan_with_backup(method="max")
        for result in plan.scenario_results:
            assert plan.fits(
                type(plan)(cores=result.cores, link_gbps=result.link_gbps)
            )

    def test_workers_ignored_by_joint_and_incremental(self, planner,
                                                      monkeypatch):
        """Only the max sweep has independent LPs to spread over threads:
        the joint LP and the incremental sweep plan as on one CPU."""
        plans = []
        for cpus in (1, 4):
            monkeypatch.setattr(planner_module, "usable_cpus", lambda: cpus)
            plans.append((
                planner.plan_with_backup(max_link_scenarios=0),
                planner.plan_with_backup(max_link_scenarios=0,
                                         method="incremental")))
        for one, four in zip(*plans):
            self._assert_plans_equal(one, four, tolerance=0.0)

    def test_invalid_workers_rejected(self, planner):
        """The thread count is not a knob: ``workers=`` is gone."""
        with pytest.raises(TypeError):
            planner.plan_with_backup(method="max", workers=2)
        with pytest.raises(TypeError):
            PlannerConfig(workers=2)

    def test_unknown_combine_rejected(self, planner):
        from repro.core.errors import SolverError
        from repro.provisioning.failures import NO_FAILURE

        with pytest.raises(SolverError):
            planner.plan([NO_FAILURE], combine="median")

    def test_supervised_crashes_are_retried_inside_the_sweep(
            self, four_threads):
        """A crash aimed at one scenario's label burns a retry on that
        scenario's thread; the plan is the sequential loop's."""
        faults = (FaultPlan().crash("provision.scenario[F0]")
                  .crash("provision.scenario[F_dc:dc-pune]"))
        supervisor = SolveSupervisor(PlannerConfig(
            solve_retries=1, retry_backoff_s=0.0, fault_plan=faults))
        demand = _demand(_BASE_COUNTS)
        plan = CapacityPlanner(_PLACEMENT, demand, supervisor=supervisor
                               ).plan_with_backup(method="max")
        _assert_results_identical(
            plan.scenario_results,
            _sequential(demand, enumerate_scenarios(_TOPOLOGY)))
        counters = supervisor.obs.counters
        assert counters.get("fault.injected") == 2
        assert counters.get("solve.retry") == 2
        assert counters.get("solve.success") == len(plan.scenario_results)
        assert len(faults) == 0

    def test_timeout_cancels_pending_scenarios_and_reaches_the_ladder(
            self, monkeypatch):
        """Both threads hang past the budget: the sweep raises
        SolveTimeoutError without starting the two scenarios still
        queued, and the ladder falls to the incremental rung."""
        monkeypatch.setattr(planner_module, "usable_cpus", lambda: 2)
        faults = FaultPlan().hang("provision.scenario", times=2)
        switchboard = Switchboard(_TOPOLOGY, config=PlannerConfig(
            backup_method="max", max_link_scenarios=0, solve_timeout_s=0.5,
            solve_retries=0, fault_plan=faults))
        plan = switchboard.provision(_demand(_BASE_COUNTS), with_backup=True)
        assert (plan.method, plan.degradation_level) == ("incremental", 1)
        [fallback] = plan.events("ladder.fallback")
        assert fallback.label == "max" and "budget" in fallback.detail["error"]
        in_max = [event for event in plan.events("solve.attempt")
                  if event.seq < fallback.seq]
        assert len(in_max) == 2 < len(enumerate_scenarios(
            _TOPOLOGY, max_link_scenarios=0))
        assert plan.counter("solve.timeout") == 2


class TestSolveStats:
    def test_scenario_result_stats_populated(self):
        result = ScenarioLP(_PLACEMENT, _demand(_BASE_COUNTS)).solve()
        stats = result.stats
        assert stats.n_rows > 0
        assert stats.n_cols > 0
        assert stats.nnz >= stats.n_rows
        assert stats.assembly_seconds > 0
        assert stats.solver_seconds > 0
        assert stats.status == 0
        assert stats.n_solves == 1

    def test_plan_aggregates_stats(self):
        planner = CapacityPlanner(_PLACEMENT, _demand(_BASE_COUNTS))
        plan = planner.plan_with_backup(method="incremental")
        assert all(r.stats.n_rows > 0 for r in plan.scenario_results)
        aggregate = plan.aggregate_stats()
        assert aggregate.n_solves == len(plan.scenario_results)
        # Sizes take the max (the largest LP solved); work metrics sum.
        assert aggregate.n_rows == max(
            r.stats.n_rows for r in plan.scenario_results
        )
        assert aggregate.nnz == sum(
            r.stats.nnz for r in plan.scenario_results
        )
        assert aggregate.total_seconds == pytest.approx(
            sum(r.stats.total_seconds for r in plan.scenario_results)
        )

    def test_joint_plan_stats_populated(self):
        planner = CapacityPlanner(_PLACEMENT, _demand(_BASE_COUNTS))
        plan = planner.plan_with_backup(max_link_scenarios=0, method="joint")
        assert all(r.stats.n_rows > 0 for r in plan.scenario_results)

    def test_joint_plan_counts_its_one_solve_once(self):
        planner = CapacityPlanner(_PLACEMENT, _demand(_BASE_COUNTS))
        plan = planner.plan_with_backup(max_link_scenarios=0, method="joint")
        assert len(plan.scenario_results) > 1
        solve = plan.scenario_results[0].stats
        for stats in (plan.aggregate_stats(),
                      plan.arm_stats()[solve.arm or "exact"]):
            assert stats.n_solves == 1
            assert stats.solver_seconds == solve.solver_seconds
            assert stats.assembly_seconds == solve.assembly_seconds
            assert stats.nnz == solve.nnz
        assert len(plan.arm_stats()) == 1

    def test_max_plan_still_sums_every_scenario(self):
        planner = CapacityPlanner(_PLACEMENT, _demand(_BASE_COUNTS))
        plan = planner.plan_with_backup(max_link_scenarios=0, method="max")
        results = plan.scenario_results
        aggregate = plan.aggregate_stats()
        assert aggregate.n_solves == sum(r.stats.n_solves for r in results)
        assert aggregate.nnz == sum(r.stats.nnz for r in results)
        assert aggregate.solver_seconds == pytest.approx(
            sum(r.stats.solver_seconds for r in results))
        assert sum(s.n_solves for s in plan.arm_stats().values()) == \
            aggregate.n_solves

    def test_parallel_results_carry_stats(self, four_threads):
        planner = CapacityPlanner(_PLACEMENT, _demand(_BASE_COUNTS))
        plan = planner.plan_with_backup(method="max")
        assert all(r.stats.solver_seconds > 0 for r in plan.scenario_results)

    def test_allocation_outcome_stats(self):
        demand = _demand(_BASE_COUNTS)
        capacity = CapacityPlanner(_PLACEMENT, demand).plan_without_backup()
        from repro.allocation.offline import AllocationLP

        outcome = AllocationLP(_PLACEMENT, demand).allocate(capacity)
        assert outcome.stats.n_rows > 0
        assert outcome.stats.solver_seconds > 0

    def test_stats_combine_of_nothing_is_zero(self):
        zero = SolveStats.combine([])
        assert zero.n_solves == 0
        assert zero.total_seconds == 0.0


def test_parallel_sweep_not_pathologically_slow(four_threads, monkeypatch):
    """The sweep does not serialize: scenarios run on several of the
    sweep's threads, none on the caller's, and the merged plan is the
    sequential one.  (Asserted on where the work ran, not on wall time,
    so the verdict does not depend on the box.)"""
    threads = set()
    solve = CapacityPlanner._solve_scenario

    def recording(self, scenario, *args, **kwargs):
        threads.add(threading.current_thread().name)
        time.sleep(0.01)  # hold the thread so its sibling takes the next
        return solve(self, scenario, *args, **kwargs)

    monkeypatch.setattr(CapacityPlanner, "_solve_scenario", recording)
    demand = _demand(_BASE_COUNTS)
    parallel = CapacityPlanner(_PLACEMENT, demand).plan_with_backup(
        method="max")
    assert len(threads) > 1
    assert all(name.startswith("provision.max") for name in threads)
    _assert_results_identical(
        parallel.scenario_results,
        _sequential(demand, enumerate_scenarios(_TOPOLOGY)))
