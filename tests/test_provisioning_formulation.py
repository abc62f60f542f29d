"""Tests for the scenario LP, failure enumeration, and the planner.

The key invariants (checked on small instances so LPs stay fast):

* completeness: every slot's demand is fully assigned (Eq 9);
* serving: per-slot usage never exceeds the reported capacity (Eqs 5-6);
* peak-awareness: time-shifted demands share capacity;
* max-combining: the combined plan covers every scenario (Eqs 7-8).
"""

import numpy as np
import pytest

from repro.core.types import CallConfig, MediaType, make_slots
from repro.provisioning.demand import PlacementData
from repro.provisioning.failures import (
    NO_FAILURE,
    FailureScenario,
    enumerate_scenarios,
)
from repro.provisioning.formulation import ScenarioLP
from repro.provisioning.joint import JointProvisioningLP
from repro.provisioning.planner import CapacityPlan, CapacityPlanner
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand
from repro.workload.media import MediaLoadModel
from repro.core.errors import SolverError, TopologyError


@pytest.fixture(scope="module")
def small_world():
    return Topology.small()


@pytest.fixture(scope="module")
def small_demand(small_world):
    """Three shifted single-country demands over three slots (Fig 4-ish)."""
    slots = make_slots(3 * 1800.0, 1800.0)
    configs = [
        CallConfig.build({"JP": 2}, MediaType.AUDIO),
        CallConfig.build({"HK": 2}, MediaType.AUDIO),
        CallConfig.build({"IN": 2}, MediaType.AUDIO),
    ]
    counts = np.array([
        [100.0, 60.0, 20.0],
        [30.0, 110.0, 60.0],
        [20.0, 50.0, 110.0],
    ])
    return Demand(slots, configs, counts)


@pytest.fixture(scope="module")
def small_placement(small_world, small_demand):
    return PlacementData(small_world, small_demand.configs, MediaLoadModel())


def _usage_by_slot(result, placement, demand):
    """Recompute per-slot compute usage per DC from the shares."""
    usage = {}
    for (t, config), cell in result.shares.items():
        cores = placement.load_model.call_cores(config)
        for dc_id, count in cell.items():
            usage[(t, dc_id)] = usage.get((t, dc_id), 0.0) + cores * count
    return usage


class TestFailureEnumeration:
    def test_scenario_set_structure(self, small_world):
        scenarios = enumerate_scenarios(small_world)
        names = [s.name for s in scenarios]
        assert names[0] == "F0"
        assert sum(1 for s in scenarios if s.failed_dc) == 3
        assert all(not small_world.wan.is_bridge(s.failed_link)
                   for s in scenarios if s.failed_link)

    def test_max_link_scenarios(self, small_world):
        limited = enumerate_scenarios(small_world, max_link_scenarios=1)
        assert sum(1 for s in limited if s.failed_link) <= 1

    def test_double_failure_rejected(self):
        with pytest.raises(TopologyError):
            FailureScenario("bad", failed_dc="a", failed_link="l")

    def test_dc_only(self, small_world):
        scenarios = enumerate_scenarios(small_world, include_link_failures=False)
        assert all(s.failed_link is None for s in scenarios)


class TestScenarioLP:
    def test_completeness(self, small_placement, small_demand):
        result = ScenarioLP(small_placement, small_demand).solve()
        for t in range(small_demand.n_slots):
            for j, config in enumerate(small_demand.configs):
                expected = small_demand.counts[t, j]
                assigned = sum(result.shares.get((t, config), {}).values())
                assert assigned == pytest.approx(expected, rel=1e-6)

    def test_serving_capacity_covers_usage(self, small_placement, small_demand):
        result = ScenarioLP(small_placement, small_demand).solve()
        usage = _usage_by_slot(result, small_placement, small_demand)
        for (t, dc_id), used in usage.items():
            assert used <= result.cores[dc_id] + 1e-6

    def test_peak_awareness_shaves_the_sum_of_peaks(self, small_placement,
                                                    small_demand):
        """Total cores must not exceed serving every config at its local
        DC (the LF upper bound), and must cover the global peak."""
        result = ScenarioLP(small_placement, small_demand).solve()
        cores_per_call = small_placement.load_model.call_cores(
            small_demand.configs[0]
        )
        global_peak_calls = small_demand.counts.sum(axis=1).max()
        lf_total_calls = small_demand.counts.max(axis=0).sum()
        total = sum(result.cores.values())
        assert total >= global_peak_calls * cores_per_call - 1e-6
        assert total <= lf_total_calls * cores_per_call + 1e-6

    def test_dc_failure_scenario_avoids_failed_dc(self, small_placement,
                                                  small_demand):
        scenario = FailureScenario("f", failed_dc="dc-tokyo")
        result = ScenarioLP(small_placement, small_demand, scenario).solve()
        for cell in result.shares.values():
            assert "dc-tokyo" not in cell
        assert result.cores.get("dc-tokyo", 0.0) == 0.0

    def test_base_capacity_makes_excess_zero_when_sufficient(
            self, small_placement, small_demand):
        first = ScenarioLP(small_placement, small_demand).solve()
        again = ScenarioLP(
            small_placement, small_demand,
            base_cores=first.cores, base_links=first.link_gbps,
        ).solve()
        assert sum(again.excess_cores.values()) == pytest.approx(0.0, abs=1e-6)
        assert sum(again.excess_links.values()) == pytest.approx(0.0, abs=1e-6)

    def test_cost_prices_base_plus_excess_capacity(self, small_world,
                                                   small_placement,
                                                   small_demand):
        """Eq 3 over the whole capacity the result reports, the base it
        was given included, not over the excess the LP bought."""
        first = ScenarioLP(small_placement, small_demand).solve()
        result = ScenarioLP(
            small_placement, small_demand,
            base_cores={dc: 0.5 * v for dc, v in first.cores.items()},
        ).solve()
        assert sum(result.excess_cores.values()) > 0
        assert result.cost == pytest.approx(
            CapacityPlan(result.cores, result.link_gbps).cost(small_world),
            rel=1e-9)

    def test_latency_weight_prefers_local_placement(self, topology,
                                                    small_demand):
        """On the 15-DC world, cost-tied placements differ in latency:
        a weight large enough to move the LP's vertex buys a strictly
        lower mean ACL for the same cores (weights up to 1e-4 leave this
        demand's vertex where the pure-cost LP puts it)."""
        placement = PlacementData(topology, small_demand.configs,
                                  MediaLoadModel())
        plain = ScenarioLP(placement, small_demand).solve()
        weighted = ScenarioLP(placement, small_demand,
                              latency_weight=1e-3).solve()
        assert weighted.mean_acl_ms(placement, small_demand) \
            < plain.mean_acl_ms(placement, small_demand) - 1.0
        assert sum(weighted.cores.values()) \
            == pytest.approx(sum(plain.cores.values()), rel=1e-9)

    def test_mean_acl_positive(self, small_placement, small_demand):
        result = ScenarioLP(small_placement, small_demand).solve()
        assert result.mean_acl_ms(small_placement, small_demand) > 0


class TestPlanner:
    def test_plan_without_backup_single_scenario(self, small_placement,
                                                 small_demand):
        plan = CapacityPlanner(small_placement, small_demand).plan_without_backup()
        assert len(plan.scenario_results) == 1
        assert plan.scenario_results[0].scenario.is_baseline

    def test_incremental_plan_covers_every_scenario(self, small_placement,
                                                    small_demand, small_world):
        planner = CapacityPlanner(small_placement, small_demand)
        plan = planner.plan_with_backup(max_link_scenarios=0,
                                        method="incremental")
        # Re-solving any DC-failure against the plan needs zero excess.
        for dc_id in small_world.fleet.ids:
            result = ScenarioLP(
                small_placement, small_demand,
                FailureScenario(f"f:{dc_id}", failed_dc=dc_id),
                base_cores=plan.cores, base_links=plan.link_gbps,
            ).solve()
            assert sum(result.excess_cores.values()) == pytest.approx(0.0, abs=1e-5)
            assert sum(result.excess_links.values()) == pytest.approx(0.0, abs=1e-5)

    def test_joint_plan_covers_every_scenario(self, small_placement,
                                              small_demand, small_world):
        planner = CapacityPlanner(small_placement, small_demand)
        plan = planner.plan_with_backup(max_link_scenarios=0, method="joint")
        for dc_id in small_world.fleet.ids:
            result = ScenarioLP(
                small_placement, small_demand,
                FailureScenario(f"f:{dc_id}", failed_dc=dc_id),
                base_cores=plan.cores, base_links=plan.link_gbps,
            ).solve()
            assert sum(result.excess_cores.values()) == pytest.approx(0.0, abs=1e-5)

    def test_joint_never_costs_more_than_incremental(self, small_placement,
                                                     small_demand, small_world):
        planner = CapacityPlanner(small_placement, small_demand)
        joint = planner.plan_with_backup(max_link_scenarios=0, method="joint")
        incremental = planner.plan_with_backup(max_link_scenarios=0,
                                               method="incremental")
        assert joint.cost(small_world) <= incremental.cost(small_world) * 1.001

    def test_unknown_method_rejected(self, small_placement, small_demand):
        with pytest.raises(SolverError):
            CapacityPlanner(small_placement, small_demand).plan_with_backup(
                method="magic"
            )

    def test_empty_scenarios_rejected(self, small_placement, small_demand):
        with pytest.raises(SolverError):
            CapacityPlanner(small_placement, small_demand).plan([])

    def test_backup_plan_dominates_serving_plan(self, small_placement,
                                                small_demand):
        planner = CapacityPlanner(small_placement, small_demand)
        serving = planner.plan_without_backup()
        backup = planner.plan_with_backup(max_link_scenarios=0)
        assert backup.total_cores() >= serving.total_cores() - 1e-6


class TestCapacityPlan:
    def test_fits(self):
        big = CapacityPlan(cores={"a": 10.0}, link_gbps={"l": 5.0})
        small = CapacityPlan(cores={"a": 8.0}, link_gbps={"l": 5.0})
        assert big.fits(small)
        assert not small.fits(big)

    def test_total_wan_counts_inter_country_only(self, small_world,
                                                 small_placement, small_demand):
        plan = CapacityPlanner(small_placement, small_demand).plan_without_backup()
        inter = {l.link_id for l in small_world.wan.inter_country_links}
        expected = sum(v for k, v in plan.link_gbps.items() if k in inter)
        assert plan.total_wan_gbps(small_world) == pytest.approx(expected)

    def test_baseline_result_missing_raises(self):
        plan = CapacityPlan(cores={}, link_gbps={})
        with pytest.raises(SolverError):
            plan.baseline_result()


class TestJointLP:
    def test_rejects_empty_scenarios(self, small_placement, small_demand):
        with pytest.raises(SolverError):
            JointProvisioningLP(small_placement, small_demand, [])

    def test_negative_latency_weight_rejected(self, small_placement,
                                              small_demand):
        with pytest.raises(SolverError):
            JointProvisioningLP(small_placement, small_demand, [NO_FAILURE],
                                latency_weight=-1.0)

    def test_joint_f0_only_equals_single_scenario(self, small_placement,
                                                  small_demand, small_world):
        joint = JointProvisioningLP(
            small_placement, small_demand, [NO_FAILURE], latency_weight=0.0
        ).solve()
        single = ScenarioLP(small_placement, small_demand).solve()
        assert joint.cost(small_world) == pytest.approx(
            sum(small_world.dc_cost(d) * v for d, v in single.cores.items())
            + sum(small_world.wan_cost(l) * v for l, v in single.link_gbps.items()),
            rel=1e-5,
        )

    @pytest.mark.parametrize("latency_weight", [1e-6, 1e-3])
    def test_joint_results_report_plan_cost_and_excess(
            self, small_placement, small_demand, small_world, latency_weight):
        """Every joint result prices Eq 3 at the plan's capacities — the
        latency tie-break is not cost — and, on an empty base, its excess
        is the whole capacity."""
        scenarios = enumerate_scenarios(small_world, max_link_scenarios=0)
        plan = JointProvisioningLP(
            small_placement, small_demand, scenarios,
            latency_weight=latency_weight,
        ).solve()
        assert len(plan.scenario_results) == len(scenarios) == 4
        for result in plan.scenario_results:
            assert result.cost == pytest.approx(plan.cost(small_world),
                                                rel=1e-12)
            assert result.excess_cores == result.cores == plan.cores
            assert result.excess_links == result.link_gbps == plan.link_gbps

    def test_latency_tiebreak_never_worsens_realized_acl(self, small_demand):
        """Eq 10 as a secondary objective (§5.3): the capacity it buys
        admits an allocation no slower than a pure-cost plan's, and the
        shipped weight barely moves cost.  On the 15-DC world, unlike the
        3-DC one, cost-tied placements differ in latency."""
        world = Topology.default()
        placement = PlacementData(world, small_demand.configs,
                                  MediaLoadModel())
        scenarios = enumerate_scenarios(world, include_link_failures=False)
        controller = Switchboard(world)

        def solve(**weight):
            plan = JointProvisioningLP(placement, small_demand, scenarios,
                                       **weight).solve()
            return (plan.cost(world),
                    controller.mean_acl_with_capacity(small_demand, plan))

        plain_cost, plain_acl = solve(latency_weight=0.0)
        shipped_cost, shipped_acl = solve()
        _, heavy_acl = solve(latency_weight=1e-3)
        assert shipped_cost <= plain_cost * 1.01
        assert shipped_acl <= plain_acl + 1e-9
        assert heavy_acl <= plain_acl + 1e-9

    def test_fig4_peak_aware_total(self, small_placement, small_demand,
                                   small_world):
        """The paper's Fig 4 shape: peak-aware backup total is far below
        serving + dedicated backup (480), and >= the global peak."""
        scenarios = enumerate_scenarios(small_world, include_link_failures=False)
        plan = JointProvisioningLP(small_placement, small_demand, scenarios).solve()
        cores_per_call = small_placement.load_model.call_cores(
            small_demand.configs[0]
        )
        total_cores = plan.total_cores() / cores_per_call  # back to "calls"
        assert total_cores <= 330.0   # paper's fig: 320
        assert total_cores >= 180.0   # global peak of the demand matrix
