"""Tests for the §6.1 background-traffic extension."""

import numpy as np
import pytest

from repro.config import PlannerConfig
from repro.core.errors import TopologyError
from repro.core.types import CallConfig, MediaType, make_slots
from repro.provisioning.background import BackgroundTraffic, diurnal_background
from repro.provisioning.demand import PlacementData
from repro.provisioning.formulation import ScenarioLP
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand
from repro.workload.media import MediaLoadModel


class TestBackgroundTraffic:
    def test_lookup_and_defaults(self):
        bg = BackgroundTraffic({"l1": [1.0, 2.0]}, n_slots=2)
        assert bg.gbps("l1", 1) == 2.0
        assert bg.gbps("unknown", 0) == 0.0
        assert bg.peak("l1") == 2.0
        assert bg.peak("unknown") == 0.0
        assert bg.total_peak_gbps() == 2.0

    def test_shape_validation(self):
        with pytest.raises(TopologyError):
            BackgroundTraffic({"l1": [1.0]}, n_slots=2)
        with pytest.raises(TopologyError):
            BackgroundTraffic({"l1": [-1.0, 0.0]}, n_slots=2)
        with pytest.raises(TopologyError):
            BackgroundTraffic({}, n_slots=0)

    def test_slot_bounds(self):
        bg = BackgroundTraffic({"l1": [1.0, 2.0]}, n_slots=2)
        with pytest.raises(TopologyError):
            bg.gbps("l1", 2)

    def test_diurnal_generator_covers_inter_country_links(self, topology):
        bg = diurnal_background(topology, n_slots=48)
        inter = {l.link_id for l in topology.wan.inter_country_links}
        assert set(bg.links()) == inter
        for link_id in bg.links():
            series = [bg.gbps(link_id, t) for t in range(48)]
            assert min(series) >= 0
            assert max(series) <= 1.0 + 1e-9

    def test_diurnal_generator_varies_over_day(self, topology):
        bg = diurnal_background(topology, n_slots=48)
        link_id = bg.links()[0]
        series = [bg.gbps(link_id, t) for t in range(48)]
        assert max(series) > 1.5 * min(series)


class TestBackgroundInLP:
    @pytest.fixture(scope="class")
    def fixture(self):
        topo = Topology.small()
        configs = [CallConfig.build({"JP": 2}, MediaType.AUDIO)]
        placement = PlacementData(topo, configs, MediaLoadModel())
        slots = make_slots(2 * 1800.0, 1800.0)
        demand = Demand(slots, configs, np.array([[20.0], [10.0]]))
        return topo, placement, demand

    def test_np_covers_background_plus_traffic(self, fixture):
        topo, placement, demand = fixture
        plain = ScenarioLP(placement, demand).solve()
        # Put heavy background on every link the plain solution used.
        bg = BackgroundTraffic(
            {link_id: [5.0, 1.0] for link_id in plain.link_gbps},
            n_slots=2,
        )
        loaded = ScenarioLP(placement, demand, background=bg).solve()
        for link_id, plain_np in plain.link_gbps.items():
            assert loaded.link_gbps[link_id] >= 5.0 - 1e-6  # covers bg peak
        assert loaded.cost > plain.cost

    def test_anti_correlated_background_shares_peak(self, fixture):
        """When background peaks while conferencing is low, the overall
        peak is below the sum of the two peaks — the §6.1 claim."""
        topo, placement, demand = fixture
        plain = ScenarioLP(placement, demand).solve()
        target = max(plain.link_gbps, key=plain.link_gbps.get)
        teams_peak = plain.link_gbps[target]
        # Background peaks in slot 1 where conferencing is lighter.
        bg = BackgroundTraffic({target: [0.0, teams_peak]}, n_slots=2)
        loaded = ScenarioLP(placement, demand, background=bg).solve()
        naive_sum = teams_peak + teams_peak  # separate provisioning
        assert loaded.link_gbps[target] < naive_sum - 1e-9

    def test_zero_background_is_identity(self, fixture):
        topo, placement, demand = fixture
        plain = ScenarioLP(placement, demand).solve()
        zero = BackgroundTraffic({}, n_slots=2)
        with_zero = ScenarioLP(placement, demand, background=zero).solve()
        assert with_zero.cost == pytest.approx(plain.cost)


class TestDcCoreLimits:
    """Per-DC capacity caps (§7's 'cloud out of resources', refs [1-3])."""

    @pytest.fixture(scope="class")
    def fixture(self):
        topo = Topology.small()
        configs = [CallConfig.build({"JP": 2}, MediaType.AUDIO)]
        placement = PlacementData(topo, configs, MediaLoadModel())
        slots = make_slots(1800.0, 1800.0)
        demand = Demand(slots, configs, np.array([[20.0]]))
        return topo, placement, demand

    def test_cap_shifts_demand_elsewhere(self, fixture):
        topo, placement, demand = fixture
        unconstrained = ScenarioLP(placement, demand).solve()
        host = max(unconstrained.cores, key=unconstrained.cores.get)
        limit = unconstrained.cores[host] / 2
        capped = ScenarioLP(
            placement, demand, dc_core_limits={host: limit}
        ).solve()
        assert capped.cores.get(host, 0.0) <= limit + 1e-6
        # Everything is still served, somewhere.
        total = sum(sum(cell.values()) for cell in capped.shares.values())
        assert total == pytest.approx(demand.total_calls())
        assert capped.cost >= unconstrained.cost - 1e-9

    def test_impossible_caps_are_infeasible(self, fixture):
        from repro.core.errors import InfeasibleError

        topo, placement, demand = fixture
        caps = {dc_id: 0.1 for dc_id in topo.fleet.ids}
        with pytest.raises(InfeasibleError):
            ScenarioLP(placement, demand, dc_core_limits=caps).solve()

    @pytest.mark.parametrize("cap", [-5.0, float("nan"), float("-inf")])
    def test_unusable_caps_rejected_by_both_lps(self, fixture, cap):
        """Both LPs refuse such a cap at construction, so neither can read
        it as "DC unusable" nor as an infeasible scenario."""
        from repro.core.errors import SolverError
        from repro.provisioning.failures import enumerate_scenarios
        from repro.provisioning.joint import JointProvisioningLP

        topo, placement, demand = fixture
        caps = {"dc-pune": cap}
        with pytest.raises(SolverError, match="dc-pune"):
            ScenarioLP(placement, demand, dc_core_limits=caps)
        with pytest.raises(SolverError, match="dc-pune"):
            JointProvisioningLP(
                placement, demand,
                enumerate_scenarios(topo, max_link_scenarios=0),
                dc_core_limits=caps,
            )

    def test_slack_caps_change_nothing(self, fixture):
        topo, placement, demand = fixture
        plain = ScenarioLP(placement, demand).solve()
        capped = ScenarioLP(
            placement, demand,
            dc_core_limits={dc: 1e9 for dc in topo.fleet.ids},
        ).solve()
        assert capped.cost == pytest.approx(plain.cost)


class TestFacadePassthrough:
    """The background and core-limit extensions reach the Switchboard
    facade and the joint planner."""

    def test_switchboard_with_core_limits(self):
        import numpy as np

        from repro.config import PlannerConfig

        from repro.switchboard import Switchboard

        topo = Topology.small()
        configs = [CallConfig.build({"JP": 2}, MediaType.AUDIO)]
        demand = Demand(make_slots(1800.0, 1800.0), configs,
                        np.array([[20.0]]))
        plain = Switchboard(
            topo, config=PlannerConfig(max_link_scenarios=0)
        ).provision(
            demand, with_backup=False
        )
        host = max(plain.cores, key=plain.cores.get)
        limited = Switchboard(topo, config=PlannerConfig(
            max_link_scenarios=0,
            dc_core_limits={host: plain.cores[host] / 2},
        )).provision(demand, with_backup=False)
        assert limited.cores.get(host, 0.0) <= plain.cores[host] / 2 + 1e-6

    def test_switchboard_with_background_joint(self):
        import numpy as np

        from repro.switchboard import Switchboard

        topo = Topology.small()
        configs = [CallConfig.build({"JP": 2}, MediaType.AUDIO)]
        demand = Demand(make_slots(1800.0, 1800.0), configs,
                        np.array([[20.0]]))
        plain = Switchboard(
            topo, config=PlannerConfig(max_link_scenarios=0)
        ).provision(
            demand, with_backup=True
        )
        bg = BackgroundTraffic(
            {link_id: [3.0] for link_id in plain.link_gbps}, n_slots=1
        )
        loaded = Switchboard(topo, config=PlannerConfig(
            max_link_scenarios=0, background=bg
        )).provision(demand, with_backup=True)
        for link_id in plain.link_gbps:
            assert loaded.link_gbps[link_id] >= 3.0 - 1e-6
        assert loaded.cost(topo) > plain.cost(topo)
