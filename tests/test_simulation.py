"""Tests for the multi-day service simulator."""

import pytest

from repro.allocation.realtime import RealTimeSelector
from repro.core.errors import SwitchboardError
from repro.core.units import DEFAULT_FREEZE_WINDOW_S
from repro.resilience.faults import FaultPlan
from repro.simulation import ServiceSimulator, SimulationReport
from repro.workload import DemandModel, generate_population


@pytest.fixture(scope="module")
def simulator_report(topology):
    population = generate_population(topology.world, n_configs=30, seed=3)
    model = DemandModel(topology.world, population, calls_per_slot_at_peak=25.0)
    simulator = ServiceSimulator(
        topology, model, bootstrap_days=3, reprovision_every=2, seed=5
    )
    return simulator, simulator.run(n_days=6)


class TestServiceSimulator:
    def test_day_count_and_order(self, simulator_report):
        _, report = simulator_report
        assert [d.day for d in report.days] == list(range(6))

    def test_bootstrap_days_have_no_plan(self, simulator_report):
        _, report = simulator_report
        for day in report.days[:3]:
            assert day.unplanned_rate == 1.0
            assert day.capacity_cost == 0.0
            assert not day.reprovisioned

    def test_first_operational_day_reprovisions(self, simulator_report):
        _, report = simulator_report
        assert report.days[3].reprovisioned
        assert report.days[3].capacity_cost > 0

    def test_reprovision_cadence(self, simulator_report):
        _, report = simulator_report
        flags = [d.reprovisioned for d in report.days[3:]]
        assert flags == [True, False, True]

    def test_migrations_stay_low(self, simulator_report):
        _, report = simulator_report
        assert report.overall_migration_rate < 0.1

    def test_acl_reasonable_every_day(self, simulator_report):
        _, report = simulator_report
        for day in report.days:
            if day.n_calls:
                assert 0 < day.mean_acl_ms < 120.0

    def test_records_accumulate(self, simulator_report):
        simulator, report = simulator_report
        assert len(simulator.db) == report.total_calls

    def test_summary_renders(self, simulator_report):
        _, report = simulator_report
        text = report.summary()
        assert "total" in text
        assert str(report.total_calls) in text

    def test_invalid_parameters(self, topology):
        population = generate_population(topology.world, n_configs=10, seed=3)
        model = DemandModel(topology.world, population,
                            calls_per_slot_at_peak=10.0)
        with pytest.raises(SwitchboardError):
            ServiceSimulator(topology, model, bootstrap_days=0)
        with pytest.raises(SwitchboardError):
            ServiceSimulator(topology, model, reprovision_every=0)
        simulator = ServiceSimulator(topology, model, bootstrap_days=3)
        with pytest.raises(SwitchboardError):
            simulator.run(n_days=3)  # must exceed bootstrap

    @pytest.mark.parametrize("faults", [
        FaultPlan().dc_failure("dc-tokyo", at_day=4),
        FaultPlan().crash("provision").link_failure("link-a", at_day=4),
    ], ids=["dc_failure", "link_failure"])
    def test_topology_faults_are_refused(self, topology, faults):
        """Every day is served on the full topology, so an outage in the
        fault plan is an error, not a silently skipped drill."""
        from repro.config import PlannerConfig

        population = generate_population(topology.world, n_configs=10, seed=3)
        model = DemandModel(topology.world, population,
                            calls_per_slot_at_peak=10.0)
        config = PlannerConfig(max_link_scenarios=0, fault_plan=faults)
        with pytest.raises(SwitchboardError, match="cannot inject"):
            ServiceSimulator(topology, model, planner_config=config)

    def test_solve_faults_are_accepted(self, topology):
        from repro.config import PlannerConfig

        population = generate_population(topology.world, n_configs=10, seed=3)
        model = DemandModel(topology.world, population,
                            calls_per_slot_at_peak=10.0)
        config = PlannerConfig(max_link_scenarios=0,
                               fault_plan=FaultPlan().crash("provision"))
        ServiceSimulator(topology, model, planner_config=config)

    def test_empty_report_migration_rate_raises(self):
        with pytest.raises(SwitchboardError):
            SimulationReport().overall_migration_rate


class _ProcessTraceReference(ServiceSimulator):
    """The per-day oracle: the selector replays the trace in process."""

    def _serve_day(self, plan, trace):
        selector = RealTimeSelector(self.topology, plan,
                                    DEFAULT_FREEZE_WINDOW_S)
        selector.process_trace(trace.to_trace().calls)
        return selector.stats


class TestServiceBackedSimulation:
    def test_service_path_matches_replay_path_per_day(self, topology):
        """Every operational day goes through the full admission engine
        (sharded KV state, event stream); on one worker it must
        reproduce ``process_trace``'s per-day stats exactly."""
        from repro.config import PlannerConfig, ServiceConfig

        population = generate_population(topology.world, n_configs=30, seed=3)
        model = DemandModel(topology.world, population,
                            calls_per_slot_at_peak=25.0)
        config = PlannerConfig(max_link_scenarios=0,
                               service=ServiceConfig(n_shards=4))
        kwargs = dict(bootstrap_days=3, reprovision_every=2, seed=5,
                      planner_config=config)
        replayed = _ProcessTraceReference(topology, model,
                                          **kwargs).run(n_days=5)
        served = ServiceSimulator(topology, model, **kwargs).run(n_days=5)

        assert len(served.days) == len(replayed.days)
        for expected, got in zip(replayed.days, served.days):
            assert got.n_calls == expected.n_calls
            assert got.migration_rate == expected.migration_rate
            assert got.unplanned_rate == expected.unplanned_rate
            assert got.mean_acl_ms == pytest.approx(expected.mean_acl_ms)

    def test_service_config_validation(self):
        from repro.config import ServiceConfig

        with pytest.raises(SwitchboardError):
            ServiceConfig(n_shards=0)
        with pytest.raises(SwitchboardError):
            ServiceConfig(n_workers=0)
        with pytest.raises(SwitchboardError):
            ServiceConfig(kv_latency_median_ms=-1.0)
        config = ServiceConfig()
        assert config.but(n_workers=4).n_workers == 4
        assert config.n_workers == 1
