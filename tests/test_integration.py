"""Cross-module integration tests: the full production loop.

These walk the system the way the paper's Fig 6 wires it: synthetic calls
-> records database -> latency estimation -> forecasts -> provisioning ->
daily allocation -> real-time selection -> the serving core, asserting
global invariants at each hand-off.
"""

import pytest

from repro.allocation.realtime import RealTimeSelector
from repro.controller.columnar import build_event_batch
from repro.core.types import make_slots
from repro.provisioning.demand import PlacementData
from repro.provisioning.failures import FailureScenario
from repro.provisioning.formulation import ScenarioLP
from repro.provisioning.planner import CapacityPlan
from repro.records.aggregation import demand_from_database, ingest_trace
from repro.records.database import CallRecordsDatabase
from repro.config import PlannerConfig, ServiceConfig
from repro.service import ServiceRuntime
from repro.switchboard import Switchboard, SwitchboardPipeline
from repro.workload.arrivals import DemandModel
from repro.workload.columnar import ColumnarTrace
from repro.workload.configs import generate_population
from repro.workload.trace import TraceGenerator


@pytest.fixture(scope="module")
def world(topology):
    population = generate_population(topology.world, n_configs=30, seed=41)
    model = DemandModel(topology.world, population, calls_per_slot_at_peak=40.0)
    sampled = model.sample(make_slots(86400.0), seed=42)
    trace = TraceGenerator(seed=43).generate(sampled)
    return topology, trace


class TestRecordsToProvisioning:
    def test_full_loop_via_pipeline(self, world):
        topology, trace = world
        db = CallRecordsDatabase()
        ingest_trace(db, trace, topology, seed=44)

        pipeline = SwitchboardPipeline(
            topology, top_config_fraction=0.3, season_length=8,
            config=PlannerConfig(max_link_scenarios=0),
        )
        result = pipeline.run(db, horizon_slots=12, with_backup=True)

        # The provisioned capacity must host the pipeline's own forecast.
        controller = Switchboard(topology, config=PlannerConfig(max_link_scenarios=0))
        outcome = controller.allocate(result.forecast_demand, result.capacity)
        assert not outcome.overflowed

    def test_records_demand_feeds_provisioning(self, world):
        topology, trace = world
        db = CallRecordsDatabase()
        ingest_trace(db, trace, topology, seed=44)
        demand = demand_from_database(db, db.top_configs(0.5))

        controller = Switchboard(topology, config=PlannerConfig(max_link_scenarios=0))
        capacity = controller.provision(demand, with_backup=False)
        outcome = controller.allocate(demand, capacity)
        assert not outcome.overflowed
        assert outcome.plan.planned_calls() == pytest.approx(demand.total_calls())


class TestProvisionToRealtime:
    @pytest.fixture(scope="class")
    def plan_and_trace(self, world):
        topology, trace = world
        demand = trace.to_demand(freeze_after_s=300.0)
        controller = Switchboard(topology, config=PlannerConfig(max_link_scenarios=0))
        capacity = controller.provision(demand, with_backup=True)
        cushioned = CapacityPlan(
            cores={dc: 1.25 * v for dc, v in capacity.cores.items()},
            link_gbps={l: 1.25 * v for l, v in capacity.link_gbps.items()},
        )
        plan = controller.allocate(demand, cushioned).plan
        return topology, trace, plan

    def test_selector_handles_every_call(self, plan_and_trace):
        topology, trace, plan = plan_and_trace
        selector = RealTimeSelector(topology, plan)
        outcomes = selector.process_trace(trace.calls)
        assert len(outcomes) == len(trace)
        assert selector.stats.calls == len(trace)

    def test_migrations_stay_low(self, plan_and_trace):
        topology, trace, plan = plan_and_trace
        selector = RealTimeSelector(topology, plan)
        selector.process_trace(trace.calls)
        assert selector.stats.migration_rate < 0.15

    def test_controller_replay_matches_selector_counts(self, plan_and_trace):
        topology, trace, plan = plan_and_trace
        batch = build_event_batch(ColumnarTrace.from_trace(trace))
        runtime = ServiceRuntime.from_config(
            topology, plan, ServiceConfig(executor="thread", n_workers=4))
        report = runtime.run(batch)
        report.require_exact_accounting()
        assert report.generated_calls == len(trace)
        assert report.ended_calls == len(trace)
        assert report.events_processed == len(batch)
        # All per-call state was cleaned up.
        loads = {key: value for key, value in runtime.store_state().items()
                 if key.startswith("dcload:")}
        assert loads and not any(loads.values())


class TestFailureCoverage:
    def test_backup_plan_survives_every_dc_failure(self, world):
        """Eqs 7-8's guarantee: the combined plan hosts the demand under
        any single-DC failure with zero extra capacity."""
        topology, trace = world
        demand = trace.to_demand()
        controller = Switchboard(topology, config=PlannerConfig(max_link_scenarios=0))
        capacity = controller.provision(demand, with_backup=True)
        placement = PlacementData(topology, demand.configs)
        for dc_id in topology.fleet.ids:
            result = ScenarioLP(
                placement, demand,
                FailureScenario(f"f:{dc_id}", failed_dc=dc_id),
                base_cores=capacity.cores, base_links=capacity.link_gbps,
            ).solve()
            assert sum(result.excess_cores.values()) == pytest.approx(0.0, abs=1e-4)
            assert sum(result.excess_links.values()) == pytest.approx(0.0, abs=1e-4)
