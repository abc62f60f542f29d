"""Shared fixtures: one small world, workload, and solved plans per session.

Expensive artifacts (topologies, demand matrices, LP solutions, traces)
are session-scoped: tests treat them as read-only inputs.  Anything a test
mutates must be built inside the test.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import settings

from repro.controller.columnar import build_event_batch, event_prefix
from repro.core.types import make_slots
from repro.core.units import DEFAULT_FREEZE_WINDOW_S
from repro.experiments.common import Scenario
from repro.provisioning import planner as planner_module
from repro.provisioning.demand import PlacementData
from repro.provisioning.planner import CapacityPlanner
from repro.config import PlannerConfig
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import DemandModel
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.media import MediaLoadModel
from repro.workload.trace import TraceGenerator

# `pytest --hypothesis-profile=ci` (the CI test job): the same examples on
# every run, so a red build is a reproducible one.
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def topology():
    """The full default world (24 countries, 15 DCs)."""
    return Topology.default()


@pytest.fixture(scope="session")
def small_topology():
    """The 3-DC Asia-Pacific world of the paper's running example."""
    return Topology.small()


@pytest.fixture(scope="session")
def load_model():
    return MediaLoadModel()


@pytest.fixture(scope="session")
def population(topology):
    return generate_population(topology.world, n_configs=60, seed=5)


@pytest.fixture(scope="session")
def demand_model(topology, population):
    return DemandModel(topology.world, population, DiurnalModel(),
                       calls_per_slot_at_peak=80.0)


@pytest.fixture(scope="session")
def day_slots():
    return make_slots(86400.0)


@pytest.fixture(scope="session")
def expected_demand(demand_model, day_slots):
    return demand_model.expected(day_slots)


@pytest.fixture(scope="session")
def sampled_demand(demand_model, day_slots):
    return demand_model.sample(day_slots, seed=6)


@pytest.fixture(scope="session")
def trace(sampled_demand):
    return TraceGenerator(seed=7).generate(sampled_demand)


@pytest.fixture(scope="session")
def service_day(topology):
    """The serving tests' sampled day: 40 configs, 40 calls per peak slot."""
    return Scenario.build(topology, n_configs=40, calls_per_slot=40.0, seed=7)


@pytest.fixture(scope="session")
def cut_load(service_day):
    """``cut_load(n)``: the day's leading whole calls reaching ``n`` events,
    with their event batch and the freeze-time demand of exactly those
    calls (what the plan they are served against is built from)."""
    def cut(target_events):
        trace = event_prefix(service_day.columnar_trace, target_events)
        batch = build_event_batch(trace)
        return SimpleNamespace(
            columnar=trace, batch=batch,
            demand=trace.to_demand(freeze_after_s=DEFAULT_FREEZE_WINDOW_S),
            n_calls=trace.n_calls, n_events=len(batch),
            freeze_window_s=DEFAULT_FREEZE_WINDOW_S)
    return cut


@pytest.fixture(scope="session")
def placement(topology, expected_demand, load_model):
    return PlacementData(topology, expected_demand.configs, load_model)


@pytest.fixture(scope="session")
def serving_plan(placement, expected_demand):
    """The no-failure (serving-only) Switchboard capacity plan."""
    return CapacityPlanner(placement, expected_demand).plan_without_backup()


@pytest.fixture(scope="session")
def switchboard(topology, load_model):
    return Switchboard(topology, load_model,
                       config=PlannerConfig(max_link_scenarios=0))


@pytest.fixture
def four_threads(monkeypatch):
    """The max sweep on four threads, whatever the machine's CPU count."""
    monkeypatch.setattr(planner_module, "usable_cpus", lambda: 4)
