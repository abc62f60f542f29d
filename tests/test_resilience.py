"""The solve supervisor, fault injection, and the degradation ladder."""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.config import PlannerConfig
from repro.core.errors import (
    InfeasibleError,
    SolverError,
    SolveTimeoutError,
)
from repro.core.types import CallConfig, MediaType, make_slots
from repro.obs.events import EventLog, Observability
from repro.provisioning import PlacementData, ScenarioLP
from repro.resilience import FaultPlan, SolveSupervisor
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand


@pytest.fixture(scope="module")
def small_world():
    topo = Topology.small()
    configs = [
        CallConfig.build({"JP": 2}, MediaType.AUDIO),
        CallConfig.build({"IN": 1, "HK": 1}, MediaType.VIDEO),
    ]
    demand = Demand(make_slots(2 * 1800.0, 1800.0), configs,
                    np.array([[20.0, 4.0], [10.0, 9.0]]))
    return topo, demand


def _fast(**overrides):
    """A config whose retries are instantaneous for test purposes."""
    base = dict(max_link_scenarios=0, retry_backoff_s=0.0, solve_retries=1)
    base.update(overrides)
    return PlannerConfig(**base)


class _Rng:
    """random()-compatible stub returning a fixed sequence."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


# ---------------------------------------------------------------------------
# SolveSupervisor
# ---------------------------------------------------------------------------

class TestSupervisor:
    def test_success_records_attempt_and_success(self):
        sup = SolveSupervisor(PlannerConfig())
        assert sup.run("lbl", lambda: 42) == 42
        kinds = [e.kind for e in sup.obs.events("solve")]
        assert kinds == ["solve.attempt", "solve.success"]
        assert sup.obs.counters.get("solve.retry") == 0

    def test_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise SolverError("transient")
            return "ok"

        sup = SolveSupervisor(PlannerConfig(solve_retries=2,
                                            retry_backoff_s=0.0))
        assert sup.run("lbl", flaky) == "ok"
        assert calls["n"] == 3
        assert sup.obs.counters.get("solve.retry") == 2
        assert sup.obs.counters.get("solve.error") == 2
        assert sup.obs.counters.get("solve.success") == 1

    def test_exhausted_retries_raise_last_error(self):
        sup = SolveSupervisor(PlannerConfig(solve_retries=1,
                                            retry_backoff_s=0.0))
        with pytest.raises(SolverError, match="always"):
            sup.run("lbl", lambda: (_ for _ in ()).throw(SolverError("always")))
        assert sup.obs.counters.get("solve.failure") == 1
        assert sup.obs.counters.get("solve.attempt") == 2

    def test_backoff_schedule_is_deterministic(self):
        slept = []
        sup = SolveSupervisor(
            PlannerConfig(solve_retries=3, retry_backoff_s=0.1),
            sleep=slept.append,
            rng=_Rng([0.0, 1.0, 0.5, 0.0]),
        )
        with pytest.raises(SolverError):
            sup.run("lbl", lambda: (_ for _ in ()).throw(SolverError("x")))
        # base·2^attempt · (1 + RETRY_BACKOFF_JITTER·rng), jitter 0.5:
        # 0.1·1·1.0, 0.1·2·1.5, 0.1·4·1.25
        assert slept == pytest.approx([0.1, 0.3, 0.5])

    def test_infeasible_is_never_retried(self):
        calls = {"n": 0}

        def infeasible():
            calls["n"] += 1
            raise InfeasibleError("no", diagnosis={"family": "test"})

        sup = SolveSupervisor(PlannerConfig(solve_retries=5,
                                            retry_backoff_s=0.0))
        with pytest.raises(InfeasibleError):
            sup.run("lbl", infeasible)
        assert calls["n"] == 1
        [event] = sup.obs.events("solve.infeasible")
        assert event.detail["diagnosis"] == {"family": "test"}

    def test_timeout_leaves_no_solver_running(self, small_world):
        topo, demand = small_world
        lp = ScenarioLP(PlacementData(topo, demand.configs), demand)

        def slow_solve():
            time.sleep(0.1)
            return lp.solve()

        sup = SolveSupervisor(PlannerConfig(solve_timeout_s=0.05,
                                            solve_retries=0))
        threads = threading.active_count()
        with pytest.raises(SolveTimeoutError, match="budget"):
            sup.run("slow", slow_solve)
        assert threading.active_count() == threads
        assert sup.obs.counters.get("solve.timeout") == 1

    def test_crash_fault_consumes_budget(self):
        plan = FaultPlan().crash("lbl", times=2)
        sup = SolveSupervisor(PlannerConfig(solve_retries=3,
                                            retry_backoff_s=0.0,
                                            fault_plan=plan))
        assert sup.run("lbl", lambda: "fine") == "fine"
        assert sup.obs.counters.get("fault.injected") == 2
        assert sup.obs.counters.get("solve.error") == 2
        assert len(plan) == 0

    def test_hang_fault_trips_the_real_timeout(self, small_world):
        topo, demand = small_world
        lp = ScenarioLP(PlacementData(topo, demand.configs), demand)
        plan = FaultPlan().hang("lbl", times=1)
        sup = SolveSupervisor(PlannerConfig(solve_timeout_s=0.5,
                                            solve_retries=1,
                                            retry_backoff_s=0.0,
                                            fault_plan=plan))
        assert sup.run("lbl", lp.solve).cost == pytest.approx(lp.solve().cost)
        assert sup.obs.counters.get("solve.timeout") == 1
        assert sup.obs.counters.get("solve.success") == 1


# ---------------------------------------------------------------------------
# FaultPlan / observability plumbing
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_target_substring_matching(self):
        plan = FaultPlan().crash("provision.joint", times=1)
        assert plan.take_solve_fault("provision.scenario[F_0]") is None
        assert plan.take_solve_fault("provision.joint").kind == "crash"
        assert plan.take_solve_fault("provision.joint") is None

    def test_topology_faults_fire_on_their_day(self):
        plan = (FaultPlan().dc_failure("dc-tokyo", at_day=3)
                .link_failure("link-a", at_day=5))
        assert plan.take_topology_faults(2) == []
        assert [s.dc for s in plan.take_topology_faults(3)] == ["dc-tokyo"]
        assert plan.take_topology_faults(3) == []
        assert [s.link for s in plan.take_topology_faults(5)] == ["link-a"]

    def test_plan_survives_pickling(self):
        plan = FaultPlan().crash("x", times=2).hang("y")
        clone = pickle.loads(pickle.dumps(plan))
        assert [s.describe() for s in clone.pending()] == \
            [s.describe() for s in plan.pending()]

    def test_event_log_order_and_prefix_matching(self):
        log = EventLog()
        log.record("solve.attempt", label="a")
        log.record("solve.success", label="a")
        log.record("ladder.fallback", label="joint")
        assert [e.seq for e in log.events()] == [0, 1, 2]
        assert len(log.events(kind="solve")) == 2
        assert log.events(kind="solve.attempt")[0].label == "a"
        # "solve" must match as a dotted prefix, not a raw substring
        log.record("solvent.weird")
        assert len(log.events(kind="solve")) == 2

    def test_observability_counts_every_event(self):
        obs = Observability()
        obs.record("a.b")
        obs.record("a.b")
        obs.record("a.c")
        assert obs.counters.get("a.b") == 2
        assert obs.counters.get("a.c") == 1
        assert obs.counters.get("missing") == 0


# ---------------------------------------------------------------------------
# The degradation ladder, end to end through Switchboard
# ---------------------------------------------------------------------------

class TestDegradationLadder:
    def test_no_faults_means_no_degradation(self, small_world):
        topo, demand = small_world
        sb = Switchboard(topo, config=_fast())
        plan = sb.provision(demand, with_backup=True)
        assert plan.method == "joint"
        assert plan.degradation_level == 0
        assert not plan.degraded
        assert plan.counter("ladder.degraded") == 0

    def test_joint_crash_falls_to_max(self, small_world):
        topo, demand = small_world
        faults = FaultPlan().crash("provision.joint", times=10)
        sb = Switchboard(topo, config=_fast(fault_plan=faults))
        plan = sb.provision(demand, with_backup=True)
        assert plan.method == "max"
        assert plan.degradation_level == 1
        assert plan.degraded
        [fallback] = plan.events("ladder.fallback")
        assert fallback.label == "joint"
        assert fallback.detail["next_rung"] == "max"

    def test_crash_budget_reaches_incremental(self, small_world):
        topo, demand = small_world
        # Joint burns 2 crashes, max's F0 scenario burns 2 more; the
        # budget is then dry so the incremental sweep succeeds.  (The max
        # sweep's threads would share an untargeted scenario budget.)
        faults = (FaultPlan().crash("provision.joint", times=2)
                  .crash("provision.scenario[F0]", times=2))
        sb = Switchboard(topo, config=_fast(fault_plan=faults))
        plan = sb.provision(demand, with_backup=True)
        assert plan.method == "incremental"
        assert plan.degradation_level == 2
        assert [e.label for e in plan.events("ladder.fallback")] == \
            ["joint", "max"]

    def test_persistent_crash_lands_on_locality(self, small_world):
        topo, demand = small_world
        faults = FaultPlan().crash("provision", times=1000)
        sb = Switchboard(topo, config=_fast(fault_plan=faults))
        plan = sb.provision(demand, with_backup=True)
        assert plan.method == "locality"
        assert plan.degradation_level == 3
        assert plan.total_cores() > 0
        assert plan.link_gbps
        assert [e.label for e in plan.events("ladder.fallback")] == \
            ["joint", "max", "incremental"]
        assert plan.counter("ladder.degraded") == 1

    def test_locality_backup_covers_single_dc_failure(self, small_world):
        topo, demand = small_world
        faults = FaultPlan().crash("provision", times=1000)
        sb = Switchboard(topo, config=_fast(fault_plan=faults))
        degraded = sb.provision(demand, with_backup=True)
        serving = sb.provision(demand, with_backup=False)
        # Conservative by construction: at least the serving peaks, plus
        # enough regional backup to absorb any single in-region failure.
        for dc_id, cores in serving.cores.items():
            assert degraded.cores.get(dc_id, 0.0) >= cores - 1e-9

    def test_without_backup_walk_is_serving_then_locality(self, small_world):
        topo, demand = small_world
        faults = FaultPlan().crash("provision", times=1000)
        sb = Switchboard(topo, config=_fast(fault_plan=faults))
        plan = sb.provision(demand, with_backup=False)
        assert plan.method == "locality"
        assert plan.degradation_level == 1
        assert plan.total_cores() > 0

    def test_ladder_starts_at_configured_method(self, small_world):
        topo, demand = small_world
        faults = FaultPlan().crash("provision.scenario", times=4)
        sb = Switchboard(topo, config=_fast(
            fault_plan=faults, backup_method="incremental",
        ))
        plan = sb.provision(demand, with_backup=True)
        # incremental's first scenario fails persistently; the walk can
        # only go *down* (to locality), never up to max or joint.
        assert plan.method == "locality"
        assert plan.degradation_level == 1

    def test_allocation_falls_back_to_locality(self, small_world):
        topo, demand = small_world
        sb = Switchboard(topo, config=_fast())
        capacity = sb.provision(demand, with_backup=True)
        faults = FaultPlan().crash("allocation", times=1000)
        degraded_sb = Switchboard(topo, config=_fast(fault_plan=faults))
        outcome = degraded_sb.allocate(demand, capacity)
        assert outcome.method == "locality"
        assert outcome.degradation_level == 1
        assert outcome.degraded
        assert outcome.plan.planned_calls() == pytest.approx(
            demand.total_calls()
        )

    def test_lp_allocation_reports_no_degradation(self, small_world):
        topo, demand = small_world
        sb = Switchboard(topo, config=_fast())
        capacity = sb.provision(demand, with_backup=True)
        outcome = sb.allocate(demand, capacity)
        assert outcome.method == "lp"
        assert not outcome.degraded


class TestPipelineResilience:
    def test_pipeline_survives_persistent_solver_crash(self, topology, trace):
        from repro.records.aggregation import ingest_trace
        from repro.records.database import CallRecordsDatabase
        from repro.switchboard import SwitchboardPipeline

        db = CallRecordsDatabase()
        ingest_trace(db, trace, topology, seed=13)
        faults = FaultPlan().crash("provision", times=1000)
        pipeline = SwitchboardPipeline(
            topology, top_config_fraction=0.2, season_length=8,
            config=_fast(fault_plan=faults),
        )
        result = pipeline.run(db, horizon_slots=8, with_backup=True)
        assert result.capacity.method == "locality"
        assert result.capacity.total_cores() > 0
        assert result.degraded
        assert result.degradation_level == 3
        assert result.allocation.plan.planned_calls() == pytest.approx(
            result.forecast_demand.total_calls()
        )
        # The full trail is queryable from the result itself.
        assert result.counter("solve.retry") > 0
        assert [e.label for e in result.events("ladder.fallback")] == \
            ["joint", "max", "incremental"]
        assert result.events("ladder.selected")[0].label == "locality"
