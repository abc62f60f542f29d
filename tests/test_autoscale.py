"""Closed-loop autoscaling: telemetry, policy, ledger drain, convergence.

Also pins the telemetry-correctness sweep that rode along with the
autoscaler: empty-percentile semantics (None + count, never a fake
"perfect" 0.0) and degenerate report denominators.
"""

import numpy as np
import pytest

from repro.core.errors import CapacityError, SwitchboardError
from repro.core.types import CallConfig, MediaType, make_slots
from repro.allocation.plan import AllocationPlan
from repro.allocation.realtime import KVSlotLedger, LocalSlotLedger
from repro.autoscale import (
    Autoscaler,
    AutoscalePolicy,
    ServiceSnapshot,
    TelemetryAggregator,
    TelemetryWindow,
)
from repro.autoscale.controller import PROVISION_HORIZON_SLOTS
from repro.autoscale.policy import MAX_SCALE, MIN_SCALE
from repro.config import AutoscaleConfig, PackingConfig, PlannerConfig
from repro.controller.columnar import build_event_batch
from repro.kvstore import InMemoryKVStore
from repro.obs import LatencyHistogram, percentiles_ms
from repro.packing import build_packing
from repro.service import ServiceReport, ServiceRuntime
from repro.switchboard import PipelineResult, Switchboard, SwitchboardPipeline
from repro.workload.arrivals import Demand, DemandModel
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.trace import TraceGenerator

FREEZE_S = 300.0
SLOT_S = 1800.0


# ----------------------------------------------------------------------
# telemetry-correctness sweep (the bugfix satellites)
# ----------------------------------------------------------------------
class TestEmptyPercentiles:
    def test_empty_is_none_not_zero(self):
        pcts = percentiles_ms([])
        assert pcts == {"p50": None, "p95": None, "p99": None, "count": 0}

    def test_count_always_present(self):
        pcts = percentiles_ms([3.0, 1.0])
        assert pcts["count"] == 2
        assert pcts["p50"] == 1.0

    def test_histogram_tail_since(self):
        hist = LatencyHistogram()
        hist.record(1.0)
        hist.record(2.0)
        mark = len(hist)
        assert hist.tail_since(mark)["count"] == 0
        assert hist.tail_since(mark)["p50"] is None
        hist.record(10.0)
        window = hist.tail_since(mark)
        assert window["count"] == 1
        assert window["p50"] == 10.0
        # Full-history view unaffected.
        assert hist.percentiles()["count"] == 3

    def test_empty_report_renders_na(self):
        report = ServiceReport(n_workers=1, n_shards=1,
                               admission_latency_ms=percentiles_ms([]),
                               kv_latency_ms=percentiles_ms([]))
        text = report.summary()
        assert "p50=n/a" in text
        assert "migration rate n/a" in text
        assert "0.00" not in text.split("admission latency")[1].split("\n")[0]

    def test_report_to_dict_degenerate_denominators(self):
        report = ServiceReport(n_workers=1, n_shards=1)
        d = report.to_dict()
        assert d["migration_rate"] is None
        assert d["mean_acl_ms"] is None
        report.admitted_calls = 10
        report.migration_rate = 0.1
        report.mean_acl_ms = 50.0
        d = report.to_dict()
        assert d["migration_rate"] == 0.1
        assert d["mean_acl_ms"] == 50.0


# ----------------------------------------------------------------------
# ledger growth/drain primitives
# ----------------------------------------------------------------------
CONFIG = CallConfig.build({"JP": 2}, MediaType.AUDIO)


class TestLedgerSlots:
    def _check_grow_and_drain(self, ledger):
        # Growing a cell the plan never had marks it planned.
        ledger.add_slots(0, CONFIG, "dc-a", 3)
        assert ledger.try_debit(0, CONFIG, "dc-a")  # a call settles
        # Drain can only take the two *free* slots, never the settled one.
        assert ledger.remove_slots(0, CONFIG, "dc-a", 5) == 2
        assert not ledger.try_debit(0, CONFIG, "dc-a")
        # The settled call's credit path still works after the drain.
        ledger.credit(0, CONFIG, "dc-a")
        assert ledger.try_debit(0, CONFIG, "dc-a")

    def test_local_ledger(self):
        self._check_grow_and_drain(LocalSlotLedger({}))

    def test_kv_ledger(self):
        self._check_grow_and_drain(KVSlotLedger(InMemoryKVStore()))

    def test_kv_grown_cell_reads_planned(self):
        ledger = KVSlotLedger(InMemoryKVStore())
        assert ledger.snapshot(4, CONFIG) is None  # unknown -> fallback
        ledger.add_slots(4, CONFIG, "dc-a", 1)
        ledger.remove_slots(4, CONFIG, "dc-a", 1)
        # Exhausted but *planned*: overflow semantics, not fallback.
        assert ledger.snapshot(4, CONFIG) == {"dc-a": 0}

    def test_local_add_negative_raises(self):
        with pytest.raises(CapacityError):
            LocalSlotLedger({}).add_slots(0, CONFIG, "dc-a", -1)

    def test_fleet_ledger_passthrough(self):
        ledger, _ = build_packing({"dc-a": 64.0}, PackingConfig(
            defrag_interval_s=None))
        ledger.load_plan(AllocationPlan(
            slots=make_slots(3600.0, 1800.0),
            shares={(0, CONFIG): {"dc-a": 0.0}}))
        ledger.add_slots(0, CONFIG, "dc-a", 2)
        assert ledger.slot_ledger.snapshot(0, CONFIG) == {"dc-a": 2}
        assert ledger.remove_slots(0, CONFIG, "dc-a", 9) == 2
        assert ledger.slot_ledger.snapshot(0, CONFIG) == {"dc-a": 0}


# ----------------------------------------------------------------------
# telemetry aggregation
# ----------------------------------------------------------------------
def _window(**kw) -> TelemetryWindow:
    defaults = dict(index=0, t_start_s=0.0, t_end_s=1800.0, generated=100,
                    admitted=95, migrated=3, overflowed=2, unplanned=0,
                    forecast_calls=100.0, cumulative_generated=100,
                    cumulative_forecast=100.0)
    defaults.update(kw)
    return TelemetryWindow(**defaults)


def _ratio(ratio: float) -> dict:
    """Window fields whose cumulative observed/forecast ratio (the
    policy's estimate) is ``ratio``."""
    return dict(cumulative_generated=round(100 * ratio),
                cumulative_forecast=100.0)


class TestTelemetryAggregator:
    def _agg(self, interval=100.0):
        return TelemetryAggregator(
            slot_starts=np.array([0.0, 100.0, 200.0, 300.0]),
            slot_duration_s=100.0,
            forecast_per_slot=np.array([10.0, 10.0, 20.0, 40.0]),
            interval_s=interval)

    def test_windows_close_on_interval(self):
        agg = self._agg()
        first = agg.add(ServiceSnapshot(t_s=95.0, generated=8, admitted=8))
        assert first is not None
        assert first.generated == 8
        assert first.forecast_calls == pytest.approx(9.5)
        second = agg.add(ServiceSnapshot(t_s=195.0, generated=20,
                                         admitted=19, overflowed=1))
        assert second.index == 1
        assert second.generated == 12
        assert second.overflowed == 1
        assert second.cumulative_generated == 20

    def test_sub_interval_snapshots_accumulate(self):
        agg = self._agg(interval=200.0)
        assert agg.add(ServiceSnapshot(t_s=95.0, generated=5)) is None
        window = agg.add(ServiceSnapshot(t_s=190.0, generated=12))
        assert window is not None
        assert window.generated == 12

    def test_degenerate_denominators_are_none(self):
        window = _window(generated=0, forecast_calls=0.0,
                         cumulative_forecast=0.0)
        assert window.overflow_pressure is None
        assert window.demand_ratio is None
        assert window.cumulative_ratio is None
        assert window.utilization is None

    def test_remaining_forecast_peak(self):
        agg = self._agg()
        assert agg.remaining_forecast_peak(150.0) == 40.0
        assert agg.remaining_forecast_peak(350.0) is None

    def test_validation(self):
        with pytest.raises(SwitchboardError):
            TelemetryAggregator(slot_starts=np.array([0.0]),
                                slot_duration_s=100.0,
                                forecast_per_slot=np.array([1.0, 2.0]),
                                interval_s=100.0)


# ----------------------------------------------------------------------
# policy hysteresis
# ----------------------------------------------------------------------
class TestAutoscalePolicy:
    def test_perfect_forecast_holds(self):
        policy = AutoscalePolicy(AutoscaleConfig())
        for i in range(10):
            decision = policy.decide(_window(index=i))
            assert decision.action == "hold"
        assert policy.current_scale == 1.0

    def test_overflow_pressure_forces_scale_out(self):
        policy = AutoscalePolicy(AutoscaleConfig())
        window = _window(generated=100, admitted=70, migrated=0,
                         overflowed=30, forecast_calls=50.0)
        decision = policy.decide(window)
        assert decision.action == "scale_out"
        # Sized to the instantaneous ratio (2.0) plus headroom.
        assert decision.target_scale == pytest.approx(2.2)

    def test_cooldown_after_commit(self):
        policy = AutoscalePolicy(AutoscaleConfig())
        assert policy.decide(_window(**_ratio(2.0))).action == "scale_out"
        decision = policy.decide(_window(**_ratio(3.0)))
        assert decision.action == "hold"
        assert "cooldown" in decision.reason

    def test_scale_down_needs_patience(self):
        policy = AutoscalePolicy(AutoscaleConfig(scale_down_patience=2))
        quiet = dict(generated=40, admitted=40, migrated=0, overflowed=0,
                     forecast_calls=100.0, cumulative_generated=40,
                     cumulative_forecast=100.0)
        assert policy.decide(_window(**quiet)).action == "hold"
        decision = policy.decide(_window(**quiet))
        assert decision.action == "scale_down"
        assert decision.target_scale == pytest.approx(0.44)

    def test_in_band_window_resets_patience(self):
        policy = AutoscalePolicy(AutoscaleConfig(scale_down_patience=2))
        quiet = dict(generated=40, admitted=40, migrated=0, overflowed=0,
                     forecast_calls=100.0, cumulative_generated=40,
                     cumulative_forecast=100.0)
        policy.decide(_window(**quiet))
        policy.decide(_window())           # back in band -> streak resets
        assert policy.decide(_window(**quiet)).action == "hold"

    def test_target_clamped_to_bounds(self):
        policy = AutoscalePolicy(AutoscaleConfig(scale_down_patience=1))
        up = policy.decide(_window(**_ratio(50.0)))
        assert up.target_scale == MAX_SCALE
        # One window of cooldown, then the collapse.
        assert policy.decide(_window(**_ratio(0.01))).action == "hold"
        down = policy.decide(_window(**_ratio(0.01)))
        assert down.action == "scale_down"
        assert down.target_scale == MIN_SCALE

    def test_oscillating_demand_bounded_by_hysteresis(self):
        policy = AutoscalePolicy(AutoscaleConfig(scale_down_patience=2))
        rescales = 0
        for i in range(40):
            ratio = 2.0 if i % 2 == 0 else 0.5
            decision = policy.decide(_window(index=i, **_ratio(ratio)))
            if decision.action != "hold":
                rescales += 1
        # Cooldown + deadband + patience: alternating windows cannot
        # thrash the plan every interval.
        assert rescales <= 3
        # And alternation never satisfies scale-down patience at all.
        assert policy.current_scale >= 1.0


# ----------------------------------------------------------------------
# closed loop against the real engine
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def loop_world(topology):
    population = generate_population(topology.world, n_configs=6, seed=5)
    model = DemandModel(topology.world, population, DiurnalModel(),
                        calls_per_slot_at_peak=120.0)
    slots = make_slots(6 * 3600.0, SLOT_S)  # 12 slots, 12 windows
    return topology, model.expected(slots)


def _provision(topology, demand):
    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(demand, with_backup=False)
    plan = controller.allocate(demand, capacity).plan
    return controller, capacity, plan


def _events(demand, seed):
    trace = TraceGenerator(seed=seed).generate_columnar(demand)
    return build_event_batch(trace, FREEZE_S)


class TestClosedLoop:
    def test_perfect_forecast_is_a_no_op(self, loop_world):
        """The realized day matches the forecast: the loop must watch,
        never act — zero rescale events, zero plan mutations."""
        topo, base = loop_world
        controller, capacity, plan = _provision(topo, base.scale(1.25))
        rescaler = Autoscaler(controller, base, plan,
                              config=AutoscaleConfig(), capacity=capacity)
        runtime = ServiceRuntime.from_config(
            topo, plan, freeze_window_s=FREEZE_S, rescaler=rescaler)
        report = runtime.run(_events(base, seed=3))
        report.require_exact_accounting()
        assert report.rescale_events == 0
        assert rescaler.slots_added == 0
        assert rescaler.slots_drained == 0
        metrics = rescaler.autoscale_metrics()
        assert metrics["windows"] > 0
        assert all(d["action"] == "hold" for d in metrics["decisions"])
        # The rolling capacity refresh still tracked the demand curve.
        assert metrics["capacity_core_hours"] > 0

    def test_scale_down_drains_without_dropping_calls(self, loop_world):
        """A quiet day under a full-size plan: the loop shrinks, the
        drain takes only free slots, accounting stays exact."""
        topo, base = loop_world
        controller, capacity, plan = _provision(topo, base)
        quiet = Demand(base.slots, base.configs, base.counts * 0.3)
        rescaler = Autoscaler(controller, base, plan,
                              config=AutoscaleConfig(), capacity=capacity)
        runtime = ServiceRuntime.from_config(
            topo, plan, freeze_window_s=FREEZE_S, rescaler=rescaler)
        report = runtime.run(_events(quiet, seed=4))
        report.require_exact_accounting()
        metrics = rescaler.autoscale_metrics()
        assert metrics["scale_downs"] >= 1
        assert metrics["slots_drained"] > 0
        # The drain-safety contract: a drain never touches a slot a
        # settled call holds.
        assert metrics["drain_shortfall"] == 0
        assert metrics["final_scale"] < 1.0

    def test_noisy_demand_oscillation_is_bounded(self, loop_world):
        topo, base = loop_world
        controller, capacity, plan = _provision(topo, base.scale(1.25))
        rng = np.random.default_rng(6)
        noisy = Demand(base.slots, base.configs,
                       rng.poisson(base.counts).astype(float))
        rescaler = Autoscaler(controller, base, plan,
                              config=AutoscaleConfig(), capacity=capacity)
        runtime = ServiceRuntime.from_config(
            topo, plan, freeze_window_s=FREEZE_S, rescaler=rescaler)
        report = runtime.run(_events(noisy, seed=7))
        report.require_exact_accounting()
        metrics = rescaler.autoscale_metrics()
        windows = metrics["windows"]
        assert windows > 0
        # Cooldown structurally bounds rescales to every other window.
        assert metrics["rescale_events"] <= (windows + 1) // 2
        assert MIN_SCALE <= metrics["final_scale"] <= MAX_SCALE

    def test_report_carries_autoscale_block(self, loop_world):
        topo, base = loop_world
        controller, capacity, plan = _provision(topo, base)
        surprise = Demand(base.slots, base.configs, base.counts * 1.6)
        rescaler = Autoscaler(controller, base, plan,
                              config=AutoscaleConfig(), capacity=capacity)
        runtime = ServiceRuntime.from_config(
            topo, plan, freeze_window_s=FREEZE_S, rescaler=rescaler)
        report = runtime.run(_events(surprise, seed=8))
        report.require_exact_accounting()
        assert report.rescale_events > 0
        assert report.autoscale["scale_ups"] >= 1
        assert report.to_dict()["autoscale"]["rescale_events"] == \
            report.rescale_events
        assert "autoscale:" in report.summary()

    def test_pipeline_hook_builds_autoscaler(self, loop_world):
        topo, base = loop_world
        controller, capacity, plan = _provision(topo, base)
        outcome = controller.allocate(base, capacity)
        result = PipelineResult(top_configs=list(base.configs), cushion=1.25,
                                forecast_demand=base, capacity=capacity,
                                allocation=outcome, obs=controller.obs)
        autoscale = AutoscaleConfig(interval_s=900.0)
        pipeline = SwitchboardPipeline(topo, config=PlannerConfig(
            max_link_scenarios=0, autoscale=autoscale))
        rescaler = pipeline.autoscaler(result)
        assert isinstance(rescaler, Autoscaler)
        assert rescaler.config.interval_s == 900.0
        # Explicit config overrides the planner config's.
        override = pipeline.autoscaler(
            result, config=AutoscaleConfig(interval_s=600.0))
        assert override.config.interval_s == 600.0


class _ColdController:
    """A fresh :class:`Switchboard` per call: every LP the loop solves is
    assembled and solved cold, and each rescale's allocation LP is a fresh
    assembly of its tail rather than a slice of the forecast's."""

    def __init__(self, topology, config):
        self.topology = topology
        self.config = config

    def provision(self, demand, with_backup=True):
        return Switchboard(self.topology, config=self.config).provision(
            demand, with_backup=with_backup)

    def allocate(self, demand, capacity):
        return Switchboard(self.topology, config=self.config).allocate(
            demand, capacity)

    def allocation_lp(self, demand):
        return Switchboard(self.topology, config=self.config).allocation_lp(
            demand)

    def allocate_tail(self, allocation, capacity, k=0, scale=1.0):
        return self.allocate(allocation.tail(k, scale), capacity)


@pytest.fixture(scope="module")
def surge_day(small_topology):
    """A full small-topology day whose first quarter runs 0.4x the
    forecast and the rest 1.8x: the loop scales in, then out."""
    population = generate_population(small_topology.world, n_configs=6,
                                     seed=5)
    model = DemandModel(small_topology.world, population, DiurnalModel(),
                        calls_per_slot_at_peak=40.0)
    base = model.expected(make_slots(86400.0, SLOT_S))
    factor = np.where(np.arange(base.n_slots) < base.n_slots // 4, 0.4, 1.8)
    actual = Demand(base.slots, base.configs, base.counts * factor[:, None])
    return small_topology, base, _events(actual, seed=9)


def _serve_loop(surge_day, controller):
    """Plan the forecast, then serve the surge day with the loop bound."""
    topo, base, events = surge_day
    capacity = controller.provision(base, with_backup=False)
    plan = controller.allocate(base, capacity).plan
    rescaler = Autoscaler(controller, base, plan, config=AutoscaleConfig(),
                          capacity=capacity)
    report = ServiceRuntime.from_config(
        topo, plan, freeze_window_s=FREEZE_S, rescaler=rescaler).run(events)
    report.require_exact_accounting()
    return rescaler, report


@pytest.fixture(scope="module")
def warm_loop(surge_day):
    controller = Switchboard(surge_day[0],
                             config=PlannerConfig(max_link_scenarios=0))
    rescaler, report = _serve_loop(surge_day, controller)
    return controller, rescaler, report


class TestWarmCacheUnderTheLoop:
    """The controller's one warm cache serves every refresh and rescale."""

    def test_warm_loop_acts_as_a_cold_one(self, surge_day, warm_loop):
        _, warm, warm_report = warm_loop
        cold, cold_report = _serve_loop(surge_day, _ColdController(
            surge_day[0], PlannerConfig(max_link_scenarios=0)))
        metrics = warm.autoscale_metrics()
        assert metrics.pop("warmstart")["hits"] > 0
        assert "warmstart" not in cold.autoscale_metrics()
        assert metrics == cold.autoscale_metrics()
        assert metrics["scale_ups"] >= 1 and metrics["scale_downs"] >= 1

        def calls(report):
            return (report.generated_calls, report.admitted_calls,
                    report.overflowed_calls, report.migrated_calls,
                    report.rescale_events)

        assert calls(warm_report) == calls(cold_report)

    def test_rolling_refreshes_hit(self, warm_loop):
        """Every full-horizon refresh after the first re-prices the
        previous window's LP."""
        _, rescaler, _ = warm_loop
        metrics = rescaler.autoscale_metrics()
        assert (metrics["warmstart"]["hits"]
                >= metrics["windows"] - PROVISION_HORIZON_SLOTS)

    def test_a_day_keeps_a_bounded_cache(self, surge_day, warm_loop):
        controller, _, _ = warm_loop
        base = surge_day[1]
        assert controller.warmstart_stats()["entries"] <= (
            base.n_slots + PROVISION_HORIZON_SLOTS)

    def test_warmstart_block_counts_one_run(self, surge_day):
        """A replay on the same controller reports its own lookups, not
        the first run's: it misses nothing."""
        controller = Switchboard(surge_day[0],
                                 config=PlannerConfig(max_link_scenarios=0))
        once = _serve_loop(surge_day, controller)[1].autoscale["warmstart"]
        again = _serve_loop(surge_day, controller)[1].autoscale["warmstart"]
        assert once["misses"] > 0 and again["misses"] == 0
        assert again["hits"] == once["hits"] + once["misses"]
        assert controller.warmstart_stats()["hits"] > again["hits"]


class TestAutoscaleConfigValidation:
    def test_defaults_valid(self):
        config = AutoscaleConfig()
        assert config.interval_s == 1800.0
        assert config.but(headroom=0.5).headroom == 0.5

    @pytest.mark.parametrize("kw", [
        {"interval_s": 0.0},
        {"headroom": -0.5},
        {"scale_down_patience": 0},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(SwitchboardError):
            AutoscaleConfig(**kw)
