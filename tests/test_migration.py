"""Tests for live cross-DC call migration and drain (``repro.migrate``).

Covers the fault-plan recovery extensions, the live-call registry, the
backup-placement planner, the drain executor (activation, heal, move
budget, disruption, deferred autoscale drains), ``relocate_call``
semantics on the fleet ledger, ledger invariants under
concurrent migration + admission, the report-schema pin, and
thread/process parity of the DC-loss drill.
"""

import threading
import types

import pytest

from repro.allocation.plan import AllocationPlan
from repro.config import MigrationConfig
from repro.core.errors import SwitchboardError
from repro.core.types import CallConfig, MediaType, make_slots
from repro.core.units import to_microcores
from repro.experiments import fig_migration
from repro.migrate import (
    CallRegistry,
    DrainOrder,
    MigrationExecutor,
    MigrationPlanner,
)
from repro.packing import FleetLedger, make_policy
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.service.report import REPORT_SCHEMA_VERSION, ServiceReport
from repro.topology.builder import Topology

AUDIO_2 = CallConfig.build({"US": 2}, MediaType.AUDIO)   # 0.5 cores
JP_2 = CallConfig.build({"JP": 2}, MediaType.AUDIO)      # 0.5 cores

SMALL_DCS = ("dc-tokyo", "dc-hongkong", "dc-pune")


def _plan(shares, config=AUDIO_2):
    return AllocationPlan(
        slots=make_slots(3600.0, 1800.0),
        shares={(0, config): dict(shares)},
    )


def _fleet_ledger(dc_cores, shares, config=AUDIO_2, policy="first_fit"):
    ledger = FleetLedger(dc_cores, make_policy(policy))
    ledger.load_plan(_plan(shares, config=config))
    return ledger


def _small_world(shares=None, config=JP_2):
    """Topology.small + a fleet ledger holding slots on its three DCs."""
    topo = Topology.small()
    if shares is None:
        shares = {dc: 10 for dc in SMALL_DCS}
    ledger = _fleet_ledger({dc: 14.4 for dc in SMALL_DCS}, shares,
                           config=config)
    return topo, ledger


def _fake_engine(topo, ledger):
    """The slice of an engine that MigrationExecutor.bind touches."""
    return types.SimpleNamespace(
        topology=topo, ledger=ledger,
        selector=types.SimpleNamespace(registry=None, down_dcs=None))


def _executor(topo, ledger, **overrides):
    ex = MigrationExecutor(config=MigrationConfig(**overrides))
    ex.bind(_fake_engine(topo, ledger))
    return ex


def _settle(registry, ledger, call_id, dc, config=JP_2, slot_index=0):
    """Admit a call with a debit + server reservation and register it."""
    assert ledger.try_debit(slot_index, config, dc, call_id=call_id)
    registry.on_settle(call_id, slot_index, config, dc,
                       planned=True, overflowed=False)


class TestFaultPlanRecovery:
    def test_until_day_requires_at_day(self):
        with pytest.raises(SwitchboardError):
            FaultSpec(kind="dc_failure", dc="dc-a", until_day=2)

    def test_until_day_must_follow_at_day(self):
        with pytest.raises(SwitchboardError):
            FaultSpec(kind="dc_failure", dc="dc-a", at_day=2, until_day=2)

    def test_at_s_must_be_nonnegative(self):
        with pytest.raises(SwitchboardError):
            FaultSpec(kind="dc_failure", dc="dc-a", at_day=0, at_s=-1.0)

    def test_until_s_requires_at_s_and_order(self):
        with pytest.raises(SwitchboardError):
            FaultSpec(kind="dc_failure", dc="dc-a", at_day=0, until_s=10.0)
        with pytest.raises(SwitchboardError):
            FaultSpec(kind="dc_failure", dc="dc-a", at_day=0,
                      at_s=10.0, until_s=10.0)

    def test_batch_take_stashes_recovering_faults(self):
        plan = FaultPlan() \
            .dc_failure("dc-a", at_day=1, until_day=2) \
            .link_failure("dc-a<->dc-b", at_day=1)
        taken = plan.take_topology_faults(1)
        assert len(taken) == 2

    def test_compose_stays_commutative_with_recovery_fields(self):
        a = FaultPlan().dc_failure("dc-a", at_day=1, until_day=4,
                                   at_s=9000.0, until_s=12000.0)
        b = FaultPlan().link_failure("dc-a<->dc-b", at_day=0) \
                       .dc_failure("dc-b", at_day=1)
        assert a.compose(b).pending() == b.compose(a).pending()

    def test_adding_an_end_does_not_reorder_a_composed_plan(self):
        plain = FaultPlan().dc_failure("dc-a", at_day=1) \
                           .dc_failure("dc-b", at_day=1)
        ended = FaultPlan().dc_failure("dc-a", at_day=1, until_day=2) \
                           .dc_failure("dc-b", at_day=1)
        assert ([s.dc for s in plain.compose(FaultPlan()).pending()]
                == [s.dc for s in ended.compose(FaultPlan()).pending()])

class TestCallRegistry:
    def test_settle_and_end_lifecycle(self):
        reg = CallRegistry()
        reg.on_settle("c1", 0, JP_2, "dc-tokyo", planned=True,
                      overflowed=False)
        assert len(reg) == 1
        assert [c.call_id for c in reg.live_on("dc-tokyo")] == ["c1"]
        assert reg.live_on("dc-tokyo")[0].has_debit
        reg.on_end("c1")
        assert len(reg) == 0
        reg.on_end("c1")  # idempotent

    def test_overflow_settle_holds_no_debit(self):
        reg = CallRegistry()
        reg.on_settle("c1", 0, JP_2, "dc-tokyo", planned=True,
                      overflowed=True)
        reg.on_settle("c2", 0, JP_2, "dc-tokyo", planned=False,
                      overflowed=False)
        assert not reg.live_on("dc-tokyo")[0].has_debit
        assert not reg.live_on("dc-tokyo")[1].has_debit

    def test_live_on_is_deterministically_ordered(self):
        reg = CallRegistry()
        reg.on_settle("c2", 1, JP_2, "dc-a", planned=True, overflowed=False)
        reg.on_settle("c3", 0, JP_2, "dc-a", planned=True, overflowed=False)
        reg.on_settle("c1", 1, JP_2, "dc-a", planned=True, overflowed=False)
        assert [c.call_id for c in reg.live_on("dc-a")] == ["c3", "c1", "c2"]

    def test_move_relocates_and_clears_disruption(self):
        reg = CallRegistry()
        reg.on_settle("c1", 0, JP_2, "dc-a", planned=True, overflowed=True)
        reg.mark_disrupted("c1")
        assert reg.live_on("dc-a") == []
        assert reg.disrupted_calls() == ["c1"]
        reg.on_move("c1", "dc-b", has_debit=True)
        call = reg.live_on("dc-b")[0]
        assert call.has_debit and not call.overflowed and not call.disrupted
        assert reg.disrupted_calls() == []
        assert reg.live_on("dc-a") == []

    def test_live_in_cell_filters_debit_holders_of_the_cell(self):
        reg = CallRegistry()
        reg.on_settle("c1", 0, JP_2, "dc-a", planned=True, overflowed=False)
        reg.on_settle("c2", 0, JP_2, "dc-a", planned=True, overflowed=True)
        reg.on_settle("c3", 1, JP_2, "dc-a", planned=True, overflowed=False)
        reg.on_settle("c4", 0, AUDIO_2, "dc-a", planned=True,
                      overflowed=False)
        reg.on_settle("c5", 0, JP_2, "dc-b", planned=True, overflowed=False)
        assert [c.call_id for c in reg.live_in_cell(0, JP_2, "dc-a")] == ["c1"]


class TestMigrationPlanner:
    def test_destinations_are_acl_ordered_and_exclude_down(self):
        topo, ledger = _small_world()
        planner = MigrationPlanner(topo, ledger)
        reg = CallRegistry()
        _settle(reg, ledger, "c1", "dc-tokyo")
        call = reg.live_on("dc-tokyo")[0]
        want = sorted(
            (dc for dc in SMALL_DCS if dc != "dc-tokyo"),
            key=lambda dc: (topo.acl_ms(dc, JP_2), dc))
        assert planner.destinations(call, down=set()) == want
        assert planner.destinations(call, down={want[0]}) == want[1:]

    def test_destinations_skip_exhausted_cells(self):
        topo, ledger = _small_world(shares={"dc-tokyo": 10,
                                            "dc-hongkong": 5,
                                            "dc-pune": 0})
        planner = MigrationPlanner(topo, ledger)
        reg = CallRegistry()
        _settle(reg, ledger, "c1", "dc-tokyo")
        assert planner.destinations(reg.live_on("dc-tokyo")[0], down=set()) \
            == ["dc-hongkong"]

    def test_unplanned_cell_yields_no_destinations_but_a_fallback(self):
        topo, ledger = _small_world()
        planner = MigrationPlanner(topo, ledger)
        reg = CallRegistry()
        # A config the plan never anticipated: no cell, no destinations.
        unplanned = CallConfig.build({"JP": 4}, MediaType.AUDIO)
        reg.on_settle("c1", 0, unplanned, "dc-tokyo", planned=False,
                      overflowed=False)
        call = reg.live_on("dc-tokyo")[0]
        assert planner.destinations(call, down=set()) == []
        fallback = planner.fallback_dc(call, down=set())
        assert fallback in SMALL_DCS and fallback != "dc-tokyo"

    def test_fallback_is_none_when_everything_is_down(self):
        topo, ledger = _small_world()
        planner = MigrationPlanner(topo, ledger)
        reg = CallRegistry()
        reg.on_settle("c1", 0, JP_2, "dc-tokyo", planned=False,
                      overflowed=False)
        call = reg.live_on("dc-tokyo")[0]
        assert planner.fallback_dc(
            call, down={"dc-hongkong", "dc-pune"}) is None


class TestMigrationExecutor:
    def test_bind_shares_registry_and_down_set_with_selector(self):
        topo, ledger = _small_world()
        engine = _fake_engine(topo, ledger)
        ex = MigrationExecutor()
        ex.bind(engine)
        assert engine.selector.registry is ex.registry
        ex.order_drain("dc-tokyo", at_s=0.0)
        ex.on_window(0.0)
        # The selector sees membership changes through the shared set.
        assert "dc-tokyo" in engine.selector.down_dcs

    def test_order_activates_only_at_its_onset(self):
        topo, ledger = _small_world()
        ex = _executor(topo, ledger)
        _settle(ex.registry, ledger, "c1", "dc-tokyo")
        ex.order_drain("dc-tokyo", at_s=100.0)
        assert ex.on_window(50.0) == 0
        assert ex.down_dcs() == set()
        assert ex.on_window(150.0) == 1
        assert ex.down_dcs() == {"dc-tokyo"}
        assert ex.registry.live_on("dc-tokyo") == []

    def test_drain_moves_calls_debit_first_credit_after(self):
        topo, ledger = _small_world()
        ex = _executor(topo, ledger)
        for i in range(3):
            _settle(ex.registry, ledger, f"c{i}", "dc-tokyo")
        before = ledger.snapshot(0, JP_2)
        assert before["dc-tokyo"] == 7
        ex.order_drain("dc-tokyo", at_s=0.0, reason="test")
        assert ex.on_window(0.0) == 3
        after = ledger.snapshot(0, JP_2)
        # Every source slot credited back, three taken elsewhere.
        assert after["dc-tokyo"] == 10
        assert sum(before.values()) == sum(after.values())
        for i in range(3):
            server = ledger.server_of(f"c{i}")
            assert server is not None and not server.startswith("dc-tokyo/")
        assert ex.live_migrated == 3 and ex.disrupted == 0
        assert ex.batches == 1 and ex.candidates == 3

    def test_heal_returns_the_dc_to_service(self):
        topo, ledger = _small_world()
        ex = _executor(topo, ledger)
        ex.order_drain("dc-tokyo", at_s=0.0, until_s=100.0)
        ex.on_window(0.0)
        assert ex.down_dcs() == {"dc-tokyo"}
        ex.on_window(100.0)
        assert ex.down_dcs() == set()
        assert ex.heals == 1

    def test_move_budget_bounds_each_window(self):
        topo, ledger = _small_world()
        ex = _executor(topo, ledger, max_moves_per_window=2)
        for i in range(5):
            _settle(ex.registry, ledger, f"c{i}", "dc-tokyo")
        ex.order_drain("dc-tokyo", at_s=0.0)
        assert ex.on_window(0.0) == 2
        assert ex.on_window(1.0) == 2
        assert ex.on_window(2.0) == 1
        assert ex.on_window(3.0) == 0
        assert ex.registry.live_on("dc-tokyo") == []
        assert ex.live_migrated == 5 and ex.batches == 3

    def test_infeasible_calls_are_disrupted_not_dropped(self):
        topo, ledger = _small_world()
        ex = _executor(topo, ledger)
        _settle(ex.registry, ledger, "c1", "dc-tokyo")
        for dc in SMALL_DCS:
            ex.order_drain(dc, at_s=0.0)
        ex.on_window(0.0)
        assert ex.disrupted == 1 and ex.live_migrated == 0
        assert ex.registry.disrupted_calls() == ["c1"]
        assert len(ex.registry) == 1  # still live, still accounted
        # A disrupted call is not retried every window.
        assert ex.on_window(1.0) == 0
        metrics = ex.migration_metrics()
        assert metrics["candidates"] == (metrics["live_migrated_calls"]
                                         + metrics["disrupted_calls"])

    def test_overflow_call_without_debit_takes_fallback(self):
        # A plan with slots only on the draining DC: a no-debit call
        # cannot be admitted elsewhere, so it falls back via topology.
        topo, ledger = _small_world(shares={"dc-tokyo": 10})
        ex = _executor(topo, ledger)
        ex.registry.on_settle("c1", 0, JP_2, "dc-tokyo", planned=True,
                              overflowed=True)
        ex.order_drain("dc-tokyo", at_s=0.0)
        assert ex.on_window(0.0) == 1
        assert ex.live_migrated == 1 and ex.fallback_moves == 1
        call = [c for dc in SMALL_DCS for c in ex.registry.live_on(dc)][0]
        assert call.dc != "dc-tokyo" and not call.has_debit

    def test_watch_converts_dc_failures_to_drain_orders(self):
        topo, ledger = _small_world()
        ex = _executor(topo, ledger)
        plan = FaultPlan() \
            .dc_failure("dc-tokyo", at_day=0, at_s=9000.0) \
            .link_failure("dc-tokyo<->dc-pune", at_day=0)
        orders = ex.watch(plan, day=0)
        assert [o.dc for o in orders] == ["dc-tokyo"]
        assert orders[0].at_s == 9000.0 and orders[0].until_s is None
        assert orders[0].reason.startswith("fault:")

    def test_watch_maps_day_granularity_to_day_boundaries(self):
        topo, ledger = _small_world()
        ex = _executor(topo, ledger)
        plan = FaultPlan().dc_failure("dc-tokyo", at_day=1, until_day=2)
        (order,) = ex.watch(plan, day=1)
        assert order.at_s == 86400.0 and order.until_s == 172800.0

    def test_deferred_cell_drain_does_not_credit_the_source(self):
        topo, ledger = _small_world()
        ex = _executor(topo, ledger)
        for i in range(3):
            _settle(ex.registry, ledger, f"c{i}", "dc-tokyo")
        ex.request_cell_drain(0, JP_2, "dc-tokyo", 2)
        assert ex.on_window(0.0) == 2
        after = ledger.snapshot(0, JP_2)
        # The two vacated slots complete the drain: not returned.
        assert after["dc-tokyo"] == 7
        assert sum(after.values()) == 30 - 3 - 2
        assert ex.deferred_drain_moves == 2
        assert len(ex.registry.live_on("dc-tokyo")) == 1

    def test_deferred_drain_miss_gives_up_cleanly(self):
        topo, ledger = _small_world(shares={"dc-tokyo": 10})
        ex = _executor(topo, ledger)
        _settle(ex.registry, ledger, "c1", "dc-tokyo")
        ex.request_cell_drain(0, JP_2, "dc-tokyo", 1)
        assert ex.on_window(0.0) == 1
        assert ex.deferred_drain_misses == 1 and ex.deferred_drain_moves == 0
        # The call keeps serving where it is; the request is spent.
        assert [c.call_id for c in ex.registry.live_on("dc-tokyo")] == ["c1"]
        assert ex.on_window(1.0) == 0

    def test_migration_metrics_carry_no_wall_clock_keys(self):
        topo, ledger = _small_world()
        ex = _executor(topo, ledger)
        metrics = ex.migration_metrics()
        assert not any("latency" in key or "wall" in key for key in metrics)

    def test_interval_comes_from_config(self):
        ex = MigrationExecutor(config=MigrationConfig(interval_s=123.0))
        assert ex.interval_s == 123.0
        with pytest.raises(SwitchboardError):
            MigrationConfig(interval_s=0.0)
        with pytest.raises(SwitchboardError):
            MigrationConfig(max_moves_per_window=0)
        with pytest.raises(SwitchboardError):
            MigrationConfig(disruption_ceiling=1.5)


class TestRelocateCall:
    def _two_dc(self, shares=None):
        shares = shares if shares is not None else {"dc-a": 10, "dc-b": 10}
        return _fleet_ledger({"dc-a": 14.4, "dc-b": 14.4}, shares)

    def test_relocate_moves_slot_and_server(self):
        ledger = self._two_dc()
        assert ledger.try_debit(0, AUDIO_2, "dc-a", call_id="c1")
        assert ledger.relocate_call("c1", 0, AUDIO_2, "dc-b")
        assert ledger.server_of("c1").startswith("dc-b/")
        assert ledger.held_mc_of("c1") == to_microcores(0.5)
        cell = ledger.snapshot(0, AUDIO_2)
        assert cell == {"dc-a": 10, "dc-b": 9}
        assert ledger.stats.snapshot()["live_moves"] == 1

    def test_drain_flavour_keeps_the_source_slot(self):
        ledger = self._two_dc()
        assert ledger.try_debit(0, AUDIO_2, "dc-a", call_id="c1")
        assert ledger.relocate_call("c1", 0, AUDIO_2, "dc-b",
                                    credit_source=False)
        assert ledger.snapshot(0, AUDIO_2) == {"dc-a": 9, "dc-b": 9}

    def test_unknown_and_same_dc_refused(self):
        ledger = self._two_dc()
        assert not ledger.relocate_call("ghost", 0, AUDIO_2, "dc-b")
        assert ledger.try_debit(0, AUDIO_2, "dc-a", call_id="c1")
        assert not ledger.relocate_call("c1", 0, AUDIO_2, "dc-a")
        assert ledger.snapshot(0, AUDIO_2) == {"dc-a": 9, "dc-b": 10}

    def test_exhausted_destination_leaves_the_call_in_place(self):
        ledger = self._two_dc(shares={"dc-a": 10, "dc-b": 0})
        assert ledger.try_debit(0, AUDIO_2, "dc-a", call_id="c1")
        assert not ledger.relocate_call("c1", 0, AUDIO_2, "dc-b")
        assert ledger.server_of("c1").startswith("dc-a/")
        # The failed attempt changed nothing: no slot lost either side.
        after = ledger.snapshot(0, AUDIO_2)
        assert after["dc-a"] == 9 and after.get("dc-b", 0) == 0

    def test_hammer_admission_and_migration_conserve_capacity(self):
        n_initial, n_new, n_threads = 60, 40, 4
        total_slots = 400
        ledger = _fleet_ledger({"dc-a": 144.0, "dc-b": 144.0},
                               {"dc-a": 200, "dc-b": 200})
        for i in range(n_initial):
            assert ledger.try_debit(0, AUDIO_2, "dc-a", call_id=f"old{i}")

        admitted, moved = [], []
        admit_lock, move_lock = threading.Lock(), threading.Lock()

        def admit(worker):
            for i in range(n_new // 2):
                dc = "dc-a" if i % 2 else "dc-b"
                cid = f"new{worker}-{i}"
                if ledger.try_debit(0, AUDIO_2, dc, call_id=cid):
                    with admit_lock:
                        admitted.append(cid)

        def migrate():
            # Both migrators race over the same victims: relocate_call
            # must let exactly one win per call.
            for i in range(n_initial):
                if ledger.relocate_call(f"old{i}", 0, AUDIO_2, "dc-b"):
                    with move_lock:
                        moved.append(f"old{i}")

        threads = ([threading.Thread(target=admit, args=(w,))
                    for w in range(n_threads)]
                   + [threading.Thread(target=migrate) for _ in range(2)])
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # No call moved twice, none lost.
        assert len(moved) == len(set(moved)) == n_initial
        placements = ledger.placements()
        live = n_initial + len(admitted)
        assert len(placements) == live
        for cid in moved:
            assert placements[cid].startswith("dc-b/")
        # Slot conservation: every live call holds exactly one slot.
        cell = ledger.snapshot(0, AUDIO_2)
        assert all(count >= 0 for count in cell.values())
        assert sum(cell.values()) == total_slots - live
        # Capacity conservation: held microcores match the placements.
        mc = to_microcores(0.5)
        assert all(ledger.held_mc_of(cid) == mc for cid in placements)
        held = sum(int(fleet.n_servers) * fleet.usable_mc
                   - int(fleet.free_mc.sum())
                   for fleet in ledger.fleets())
        assert held == live * mc
        assert ledger.stats.snapshot()["live_moves"] == n_initial


class TestReportSchema:
    def test_schema_version_pinned(self):
        assert REPORT_SCHEMA_VERSION == 3

    def test_to_dict_is_sorted_and_carries_migration_block(self):
        report = ServiceReport(n_workers=1, n_shards=4)
        payload = report.to_dict()
        assert payload["schema_version"] == 3
        keys = list(payload)
        assert keys[0] == "schema_version"
        assert keys[1:] == sorted(keys[1:])
        for key in ("live_migrated_calls", "disrupted_calls",
                    "migration_batches", "migration_latency_ms",
                    "migration"):
            assert key in payload

    def test_summary_renders_migration_line(self):
        report = ServiceReport(
            n_workers=1, n_shards=4, live_migrated_calls=5,
            disrupted_calls=1, migration_batches=2,
            migration={"drained_dcs": ["dc-a"]})
        assert "5 live moves + 1 disrupted" in report.summary()


class TestDcLossDrill:
    def test_thread_and_process_drills_agree(self):
        result = fig_migration.run(smoke=True, n_configs=6,
                                   calls_per_slot=30.0, seed=17)
        assert result["canonical_identical"]
        assert result["ok"]
        arms = {(r["executor"], r["n_workers"]) for r in result["runs"]}
        assert arms == {("thread", 1), ("process", 1), ("process", 2),
                        ("process", 4)}
        for row in result["runs"]:
            assert row["stranded_calls"] == 0
            assert all(row["invariants"].values())
        fig_migration.check(result)  # must not raise

    def test_check_raises_on_violated_invariants(self):
        tail = {"baseline_p99_ms": 0.3, "drill_p99_ms": 0.4,
                "bound_ms": 5.3, "held": True}
        bad = {"runs": [{
            "executor": "thread", "n_workers": 1,
            "invariants": {"dc_evacuated": False, "drain_fired": True},
            "canonical_matches_oracle": True,
            "disrupted_calls": 3, "stranded_calls": 2,
            "generated_calls": 10,
        }], "settle_tail": tail}
        with pytest.raises(SwitchboardError, match="dc_evacuated"):
            fig_migration.check(bad)
        bad["runs"][0]["invariants"] = {"dc_evacuated": True,
                                        "drain_fired": False}
        with pytest.raises(SwitchboardError, match="drain_fired"):
            fig_migration.check(bad)
        # Every arm clean, but evacuation blew the settle tail.
        bad["runs"][0]["invariants"]["drain_fired"] = True
        fig_migration.check(bad)
        bad["settle_tail"] = dict(tail, drill_p99_ms=9.0, held=False)
        with pytest.raises(SwitchboardError, match="settle tail"):
            fig_migration.check(bad)

    def test_canonical_projection_drops_wall_clock_keys(self):
        blob = fig_migration.canonical_report(
            {"generated_calls": 3, "wall_time_s": 1.23, "executor": "thread",
             "events_per_s": 9.9})
        assert "wall_time_s" not in blob and "generated_calls" in blob

    def test_drain_order_defaults(self):
        order = DrainOrder(dc="dc-a")
        assert order.at_s == 0.0 and order.until_s is None
        assert order.reason == "drain"
