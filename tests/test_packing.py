"""Tests for intra-DC server-level call packing (``repro.packing``).

Covers the packing policies, the fleet ledger, concurrent-debit safety,
online defragmentation, and the accounting partition — defrag-driven
server moves are a distinct category that must never leak into the
admitted/migrated/overflowed call partition.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import CapacityError
from repro.core.types import CallConfig, MediaType, make_slots
from repro.core.units import to_microcores
from repro.allocation.plan import AllocationPlan
from repro.config import PackingConfig, PlannerConfig
from repro.experiments import fig_packing
from repro.packing import (
    Defragmenter,
    FleetLedger,
    build_packing,
    make_policy,
    servers_for_cores,
)
from repro.packing.workload import generate_packing_load, media_mix
from repro.prediction import peak_predictor_or_default
from repro.service import AdmissionEngine, ServiceRuntime
from repro.switchboard import Switchboard
from repro.workload.media import MediaLoadModel

AUDIO_2 = CallConfig.build({"US": 2}, MediaType.AUDIO)   # 0.5 cores
AUDIO_4 = CallConfig.build({"US": 4}, MediaType.AUDIO)   # 1.0 cores
VIDEO_4 = CallConfig.build({"US": 4}, MediaType.VIDEO)   # 2.0 cores


def _plan(count=500.0, config=AUDIO_2, dc="dc-a"):
    return AllocationPlan(
        slots=make_slots(3600.0, 1800.0),
        shares={(0, config): {dc: count}},
    )


def _local(dc_cores, policy="first_fit", **kwargs):
    ledger = FleetLedger(dc_cores, make_policy(policy), **kwargs)
    ledger.load_plan(_plan())
    return ledger


class TestPolicies:
    def test_observed_sizing_matches_load_model(self):
        model = MediaLoadModel()
        policy = make_policy("first_fit")
        assert policy.size_mc(VIDEO_4) == to_microcores(
            model.call_cores(VIDEO_4))

    def test_predictive_sizes_above_observed_for_video(self):
        predictor = peak_predictor_or_default(None)  # conservative prior
        policy = make_policy("predictive", predictor=predictor)
        observed = make_policy("first_fit")
        assert policy.size_mc(VIDEO_4) >= observed.size_mc(VIDEO_4)

    def test_first_fit_picks_lowest_fitting_index(self):
        policy = make_policy("first_fit")
        free = np.array([100, 400, 900, 400], dtype=np.int64)
        assert policy.select(free, 300) == 1
        assert policy.select(free, 500) == 2
        assert policy.select(free, 1000) == -1

    def test_best_fit_picks_tightest_fit(self):
        policy = make_policy("predictive")
        free = np.array([900, 310, 400], dtype=np.int64)
        assert policy.select(free, 300) == 1
        assert policy.select(free, 1000) == -1

    def test_unknown_policy_rejected(self):
        with pytest.raises(Exception):
            make_policy("worst_fit")


class TestFleetLedger:
    def test_debit_with_call_id_places_on_a_server(self):
        ledger = _local({"dc-a": 28.8})  # exactly 2 servers at ut=0.9
        assert ledger.try_debit(0, AUDIO_2, "dc-a", call_id="c1")
        assert ledger.server_of("c1") == "dc-a/mp-0000"
        assert ledger.held_mc_of("c1") == to_microcores(0.5)
        ledger.release("c1")
        assert ledger.server_of("c1") is None

    def test_debit_without_call_id_is_pure_slot_debit(self):
        ledger = _local({"dc-a": 28.8})
        assert ledger.try_debit(0, AUDIO_2, "dc-a")
        assert ledger.placements() == {}

    def test_full_fleet_credits_slot_back_and_fails(self):
        # One server, 14.4 usable cores: 28 half-core calls fill it.
        ledger = _local({"dc-a": 14.4})
        for i in range(28):
            assert ledger.try_debit(0, AUDIO_2, "dc-a", call_id=f"c{i}")
        before = ledger.snapshot(0, AUDIO_2)["dc-a"]
        assert not ledger.try_debit(0, AUDIO_2, "dc-a", call_id="c-over")
        # The failed placement must return the plan slot it took.
        assert ledger.snapshot(0, AUDIO_2)["dc-a"] == before
        assert ledger.fleet_metrics()["placement_failures"] == 1

    def test_release_of_unknown_call_ignored(self):
        ledger = _local({"dc-a": 14.4})
        ledger.release("never-placed")  # overflow calls end up here
        assert ledger.fleet_metrics()["releases"] == 0

    def test_giant_call_gets_a_dedicated_server(self):
        # 40 video participants = 20 cores > one server's 14.4 usable:
        # the call must still place (dedicated server), not fail.
        giant = CallConfig.build({"US": 40}, MediaType.VIDEO)
        ledger = FleetLedger({"dc-a": 28.8}, make_policy("predictive"))
        ledger.load_plan(_plan(config=giant))
        assert ledger.try_debit(0, giant, "dc-a", call_id="giant")
        fleet = ledger.fleet("dc-a")
        index = next(i for i in range(fleet.n_servers)
                     if ledger.calls_on("dc-a", i))
        assert fleet.free_mc[index] == 0  # fully committed, not negative

    def test_growth_overload_triggers_rebalance(self):
        # Two servers; fill server 0 to the brim, then grow one of its
        # calls past the hardware headroom: the grown call must move to
        # the emptier server instead of running overloaded.
        ledger = _local({"dc-a": 28.8})
        for i in range(28):
            assert ledger.try_debit(0, AUDIO_2, "dc-a", call_id=f"c{i}")
        assert ledger.server_of("c0") == "dc-a/mp-0000"
        grown = 0
        while ledger.fleet_metrics()["overload_events"] == 0:
            ledger.note_join("c0")
            grown += 1
            assert grown < 50, "growth never overloaded the server"
        metrics = ledger.fleet_metrics()
        assert metrics["rebalance_moves"] == 1
        assert ledger.server_of("c0") == "dc-a/mp-0001"
        assert metrics["unresolved_overload_mc"] == 0

    def test_growth_of_unknown_call_is_noop(self):
        ledger = _local({"dc-a": 14.4})
        ledger.note_join("nobody")
        assert ledger.fleet_metrics()["overload_events"] == 0

    def test_fragmentation_counts_stranded_slots(self):
        # 2 servers x 14.4 usable: 28 one-core slots in total when
        # empty (14 per server), zero stranded.
        ledger = _local({"dc-a": 28.8}, policy="first_fit")
        assert ledger.fragmentation_slots_lost() == 0
        # Hold 13.5 cores on server 0: its 0.9-core remainder strands.
        heavy = CallConfig.build({"US": 27}, MediaType.VIDEO)  # 13.5
        plan = AllocationPlan(
            slots=make_slots(3600.0, 1800.0),
            shares={(0, heavy): {"dc-a": 10.0}})
        ledger.load_plan(plan)
        assert ledger.try_debit(0, heavy, "dc-a", call_id="h")
        # total free = 0.9 + 14.4 = 15.3 -> 15 slots; per-server
        # 0 + 14 = 14 slots -> 1 stranded.
        assert ledger.fragmentation_slots_lost(to_microcores(1.0)) == 1


class TestServersForCores:
    def test_exact_and_rounding(self):
        assert servers_for_cores(0.0) == 0
        assert servers_for_cores(14.4, server_cores=16.0,
                                 utilization_target=0.9) == 1
        assert servers_for_cores(14.5, server_cores=16.0,
                                 utilization_target=0.9) == 2

    def test_invalid(self):
        with pytest.raises(CapacityError):
            servers_for_cores(-1.0)
        with pytest.raises(CapacityError):
            servers_for_cores(1.0, server_cores=0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e5))
    def test_capacity_always_sufficient_property(self, cores):
        n = servers_for_cores(cores)
        assert n * 16.0 * 0.9 >= cores - 1e-6

    def test_plan_capacity_actually_hostable(self, switchboard,
                                             expected_demand):
        """End to end: the provisioned cores, realized as servers, host
        the plan's own busiest cell."""
        capacity = switchboard.provision(expected_demand, with_backup=False)
        plan = switchboard.allocate(expected_demand, capacity).plan
        ledger, _ = build_packing(capacity)
        ledger.load_plan(plan)
        for dc_id, cores in capacity.cores.items():
            assert ledger.fleet(dc_id).n_servers == servers_for_cores(cores)
        (t, config), cell = max(plan.shares.items(),
                                key=lambda item: max(item[1].values()))
        dc_id, count = max(cell.items(), key=lambda kv: kv[1])
        for i in range(int(count)):
            assert ledger.try_debit(t, config, dc_id, call_id=f"c{i}")
        assert ledger.fleet(dc_id).call_count.sum() == int(count)


class TestCapacityArithmetic:
    """Place/release round-trips never leak or mint capacity.

    The accounting is integer microcores under the hood, so these hold
    exactly — not merely within a float tolerance.  A call of ``n``
    participants costs ``n * per_participant`` cores, so arbitrary float
    sizes reach the ledger through the load model.
    """

    @staticmethod
    def _ledger(per_participant, dc_cores, server_cores, max_participants):
        model = MediaLoadModel(
            cl_cores={media: per_participant for media in MediaType})
        ledger = FleetLedger(
            {"dc-a": dc_cores}, make_policy("first_fit", load_model=model),
            server_cores=server_cores, utilization_target=1.0)
        configs = {n: CallConfig.build({"US": n}, MediaType.AUDIO)
                   for n in range(1, max_participants + 1)}
        ledger.load_plan(AllocationPlan(
            slots=make_slots(3600.0, 1800.0),
            shares={(0, config): {"dc-a": 5000.0}
                    for config in configs.values()}))
        return ledger, configs

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.01, max_value=1.0),
           st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=1, max_value=8)),
                    max_size=60),
           st.integers(min_value=1, max_value=4))
    def test_interleaved_round_trips_stay_consistent(self, per_participant,
                                                     ops, n_servers):
        """Committed capacity always equals the quantized sum of live
        calls, no server goes negative, and releasing everything
        restores exactly zero."""
        ledger, configs = self._ledger(per_participant, 16.0 * n_servers,
                                       16.0, 8)
        fleet = ledger.fleet("dc-a")
        total_mc = fleet.n_servers * fleet.usable_mc
        live = {}
        for i, (release_one, n) in enumerate(ops):
            if release_one and live:
                ledger.release(live.popitem()[0])
            elif ledger.try_debit(0, configs[n], "dc-a", call_id=f"c{i}"):
                live[f"c{i}"] = n
            held = sum(to_microcores(per_participant * n)
                       for n in live.values())
            assert total_mc - int(fleet.free_mc.sum()) == held
            assert (fleet.free_mc >= 0).all()
        for call_id in live:
            ledger.release(call_id)
        assert (fleet.free_mc == fleet.usable_mc).all()
        assert fleet.call_count.sum() == 0

    def test_float_sliver_cannot_accumulate(self):
        """The classic drift case: repeatedly placing/releasing 3 x 0.1
        cores (whose float product is 0.30000000000000004) leaves
        exactly zero."""
        ledger, configs = self._ledger(0.1, 1.0, 1.0, 3)
        fleet = ledger.fleet("dc-a")
        assert fleet.n_servers == 1
        for _ in range(1000):
            assert ledger.try_debit(0, configs[3], "dc-a", call_id="a")
            ledger.release("a")
        assert fleet.free_mc[0] == fleet.usable_mc
        # An exact-multiple fill still fits after all that churn.
        for call_id, n in (("b", 3), ("c", 3), ("d", 3), ("e", 1)):
            assert ledger.try_debit(0, configs[n], "dc-a", call_id=call_id)
        assert fleet.free_mc[0] == 0

    def test_exact_multiple_needs_no_extra_server(self):
        # 0.1 * 3 > 0.3 in floats; integer microcores keep this at 1.
        assert servers_for_cores(0.1 * 3, server_cores=0.3,
                                 utilization_target=1.0) == 1


class TestConcurrentDebits:
    def test_hammer_never_oversubscribes_servers(self):
        # 3 servers x 28 half-core calls = 84 fleet slots, 500 plan
        # slots: the fleet is the binding constraint.
        ledger = FleetLedger({"dc-a": 43.2}, make_policy("first_fit"))
        ledger.load_plan(_plan(count=500.0))
        wins, lock = [], threading.Lock()

        def contend(worker):
            mine = sum(
                ledger.try_debit(0, AUDIO_2, "dc-a",
                                 call_id=f"w{worker}-c{i}")
                for i in range(20))
            with lock:
                wins.append(mine)

        threads = [threading.Thread(target=contend, args=(w,))
                   for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(wins) == 84  # 160 attempts, exactly 84 server slots
        fleet = ledger.fleet("dc-a")
        # 28 half-core calls leave 0.4 usable cores per server — less
        # than one more call, and never negative.
        assert (fleet.free_mc == to_microcores(0.4)).all()
        assert len(ledger.placements()) == 84


class TestDefragmenter:
    def _fragmented_ledger(self):
        # 4 servers; spread one-core calls everywhere (first-fit fills
        # in order), then release most of them so the tail servers are
        # nearly empty — strandable capacity the defragmenter reclaims.
        ledger = FleetLedger({"dc-a": 57.6}, make_policy("first_fit"))
        plan = AllocationPlan(
            slots=make_slots(3600.0, 1800.0),
            shares={(0, AUDIO_4): {"dc-a": 200.0}})
        ledger.load_plan(plan)
        for i in range(56):  # 14 per server, all four full
            assert ledger.try_debit(0, AUDIO_4, "dc-a", call_id=f"c{i}")
        for i in range(56):
            if i % 14 not in (0, 1):  # keep 2 calls per server
                ledger.release(f"c{i}")
        return ledger

    def test_round_consolidates_emptiest_servers(self):
        ledger = self._fragmented_ledger()
        open_before = ledger.fleet("dc-a").open_servers
        defrag = Defragmenter(ledger, max_moves_per_round=8,
                              donor_fill_threshold=0.5)
        result = defrag.run_round()
        assert 0 < result.executed_moves <= 8
        assert result.executed_moves == result.planned_moves
        # Consolidation closes donors; it never opens a new server.
        assert ledger.fleet("dc-a").open_servers < open_before
        assert ledger.fleet_metrics()["defrag_moves"] == \
            result.executed_moves

    def test_moves_are_all_or_nothing_per_donor(self):
        ledger = self._fragmented_ledger()
        # Budget of 1 cannot evacuate any 2-call donor: no moves at all.
        defrag = Defragmenter(ledger, max_moves_per_round=1,
                              donor_fill_threshold=0.5)
        assert defrag.plan_round() == []

    def test_empty_fleet_round_is_clean(self):
        ledger = _local({"dc-a": 28.8})
        result = Defragmenter(ledger).run_round()
        assert result.planned_moves == 0
        assert result.executed_moves == 0

    def test_fragmentation_observable_through_obs(self):
        from repro.obs import Observability

        obs = Observability()
        ledger = self._fragmented_ledger()
        defrag = Defragmenter(ledger, max_moves_per_round=8,
                              donor_fill_threshold=0.5, obs=obs)
        result = defrag.run_round()
        assert obs.counters.get("packing.defrag.moves") == \
            result.executed_moves
        events = obs.events("packing.defrag.round")
        assert len(events) == 1
        assert events[0].detail["frag_before"] == result.frag_slots_before
        assert events[0].detail["frag_after"] == result.frag_slots_after


@pytest.fixture(scope="module")
def packing_setup(topology):
    load = generate_packing_load(n_calls=120, seed=7, countries=["US"])
    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(load.demand, with_backup=False)
    plan = controller.allocate(load.demand, capacity).plan
    fleet = {dc: cores * 3.0 for dc, cores in capacity.cores.items()}
    return load, plan, fleet


class TestEngineWithFleetLedger:
    def _run(self, topology, packing_setup, config):
        load, plan, fleet = packing_setup
        ledger, defragmenter = build_packing(
            fleet, config, training_calls=load.training_calls)
        runtime = ServiceRuntime.from_config(
            topology, plan, ledger=ledger,
            defragmenter=defragmenter,
            defrag_interval_s=config.defrag_interval_s)
        return runtime.run(load.batch)

    @pytest.mark.parametrize("policy", ["first_fit", "predictive"])
    def test_replay_accounting_exact(self, topology, packing_setup,
                                     policy):
        config = PackingConfig(policy=policy, defrag_interval_s=1800.0)
        report = self._run(topology, packing_setup, config)
        report.require_exact_accounting()
        assert report.packing["policy"] == policy
        assert report.packing["servers_used_peak"] > 0
        # Every placement was eventually released (all calls end).
        assert report.packing["placements"] == \
            report.packing["releases"] + report.packing.get(
                "placement_leaks", 0)

    def test_defrag_is_a_distinct_accounting_category(self, topology,
                                                      packing_setup):
        """Satellite pin: defrag server moves never enter the partition.

        ``admitted + migrated + overflowed == generated`` must hold
        with defragmentation active, ``defrag_migrated_calls`` counts
        separately, and the migration rate reflects only DC-to-DC
        freeze migrations.
        """
        config = PackingConfig(policy="first_fit",
                               utilization_target=0.7,
                               defrag_interval_s=900.0)
        report = self._run(topology, packing_setup, config)
        report.require_exact_accounting()
        assert report.defrag_rounds > 0
        assert report.defrag_migrated_calls > 0
        # The partition is exact *without* the defrag category...
        assert (report.admitted_calls + report.migrated_calls
                + report.overflowed_calls) == report.generated_calls
        # ...and the defrag moves match the ledger's own count.
        assert report.defrag_migrated_calls == \
            report.packing["defrag_moves"]
        # Inter-DC migration stats are untouched by server moves.
        assert report.migration_rate == pytest.approx(
            report.migrated_calls / report.generated_calls)
        dumped = report.to_dict()
        assert dumped["defrag_migrated_calls"] == \
            report.defrag_migrated_calls
        assert dumped["accounting_exact"] is True

    def test_plain_engine_reports_no_packing(self, topology,
                                             packing_setup):
        load, plan, _ = packing_setup
        engine = AdmissionEngine(topology, plan)
        report = engine.run(load.batch)
        report.require_exact_accounting()
        assert report.packing == {}
        assert report.defrag_migrated_calls == 0
        assert report.frag_slots_lost == 0


class TestPackingWorkload:
    def test_deterministic(self):
        one = generate_packing_load(n_calls=50, seed=3)
        two = generate_packing_load(n_calls=50, seed=3)
        assert one.trace.call_ids() == two.trace.call_ids()
        for column in ("t_s", "call_idx", "type_code", "country_code",
                       "media_code"):
            np.testing.assert_array_equal(getattr(one.batch, column),
                                          getattr(two.batch, column))

    def test_class_structure(self):
        load = generate_packing_load(n_calls=200, seed=5)
        mix = media_mix(load.trace)
        assert set(mix) == {"audio", "video"}
        freeze = load.freeze_window_s
        for call in load.trace:
            late = [p for p in call.participants
                    if p.join_offset_s > freeze]
            if call.media is MediaType.AUDIO:
                assert late == []  # audio is frozen == peak
            else:
                assert len(late) >= 2  # video predictably grows

    def test_training_calls_are_held_out(self):
        load = generate_packing_load(n_calls=30, seed=9)
        eval_ids = set(load.trace.call_ids())
        train_ids = {c.call_id for c in load.training_calls}
        assert eval_ids.isdisjoint(train_ids)


def test_predictive_packing_dominates_at_matched_quality():
    """Predicted-peak sizing needs fewer servers at the same (zero)
    overflow: each policy at the hottest utilization_target it runs
    clean, the operating point an operator would pick."""
    matched = fig_packing.run(n_calls=300, seed=7)["matched"]
    first_fit, predictive = matched["first_fit"], matched["predictive"]
    assert first_fit["clean"] and predictive["clean"]
    assert first_fit["overflowed_calls"] == 0
    assert predictive["overflowed_calls"] == 0
    assert (predictive["utilization_target"]
            > first_fit["utilization_target"])
    assert (predictive["servers_used_peak"]
            < first_fit["servers_used_peak"])
