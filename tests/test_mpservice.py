"""Executor parity: the multiprocess engine against the thread oracle.

The process executor is only correct if it is *invisible* in the
outcomes: same seed, same plan, same load must yield identical call
accounting, identical KV op counts, and byte-identical merged store
state whether the day is served in-process or sharded over 2 or 4
worker processes — including with a packing fleet ledger defragmenting
between windows and with a closed-loop autoscaler rescaling mid-day
across a worker barrier.  Also covers the ServiceRuntime construction
API itself: executor selection and the versioned report schema.
"""

import json
import multiprocessing
import os

import pytest

from repro.core.errors import SwitchboardError
from repro.autoscale import Autoscaler
from repro.config import AutoscaleConfig, PackingConfig, PlannerConfig, \
    ServiceConfig
from repro.allocation.realtime import KVSlotLedger, RealTimeSelector
from repro.controller.columnar import build_event_batch
from repro.controller.events import EventType, event_stream
from repro.core.types import Call, MediaType, Participant, make_slots
from repro.kvstore import InMemoryKVStore
from repro.kvstore.client import ControllerStateClient
from repro.packing import build_packing
from repro.packing.workload import generate_packing_load
from repro.service import (
    AdmissionEngine,
    MultiprocessAdmissionEngine,
    REPORT_SCHEMA_VERSION,
    ServiceRuntime,
)
from repro.switchboard import Switchboard
from repro.workload.arrivals import DemandModel
from repro.workload.columnar import ColumnarTrace
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.trace import CallTrace, TraceGenerator

FREEZE_S = 300.0

#: The accounting fields the executors must agree on exactly.
PARITY_FIELDS = (
    "events_total", "events_processed", "dropped_events", "joins",
    "media_changes", "generated_calls", "admitted_calls", "migrated_calls",
    "overflowed_calls", "unplanned_calls", "early_ended_calls",
    "ended_calls", "unsettled_calls", "kv_op_count",
)


def assert_parity(oracle, candidate):
    for field in PARITY_FIELDS:
        assert getattr(candidate, field) == getattr(oracle, field), (
            f"{field}: process={getattr(candidate, field)} "
            f"!= oracle={getattr(oracle, field)}")


@pytest.fixture(scope="module")
def load(cut_load):
    return cut_load(1500)


@pytest.fixture(scope="module")
def plan(topology, load):
    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(load.demand, with_backup=False)
    return controller.allocate(load.demand, capacity).plan


def _serve(topology, plan, events, executor, n_workers,
           kv_latency_median_ms=None):
    config = ServiceConfig(n_shards=4, n_workers=n_workers,
                           kv_latency_median_ms=kv_latency_median_ms,
                           kv_latency_seed=5, executor=executor)
    runtime = ServiceRuntime.from_config(topology, plan, config)
    report = runtime.run(events)
    report.require_exact_accounting()
    return report, runtime.store_state()


class TestExecutorParity:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_process_matches_oracle(self, topology, plan, load, n_workers):
        """Same seed -> identical accounting, KV op counts, and
        byte-identical merged store state at 1/2/4 processes."""
        oracle, oracle_state = _serve(topology, plan, load.batch, "thread", 1)
        report, state = _serve(topology, plan, load.batch, "process",
                               n_workers)
        assert_parity(oracle, report)
        assert state == oracle_state
        assert report.executor == "process"
        assert oracle.executor == "thread"

    def test_simulated_kv_latency_preserves_parity(self, topology, plan,
                                                   load):
        """The latency-simulating sharded store (the bench config) must
        not perturb outcomes either."""
        oracle, oracle_state = _serve(topology, plan, load.batch, "thread", 1,
                                      kv_latency_median_ms=0.05)
        report, state = _serve(topology, plan, load.batch, "process", 2,
                               kv_latency_median_ms=0.05)
        assert_parity(oracle, report)
        assert state == oracle_state


class TestCallStateStore:
    """What the serving core leaves in the store, at every executor."""

    ARMS = (("thread", 1), ("thread", 2), ("process", 2))

    @staticmethod
    def _punctual(load):
        """The load's calls whose every participant joins before the
        hangup: no JOIN/MEDIA row after the call's END."""
        return CallTrace(
            [call for call in load.columnar.to_trace().calls
             if all(p.join_offset_s < call.duration_s
                    for p in call.participants)], [])

    @staticmethod
    def _per_op_replay(topology, plan, trace):
        """The same stream through the read-before-write per-op client
        (what Fig 10 replays): the independent oracle of the store state
        the write-only pipelined kernel must leave."""
        store = InMemoryKVStore()
        client = ControllerStateClient(store)
        ledger = KVSlotLedger(store)
        ledger.load_plan(plan)
        selector = RealTimeSelector(topology, plan, FREEZE_S, ledger=ledger)
        settled, ended = set(), set()
        for event in event_stream(trace, FREEZE_S):
            call_id, kind = event.call_id, event.event_type
            if kind is EventType.CALL_START:
                client.open_call(call_id, topology.closest_dc(event.country),
                                 event.country)
            elif kind is EventType.PARTICIPANT_JOIN:
                client.record_join(call_id, event.country)
            elif kind is EventType.MEDIA_CHANGE:
                client.record_media(call_id, event.media)
            elif kind is EventType.CONFIG_FREEZE:
                call = event.call
                outcome = selector.settle(
                    call_id, plan.slot_index_of(call.start_s),
                    call.config(FREEZE_S), call.config(),
                    client.call_dc(call_id))
                if outcome.migrated:
                    client.migrate_call(call_id, outcome.final_dc)
                settled.add(call_id)
                if call_id in ended:
                    client.close_call(call_id)
            elif call_id in settled:
                client.close_call(call_id)
            else:
                ended.add(call_id)
        return store._data

    def test_matches_per_op_replay(self, topology, plan, load):
        """Without late events, the final store state (call keys modulo
        their hash tags, slot hashes, ``dcload`` counters) equals the
        per-op client's at every executor."""
        trace = self._punctual(load)
        assert 0 < len(trace.calls) < load.n_calls
        oracle = self._per_op_replay(topology, plan, trace)
        assert any(key.startswith("dcload:") for key in oracle)
        batch = build_event_batch(ColumnarTrace.from_trace(trace), FREEZE_S)
        for executor, n_workers in self.ARMS:
            _, state = _serve(topology, plan, batch, executor, n_workers)
            untagged = {key.replace("{", "").replace("}", ""): value
                        for key, value in state.items()}
            assert untagged == oracle, (executor, n_workers)

    def test_late_joins_and_media_leave_no_call_state(self, topology, plan):
        """Participants who join (and escalate media) after the hangup —
        before or after the freeze — are counted but must not recreate
        the ``call:*`` keys the close deleted."""
        def person(i, offset_s, media=MediaType.AUDIO):
            return Participant(f"p{i}", "US", offset_s, media)

        trace = CallTrace([
            # Ends at 400 s (after its freeze); stragglers at 500/600 s.
            Call(call_id="late-after-end", start_s=0.0, duration_s=400.0,
                 participants=[person(0, 0.0), person(1, 10.0),
                               person(2, 500.0),
                               person(3, 600.0, MediaType.VIDEO)]),
            # Ends at 100 s, closed at its 300 s freeze; one straggler
            # before the freeze (still live: written, then deleted), one
            # after it.
            Call(call_id="late-after-freeze", start_s=5.0, duration_s=100.0,
                 participants=[person(4, 0.0),
                               person(5, 200.0, MediaType.VIDEO),
                               person(6, 350.0, MediaType.SCREEN_SHARE)]),
        ], [])
        batch = build_event_batch(ColumnarTrace.from_trace(trace), FREEZE_S)
        for executor, n_workers in self.ARMS:
            report, state = _serve(topology, plan, batch, executor,
                                   n_workers)
            leaked = [key for key in state if key.startswith("call:")]
            assert leaked == [], (executor, n_workers)
            assert (report.joins, report.media_changes,
                    report.dropped_events) == (5, 3, 0)
            assert report.events_processed == report.events_total


class TestFleetLedgerParity:
    def _run(self, topology, executor, n_workers):
        plan_load = generate_packing_load(n_calls=80, seed=7,
                                          countries=["US"])
        controller = Switchboard(topology,
                                 config=PlannerConfig(max_link_scenarios=0))
        capacity = controller.provision(plan_load.demand, with_backup=False)
        plan = controller.allocate(plan_load.demand, capacity).plan
        fleet = {dc: cores * 3.0 for dc, cores in capacity.cores.items()}
        config = PackingConfig(policy="first_fit", utilization_target=0.7,
                               defrag_interval_s=900.0)
        ledger, defragmenter = build_packing(
            fleet, config, training_calls=plan_load.training_calls)
        runtime = ServiceRuntime.from_config(
            topology, plan, ServiceConfig(executor=executor,
                                          n_workers=n_workers),
            ledger=ledger, defragmenter=defragmenter,
            defrag_interval_s=config.defrag_interval_s)
        report = runtime.run(plan_load.batch)
        report.require_exact_accounting()
        return report, runtime.store_state()

    def test_defrag_round_parity(self, topology):
        """A fleet ledger placing every call on a server, growing
        post-freeze reservations via note_join, releasing at call end,
        and defragmenting between windows — identical in both
        executors, defrag moves included."""
        oracle, oracle_state = self._run(topology, "thread", 1)
        report, state = self._run(topology, "process", 2)
        assert oracle.defrag_rounds > 0, "scenario must exercise defrag"
        assert_parity(oracle, report)
        assert state == oracle_state
        assert report.defrag_rounds == oracle.defrag_rounds
        assert report.defrag_migrated_calls == oracle.defrag_migrated_calls
        for key in ("servers_used_peak", "placements", "releases",
                    "placement_failures", "overload_events",
                    "frag_slots_lost", "defrag_moves"):
            assert report.packing[key] == oracle.packing[key], key


class TestAutoscaleParity:
    def _run(self, topology, executor, n_workers):
        population = generate_population(topology.world, n_configs=6, seed=5)
        model = DemandModel(topology.world, population, DiurnalModel(),
                            calls_per_slot_at_peak=120.0)
        base = model.expected(make_slots(6 * 3600.0, 1800.0))
        controller = Switchboard(topology,
                                 config=PlannerConfig(max_link_scenarios=0))
        capacity = controller.provision(base, with_backup=False)
        plan = controller.allocate(base, capacity).plan
        surprise = base.scale(1.6)
        rescaler = Autoscaler(controller, base, plan,
                              config=AutoscaleConfig(), capacity=capacity)
        runtime = ServiceRuntime.from_config(
            topology, plan, ServiceConfig(executor=executor,
                                          n_workers=n_workers),
            freeze_window_s=FREEZE_S, rescaler=rescaler)
        events = build_event_batch(
            TraceGenerator(seed=8).generate_columnar(surprise), FREEZE_S)
        report = runtime.run(events)
        report.require_exact_accounting()
        return report

    def test_midday_rescale_crosses_worker_barrier(self, topology):
        """A 1.6x demand surprise forces scale-ups mid-day; the rescale
        decisions and the resulting accounting must be identical when
        the windows are served by 2 worker processes."""
        oracle = self._run(topology, "thread", 1)
        report = self._run(topology, "process", 2)
        assert oracle.rescale_events > 0, "scenario must rescale mid-day"
        assert_parity(oracle, report)
        assert report.rescale_events == oracle.rescale_events
        assert report.autoscale["scale_ups"] == \
            oracle.autoscale["scale_ups"]
        assert report.autoscale["slots_added"] == \
            oracle.autoscale["slots_added"]
        assert report.autoscale["final_scale"] == \
            oracle.autoscale["final_scale"]


class TestServiceRuntimeAPI:
    def test_executor_selection(self, topology, plan):
        thread = ServiceRuntime.from_config(topology, plan)
        process = ServiceRuntime.from_config(
            topology, plan, ServiceConfig(executor="process"))
        assert isinstance(thread.engine, AdmissionEngine)
        assert isinstance(process.engine, MultiprocessAdmissionEngine)
        assert thread.executor == "thread"
        assert process.executor == "process"

    def test_planner_config_carries_service_config(self, topology, plan):
        config = PlannerConfig(max_link_scenarios=0,
                               service=ServiceConfig(executor="process",
                                                     n_workers=2))
        runtime = ServiceRuntime.from_config(topology, plan, config)
        assert isinstance(runtime.engine, MultiprocessAdmissionEngine)
        assert runtime.engine.n_workers == 2

    def test_unknown_executor_rejected(self):
        with pytest.raises(SwitchboardError, match="unknown service"):
            ServiceConfig(executor="fiber")

    def test_report_before_run_raises(self, topology, plan):
        runtime = ServiceRuntime.from_config(topology, plan)
        with pytest.raises(SwitchboardError, match="no report yet"):
            runtime.report()


class TestWorkerDeath:
    """A worker process dying must fail the run cleanly: one
    SwitchboardError, no orphaned sibling, no leaked shared memory."""

    @staticmethod
    def _live_workers():
        return [p for p in multiprocessing.active_children()
                if p.name.startswith("admission-worker")]

    def test_worker_killed_mid_run(self, topology, plan, load):
        segments = []

        class KillAtFirstBarrier:
            interval_s = 600.0

            def bind(self, engine):
                self.engine = engine

            def on_window(self, snapshot):
                segments.extend(shm.name for shm in self.engine._segments)
                victim = self.engine._procs[0]
                victim.kill()
                victim.join()

        runtime = ServiceRuntime.from_config(
            topology, plan, ServiceConfig(executor="process", n_workers=2),
            rescaler=KillAtFirstBarrier())
        with pytest.raises(SwitchboardError, match="crashed"):
            runtime.run(load.batch)
        assert segments, "the barrier must have fired mid-run"
        assert not self._live_workers()
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name.lstrip('/')}")

    def test_worker_exits_during_ready_barrier(self, topology, plan, load):
        first = multiprocessing.get_context("fork").Value("i", 1)

        class OneWorkerDiesAtStartup:
            n_shards = 1

            def build(self):
                with first.get_lock():
                    mine, first.value = first.value, 0
                if mine:
                    os._exit(7)
                return InMemoryKVStore()

        engine = MultiprocessAdmissionEngine(
            topology, plan, n_workers=2,
            worker_store_spec=OneWorkerDiesAtStartup())
        with pytest.raises(SwitchboardError, match="crashed"):
            engine.run(load.batch)
        assert not self._live_workers()


class TestReportSchema:
    def test_schema_version_and_stable_key_order(self, topology, plan, load):
        report, _ = _serve(topology, plan, load.batch, "process", 2)
        dumped = report.to_dict()
        assert dumped["schema_version"] == REPORT_SCHEMA_VERSION
        assert next(iter(dumped)) == "schema_version"
        keys = [k for k in dumped if k != "schema_version"]
        assert keys == sorted(keys)
        for key, value in dumped.items():
            if isinstance(value, dict):
                assert list(value) == sorted(value), key
        # The artifact round-trips through JSON with the order intact.
        again = json.loads(json.dumps(dumped))
        assert list(again) == list(dumped)
        assert dumped["executor"] == "process"
