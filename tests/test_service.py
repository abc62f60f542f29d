"""Tests for the online admission service: the served load, engine, report."""

import numpy as np
import pytest

from repro.core.errors import SwitchboardError, WorkloadError
from repro.core.types import (
    Call,
    CallConfig,
    MediaType,
    Participant,
    make_slots,
)
from repro.allocation.plan import AllocationPlan
from repro.allocation.realtime import (
    KVSlotLedger,
    LocalSlotLedger,
    RealTimeSelector,
)
from repro.config import PlannerConfig, ServiceConfig
from repro.controller.columnar import (
    ColumnarEventBatch,
    build_event_batch,
    event_prefix,
    events_per_call,
)
from repro.controller.events import EVENT_SORT_CODE, EventType, event_stream
from repro.kvstore import InMemoryKVStore, ShardedKVStore
from repro.kvstore.client import PipelinedStateClient
from repro.obs.histogram import LatencyHistogram
from repro.service import (
    AdmissionEngine,
    ServiceReport,
    ServiceRuntime,
)
from repro.service.engine import (
    LocalPort,
    WorkerState,
    dump_store_state,
    serve_rows,
)
from repro.experiments.common import Scenario
from repro.switchboard import Switchboard
from repro.workload.columnar import ColumnarTrace
from repro.workload.trace import CallTrace


@pytest.fixture(scope="module")
def load(cut_load):
    return cut_load(2500)


@pytest.fixture(scope="module")
def plan(topology, load):
    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(load.demand, with_backup=False)
    return controller.allocate(load.demand, capacity).plan


class TestEventPrefix:
    def test_deterministic(self, topology, load):
        day = Scenario.build(topology, n_configs=40, calls_per_slot=40.0,
                             seed=7)
        trace = event_prefix(day.columnar_trace, 2500)
        again = build_event_batch(trace)
        assert trace.call_ids() == load.columnar.call_ids()
        for column in ("t_s", "call_idx", "type_code", "country_code",
                       "media_code"):
            np.testing.assert_array_equal(getattr(again, column),
                                          getattr(load.batch, column))

    def test_truncates_at_call_granularity(self, load):
        """Every kept call contributes its complete event sequence —
        exactly one CALL_START, CONFIG_FREEZE, and CALL_END each."""
        batch = load.batch
        assert len(np.unique(batch.call_idx)) == load.n_calls
        for kind in (EventType.CALL_START, EventType.CONFIG_FREEZE,
                     EventType.CALL_END):
            rows = batch.type_code == EVENT_SORT_CODE[kind]
            per_call = np.bincount(batch.call_idx[rows],
                                   minlength=load.n_calls)
            np.testing.assert_array_equal(per_call, 1)

    def test_event_budget_roughly_hit(self, load):
        # Whole calls only: may exceed the target by at most one call.
        assert load.n_events >= 2500
        assert load.n_events <= 2500 + 40  # max events of one call

    def test_demand_covers_kept_calls_only(self, load):
        assert load.demand.total_calls() == pytest.approx(load.n_calls)

    def test_events_time_sorted(self, load):
        assert np.all(np.diff(load.batch.t_s) >= 0)

    def test_invalid_parameters(self, load):
        with pytest.raises(WorkloadError):
            event_prefix(load.columnar, 0)

    def test_target_above_the_day_keeps_it_whole(self, service_day):
        trace = service_day.columnar_trace
        total = int(events_per_call(trace).sum())
        assert event_prefix(trace, total) is trace
        assert event_prefix(trace, 10 * total) is trace
        assert event_prefix(trace, 1).n_calls == 1


class TestAdmissionEngine:
    def test_exact_accounting_single_worker(self, topology, plan, load):
        engine = AdmissionEngine(topology, plan,
                                 store=ShardedKVStore(n_shards=4))
        report = engine.run(load.batch)
        report.require_exact_accounting()
        assert report.generated_calls == load.n_calls
        assert report.events_processed == load.n_events
        assert report.ended_calls == load.n_calls

    def test_exact_accounting_multi_worker(self, topology, plan, load):
        engine = AdmissionEngine(topology, plan,
                                 store=ShardedKVStore(n_shards=4),
                                 n_workers=4)
        report = engine.run(load.batch)
        report.require_exact_accounting()
        assert report.generated_calls == load.n_calls

    def test_single_worker_matches_day_replay(self, topology, plan, load):
        """The engine is the replay path, served online: one worker over
        the event stream reproduces process_trace() exactly."""
        selector = RealTimeSelector(topology, plan)
        selector.process_trace(load.columnar.to_trace().calls)

        engine = AdmissionEngine(topology, plan,
                                 store=ShardedKVStore(n_shards=4))
        engine.run(load.batch)

        expected, got = selector.stats, engine.selector.stats
        assert (expected.calls, expected.migrations, expected.unplanned,
                expected.overflow) == (got.calls, got.migrations,
                                       got.unplanned, got.overflow)
        assert got.acl_sum_ms == pytest.approx(expected.acl_sum_ms)

    def test_workers_do_not_change_outcomes(self, topology, plan, load):
        reports = []
        for n_workers in (1, 3):
            engine = AdmissionEngine(topology, plan,
                                     store=ShardedKVStore(n_shards=4),
                                     n_workers=n_workers)
            reports.append(engine.run(load.batch))
        assert reports[0].migrated_calls == reports[1].migrated_calls
        assert reports[0].overflowed_calls == reports[1].overflowed_calls
        assert reports[0].generated_calls == reports[1].generated_calls

    def test_runs_on_plain_store_too(self, topology, plan, load):
        engine = AdmissionEngine(topology, plan, store=InMemoryKVStore())
        report = engine.run(load.batch)
        report.require_exact_accounting()
        assert report.n_shards == 1

    #: Executor arms the input checks run at: both executors, and the
    #: thread executor at one and two workers.
    ARMS = (("thread", 1), ("thread", 2), ("process", 2))

    def test_malformed_events_counted_dropped(self, topology, plan, load):
        """A START with no country is dropped, and so are the FREEZE and
        END of the call it never opened (its joins and media changes are
        counted but write nothing).  Every worker's drops fold into the
        report, on either executor."""
        batch = load.batch
        country = batch.country_code.copy()
        start_rows = np.flatnonzero(
            batch.type_code == EVENT_SORT_CODE[EventType.CALL_START])
        country[start_rows[0]] = -1
        broken = ColumnarEventBatch(batch.trace, batch.t_s, batch.call_idx,
                                    batch.type_code, country,
                                    batch.media_code)
        for executor, n_workers in self.ARMS:
            runtime = ServiceRuntime.from_config(
                topology, plan,
                ServiceConfig(n_workers=n_workers, executor=executor))
            report = runtime.run(broken)
            arm = (executor, n_workers)
            assert report.dropped_events == 3, arm
            assert report.events_total == load.n_events, arm
            assert report.events_processed == load.n_events - 3, arm
            assert report.generated_calls == load.n_calls - 1, arm
            assert report.settled_calls == report.generated_calls, arm
            assert not report.accounting_exact, arm
            with pytest.raises(SwitchboardError):
                report.require_exact_accounting()

    def test_non_batch_input_rejected(self, topology, plan, load):
        """Anything but columnar batches is refused with a pointer to the
        encoder, whether it is the whole input or one item of it, and the
        runtime serves a batch normally afterwards."""
        trace = load.columnar.to_trace()
        for executor, n_workers in self.ARMS:
            runtime = ServiceRuntime.from_config(
                topology, plan,
                ServiceConfig(n_workers=n_workers, executor=executor))
            for bad in (event_stream(trace, load.freeze_window_s),
                        [load.batch, trace]):
                with pytest.raises(SwitchboardError,
                                   match="build_event_batch"):
                    runtime.run(bad)
            runtime.run(load.batch).require_exact_accounting()

    def test_empty_stream_rejected(self, topology, plan):
        engine = AdmissionEngine(topology, plan,
                                 store=ShardedKVStore(n_shards=2))
        with pytest.raises(SwitchboardError):
            engine.run([])

    def test_worker_count_validated(self, topology, plan):
        with pytest.raises(SwitchboardError):
            AdmissionEngine(topology, plan, n_workers=0)

    def test_latency_percentiles_populated(self, topology, plan, load):
        store = ShardedKVStore.with_latency(n_shards=2, median_ms=0.1,
                                            floor_ms=0.05, ceil_ms=0.3,
                                            seed=3)
        engine = AdmissionEngine(topology, plan, store=store, n_workers=2)
        report = engine.run(load.batch)
        assert set(report.admission_latency_ms) == {"p50", "p95", "p99",
                                                    "count"}
        assert report.admission_latency_ms["count"] > 0
        assert report.kv_latency_ms["p50"] >= 0.05
        assert report.kv_op_count > 0


class RecordingPort:
    """A fake ledger side: records every port call the kernel makes, and
    flushes the write queues each settle hands it."""

    def __init__(self, hooks: bool):
        self.calls = []
        self.join = self._join if hooks else None
        self.release = self._release if hooks else None

    def _join(self, row, call_id):
        self.calls.append(("join", row, call_id))

    def _release(self, row, call_id):
        self.calls.append(("release", row, call_id))

    def skip(self, row):
        self.calls.append(("skip", row))

    def settle(self, row, call_index, call_id, initial_dc, ended, client):
        self.calls.append(("settle", row, call_index, call_id, initial_dc,
                           ended, sum(map(len, client.queues))))
        client.flush()
        # Call "a" migrates at its freeze; everything else stays put.
        return ("dc-virginia", True) if call_id == "a" else (initial_dc,
                                                             False)


class TestWindowKernel:
    """serve_rows against a recording port: the one place the "one port
    call per scheduled row" contract is pinned."""

    START, JOIN, MEDIA, FREEZE, END = (
        EVENT_SORT_CODE[kind] for kind in (
            EventType.CALL_START, EventType.PARTICIPANT_JOIN,
            EventType.MEDIA_CHANGE, EventType.CONFIG_FREEZE,
            EventType.CALL_END))

    @staticmethod
    def _trace():
        def call(call_id, country):
            return Call(call_id=call_id, start_s=0.0, duration_s=900.0,
                        participants=[Participant(
                            f"{call_id}-p0", country, 0.0, MediaType.AUDIO)])

        return ColumnarTrace.from_trace(CallTrace(
            [call("a", "JP"), call("b", "DE"), call("c", "US")], []))

    def _serve(self, topology, hooks):
        # a: served normally, joined again after its freeze;
        # b: hangs up before its freeze;  c: never starts (malformed).
        trace = self._trace()
        jp, de = trace.countries.code("JP"), trace.countries.code("DE")
        a, b, c = 0, 1, 2
        stream = [
            (a, self.START, jp, -1),    # 0
            (b, self.START, de, -1),    # 1
            (a, self.JOIN, de, -1),     # 2
            (c, self.JOIN, -1, -1),     # 3  join without a country
            (b, self.END, -1, -1),      # 4  early end
            (a, self.FREEZE, -1, -1),   # 5
            (b, self.FREEZE, -1, -1),   # 6  settles an ended call
            (c, self.FREEZE, -1, -1),   # 7  freeze of an unknown call
            (a, self.JOIN, jp, -1),     # 8  post-freeze join
            (a, self.MEDIA, -1, -1),    # 9  media change without media
            (a, self.END, -1, -1),      # 10
            (c, self.END, -1, -1),      # 11 end of an unknown call
            (c, self.START, -1, -1),    # 12 start without a country
        ]
        worker = WorkerState(topology)
        store = InMemoryKVStore()
        port = RecordingPort(hooks)
        serve_rows(worker, trace, range(len(stream)), *zip(*stream),
                   PipelinedStateClient(store), port)
        return worker, store, port

    def test_every_scheduled_row_makes_exactly_one_port_call(self, topology):
        worker, store, port = self._serve(topology, hooks=True)
        assert port.calls == [
            ("join", 2, "a"),
            ("skip", 3),
            ("skip", 4),
            # a's settle takes both opens and a's join; b's, a's migrate.
            ("settle", 5, 0, "a", "dc-tokyo", False, 9),
            ("settle", 6, 1, "b", "dc-frankfurt", True, 3),
            ("skip", 7),
            ("join", 8, "a"),
            ("release", 10, "a"),
            ("skip", 11),
        ]
        assert worker.counts() == dict(
            processed=8, dropped=5, joins=2, media_changes=0, generated=2,
            early_ended=1, ended=2)
        assert worker.fragment()["unsettled"] == 0
        # Both calls closed: only the (zeroed) per-DC load counters stay.
        assert store._data == {"dcload:dc-tokyo": 0, "dcload:dc-virginia": 0,
                               "dcload:dc-frankfurt": 0}

    def test_without_hooks_only_freezes_reach_the_port(self, topology):
        worker, _, port = self._serve(topology, hooks=False)
        assert port.calls == [
            ("settle", 5, 0, "a", "dc-tokyo", False, 9),
            ("settle", 6, 1, "b", "dc-frankfurt", True, 3),
            ("skip", 7),
        ]
        assert worker.counts()["dropped"] == 5

    def test_round_trip_budget_per_lifecycle_step(self, topology):
        """Exact store round-trips per row, call state and slot ledger on
        one two-shard store.  START, JOIN, MEDIA and END make none: every
        call-side write joins its shard's queue.  A FREEZE makes one
        trip, on its ledger cell's shard, which carries that shard's
        queue and the fused snapshot+debit, plus one per preference-walk
        debit; a window's leftover queues leave as one tail batch, one
        trip per shard with writes."""
        self._check_budget(topology, "carried", 2)

    def test_round_trip_budget_on_a_one_shard_store(self, topology):
        """One shard, one queue: a settle carries every write queued."""
        self._check_budget(topology, "carried", 1)

    @pytest.mark.parametrize("arm", ["down", "local"])
    def test_round_trip_budget_when_the_settle_cannot_carry(self, topology,
                                                            arm):
        """A settle with no debit trip on the call-side store — a down
        initial DC (a snapshot only) or a ledger outside the store —
        sends every queue as one batch just before it."""
        self._check_budget(topology, arm, 2)

    def _check_budget(self, topology, arm, n_shards):
        trace = self._trace()
        jp, de = trace.countries.code("JP"), trace.countries.code("DE")
        video = MediaType.VIDEO.code
        a, b, c = 0, 1, 2
        # Plan has a's slot in Virginia only.  Carried: the fused trip
        # misses Tokyo, one walk debit lands.  Down: the flush, a
        # snapshot, the walk debit.  Local: the flush.  b takes its slot
        # at Frankfurt; its trip (or, local, its flush) carries a's
        # migrate, which on two shards is two queues when flushed.
        a_freeze, b_freeze = {"carried": (2, 1), "down": (3, 1),
                              "local": (1, n_shards)}[arm]
        windows = [[  # (row, round-trips it costs)
            ((a, self.START, jp, -1), 0),
            ((b, self.START, de, -1), 0),
            ((a, self.JOIN, de, -1), 0),
            ((b, self.JOIN, jp, -1), 0),
            ((a, self.MEDIA, -1, video), 0),
        ], [
            ((b, self.END, -1, -1), 0),     # early end: nothing to write
            ((a, self.JOIN, jp, -1), 0),
            ((a, self.FREEZE, -1, -1), a_freeze),
            ((b, self.FREEZE, -1, -1), b_freeze),
            ((c, self.FREEZE, -1, -1), 0),  # unknown call
            ((a, self.JOIN, jp, -1), 0),
            ((a, self.END, -1, -1), 0),
            ((a, self.JOIN, de, -1), 0),    # after the hangup: no write
            ((a, self.MEDIA, -1, video), 0),
        ]]

        def config(country):
            return CallConfig.build({country: 1}, MediaType.AUDIO)

        plan = AllocationPlan(
            slots=make_slots(3600.0, 1800.0),
            shares={(0, config("JP")): {"dc-virginia": 1.0},
                    (0, config("DE")): {"dc-frankfurt": 1.0}})
        store = (InMemoryKVStore() if n_shards == 1
                 else ShardedKVStore(n_shards=n_shards))
        if arm == "local":
            ledger = LocalSlotLedger.from_plan(plan)
        else:
            ledger = KVSlotLedger(store)
            ledger.load_plan(plan)
        selector = RealTimeSelector(topology, plan, ledger=ledger)
        if arm == "down":
            selector.down_dcs = {"dc-tokyo"}
        port = LocalPort(selector, ledger, None, LatencyHistogram(), store)
        port.open(trace)
        worker = WorkerState(topology)
        client = PipelinedStateClient(store)
        batches = []  # every store wait's ops, in order
        execute_batch = store.execute_batch

        def recording(ops):
            batches.append(list(ops))
            return execute_batch(ops)

        store.execute_batch = recording
        # Window 0 leaves both opens, two joins and a media write; window
        # 1 leaves b's close, a's pre-freeze join and a's close.  On two
        # shards each tail has writes for both.
        tails = []
        for window in windows:
            marks = []

            def rows():
                # The kernel pulls a row number just before serving that
                # row, and once more before its end-of-window flush.
                for row in range(len(window)):
                    marks.append(store.trip_count)
                    yield row
                marks.append(store.trip_count)

            serve_rows(worker, trace, rows(),
                       *zip(*(row for row, _ in window)), client, port)
            assert [after - before
                    for before, after in zip(marks, marks[1:])] == \
                [cost for _, cost in window]
            assert store.trip_count - marks[-1] == n_shards
            tails.append(batches[-1])
        assert (port.migrated, port.admitted, port.overflowed) == (1, 1, 0)
        assert worker.counts() == dict(
            processed=13, dropped=1, joins=5, media_changes=2, generated=2,
            early_ended=1, ended=2)
        assert not [key for key in dump_store_state(store)
                    if key.startswith("call:")]
        if n_shards == 1:
            return

        # The routes that make the two-shard case bite: both calls live on
        # one shard and both ledger cells on the other, with Virginia's
        # load counter.
        shard = store.shard_index
        assert shard("call:{a}") == shard("call:{b}") == 1
        assert shard("dcload:dc-virginia") == 0
        if arm != "local":
            assert {shard(ledger.cell_key(0, config(country)))
                    for country in ("JP", "DE")} == {0}
        a_join = ("hincrby", ("call:{a}:spread", "JP", 1))
        virginia = ("incr", ("dcload:dc-virginia", 1))
        settles = [ops for ops in batches
                   if any(name == "htake" for name, _ in ops)]
        for ops in settles:
            # A carried settle's trip touches one shard: its cell's.
            assert {shard(args[0]) for _, args in ops} == {0}
        # a joins from Japan once before its freeze and once after.
        if arm == "carried":
            assert len(settles) == 2
            # The pre-freeze join, queued on the calls' shard, waits for
            # the window tail beside the post-freeze one; a's migrate's
            # Virginia increment, queued on the cells' shard, leaves with
            # b's settle.
            assert a_join not in settles[0] and tails[1].count(a_join) == 2
            assert virginia in settles[1] and virginia not in tails[1]
        else:
            # A settle that cannot carry sends every queue ahead of it.
            assert tails[1].count(a_join) == 1 and virginia not in tails[1]


class TestKVSlotLedger:
    CONFIG = CallConfig.build({"JP": 2}, MediaType.AUDIO)
    EMPTY_CONFIG = CallConfig.build({"US": 3}, MediaType.VIDEO)

    def _plan(self):
        return AllocationPlan(
            slots=make_slots(3600.0, 1800.0),
            shares={(0, self.CONFIG): {"dc-a": 2.0, "dc-b": 1.0},
                    (0, self.EMPTY_CONFIG): {"dc-a": 0.4}},  # rounds to zero
        )

    def test_matches_local_ledger(self):
        plan = self._plan()
        local = LocalSlotLedger.from_plan(plan)
        kv = KVSlotLedger(ShardedKVStore(n_shards=4))
        kv.load_plan(plan)
        assert kv.snapshot(0, self.CONFIG) == local.snapshot(0, self.CONFIG)
        # Both agree on unplanned cells...
        other = CallConfig.build({"DE": 2}, MediaType.AUDIO)
        assert kv.snapshot(0, other) is None
        assert local.snapshot(0, other) is None
        # ...and debit sequences produce identical decisions, through
        # the plain debit and through the fused settle call alike.
        for ledger in (local, kv):
            assert ledger.try_debit(0, self.CONFIG, "dc-a")
            assert ledger.snapshot_and_debit(0, self.CONFIG, "dc-a") == \
                ({"dc-a": 1, "dc-b": 1}, True)
            assert not ledger.try_debit(0, self.CONFIG, "dc-a")
            assert ledger.snapshot_and_debit(0, self.CONFIG, "dc-a") == \
                ({"dc-a": 0, "dc-b": 1}, False)
            assert ledger.snapshot_and_debit(0, self.CONFIG, "dc-b") == \
                ({"dc-a": 0, "dc-b": 1}, True)
            assert ledger.snapshot_and_debit(0, other, "dc-a") == \
                (None, False)
        assert kv.snapshot(0, self.CONFIG) == local.snapshot(0, self.CONFIG)

    def test_zero_slot_cell_reads_planned_not_unplanned(self):
        """A cell whose shares integerize to nothing must still read as
        *planned* (-> overflow handling), not None (-> fallback)."""
        kv = KVSlotLedger(ShardedKVStore(n_shards=4))
        kv.load_plan(self._plan())
        snapshot = kv.snapshot(0, self.EMPTY_CONFIG)
        assert snapshot is not None
        assert all(count <= 0 for count in snapshot.values())

    def test_failed_debit_is_undone(self):
        """A refused debit — exhausted DC, DC the cell never had, cell
        the plan never had — leaves the store byte-identical (nothing
        created, nothing negative) and costs one trip."""
        store = ShardedKVStore(n_shards=2)
        kv = KVSlotLedger(store)
        kv.load_plan(self._plan())
        assert kv.try_debit(0, self.CONFIG, "dc-b")  # dc-b: 1 -> 0
        state, trips = dump_store_state(store), store.trip_count
        other = CallConfig.build({"DE": 2}, MediaType.AUDIO)
        for config, dc in ((self.CONFIG, "dc-b"),
                           (self.CONFIG, "dc-missing"),
                           (self.EMPTY_CONFIG, "dc-a"),
                           (other, "dc-a")):
            assert not kv.try_debit(0, config, dc)
            assert not kv.snapshot_and_debit(0, config, dc)[1]
        assert dump_store_state(store) == state
        assert store.trip_count == trips + 8
        assert min(kv.snapshot(0, self.CONFIG).values()) == 0

    def test_concurrent_debits_never_oversubscribe(self):
        import threading

        plan = AllocationPlan(
            slots=make_slots(3600.0, 1800.0),
            shares={(0, self.CONFIG): {"dc-a": 50.0}},
        )
        kv = KVSlotLedger(ShardedKVStore(n_shards=4))
        kv.load_plan(plan)
        wins, seen = [], []
        lock = threading.Lock()

        def contend(fused):
            # Half the debitors take through the fused settle call, whose
            # snapshot also shows what a concurrent reader would see.
            mine, low = 0, 0
            for _ in range(20):
                if fused:
                    cell, took = kv.snapshot_and_debit(0, self.CONFIG,
                                                       "dc-a")
                    low = min(low, cell["dc-a"])
                else:
                    took = kv.try_debit(0, self.CONFIG, "dc-a")
                mine += took
            with lock:
                wins.append(mine)
                seen.append(low)

        threads = [threading.Thread(target=contend, args=(i % 2 == 0,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(wins) == 50  # 160 attempts, exactly 50 slots granted
        assert min(seen) == 0   # no reader ever saw the cell negative
        assert kv.snapshot(0, self.CONFIG)["dc-a"] == 0


class TestServiceReport:
    def _report(self, **overrides):
        values = dict(n_workers=2, n_shards=4, generated_calls=10,
                      admitted_calls=7, migrated_calls=2, overflowed_calls=1)
        values.update(overrides)
        return ServiceReport(**values)

    def test_exact_partition(self):
        report = self._report()
        assert report.settled_calls == 10
        assert report.accounting_exact
        report.require_exact_accounting()

    def test_lost_call_detected(self):
        report = self._report(admitted_calls=6)
        assert not report.accounting_exact
        with pytest.raises(SwitchboardError):
            report.require_exact_accounting()

    def test_unsettled_detected(self):
        report = self._report(generated_calls=11, unsettled_calls=1)
        assert not report.accounting_exact

    def test_summary_and_dict(self):
        report = self._report()
        text = report.summary()
        assert "10 generated" in text
        assert "accounting exact: True" in text
        dumped = report.to_dict()
        assert dumped["accounting_exact"] is True
        assert dumped["generated_calls"] == 10


class TestEventStreamContract:
    def test_engine_consumes_event_stream_output(self, topology, plan, load):
        """build_event_batch() and the engine agree on the payload
        contract: every event kind the sorter emits is handled, none
        dropped."""
        assert set(np.unique(load.batch.type_code).tolist()) == \
            set(EVENT_SORT_CODE.values())
        engine = AdmissionEngine(topology, plan,
                                 store=ShardedKVStore(n_shards=2))
        report = engine.run(load.batch)
        assert report.dropped_events == 0
