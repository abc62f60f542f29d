"""Columnar data plane: round-trips, stream parity, pinned event order.

The struct-of-arrays pipeline (ColumnarTrace -> ColumnarEventBatch ->
engine) must be observably identical to the per-call object reference
(``CallTrace`` -> ``event_stream``): same calls, same events in the same
order, same demand matrices.  These tests pin that equivalence plus the
explicit equal-timestamp event total order both sorters share, and the
streaming iterator's bounded memory.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.types import Call, MediaType, Participant, make_slots
from repro.config import PlannerConfig
from repro.controller.columnar import (
    build_event_batch,
    events_per_call,
    iter_event_batches,
)
from repro.controller.events import (
    EVENT_SORT_CODE,
    EventType,
    event_stream,
    events_of_call,
    peak_event_rate,
)
from repro.kvstore import InMemoryKVStore
from repro.service import AdmissionEngine
from repro.switchboard import Switchboard
from repro.workload.columnar import ColumnarTrace, concat_traces
from repro.workload.trace import CallTrace, TraceGenerator


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def load(cut_load):
    return cut_load(2000)


def chunked_day(day, n_calls):
    """The first ``n_calls`` of the day, regenerated chunk by chunk from
    its trace seed: the bounded-memory serving path."""
    return iter_event_batches(
        TraceGenerator(seed=day.seed + 1).iter_chunks(day.sampled_demand),
        max_calls=n_calls)


@pytest.fixture(scope="module")
def trace(load):
    """The generated load as ``Call`` objects: the reference's input."""
    return load.columnar.to_trace()


@pytest.fixture(scope="module")
def stream(trace, load):
    """The per-call reference stream for the generated load."""
    return event_stream(trace, load.freeze_window_s)


@pytest.fixture(scope="module")
def plan(topology, load):
    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(load.demand, with_backup=False)
    return controller.allocate(load.demand, capacity).plan


def handcrafted_trace() -> CallTrace:
    """Edge-case calls: early hangup, media upgrades, single participant,
    non-canonical ids, tied join offsets."""
    calls = [
        # Early hangup: ends before the 300 s freeze point.
        Call("call-00000000", 10.0, 120.0, [
            Participant("call-00000000-p0", "IN", 0.0, MediaType.AUDIO),
            Participant("call-00000000-p1", "JP", 45.0, MediaType.VIDEO),
        ]),
        # Media upgrades: audio -> video -> screen share mid-call.
        Call("call-00000001", 40.0, 3600.0, [
            Participant("call-00000001-p0", "US", 0.0, MediaType.AUDIO),
            Participant("call-00000001-p2", "US", 30.0, MediaType.VIDEO),
            Participant("call-00000001-p1", "BR", 400.0,
                        MediaType.SCREEN_SHARE),
        ]),
        # Single participant.
        Call("call-00000002", 55.0, 900.0, [
            Participant("call-00000002-p0", "DE", 0.0, MediaType.AUDIO),
        ]),
        # Non-canonical ids + tied join offsets (first joiner resolved by
        # participant id).
        Call("meeting-xyz", 70.0, 1800.0, [
            Participant("guest-b", "FR", 0.0, MediaType.AUDIO),
            Participant("guest-a", "GB", 0.0, MediaType.VIDEO),
        ]),
    ]
    return CallTrace(calls, make_slots(1800.0))


#: sort/type code -> EventType (inverse of EVENT_SORT_CODE).
KINDS = sorted(EVENT_SORT_CODE, key=EVENT_SORT_CODE.get)


def as_tuples(events):
    return [(e.t_s, e.event_type, e.call_id, e.country, e.media)
            for e in events]


def batch_tuples(batch):
    """A batch's rows decoded into :func:`as_tuples`' form."""
    trace = batch.trace
    return [
        (t, KINDS[code], trace.call_id(call),
         trace.countries.value(country) if country >= 0 else None,
         MediaType.from_code(media) if media >= 0 else None)
        for t, call, code, country, media in zip(
            batch.t_s.tolist(), batch.call_idx.tolist(),
            batch.type_code.tolist(), batch.country_code.tolist(),
            batch.media_code.tolist())
    ]


# ----------------------------------------------------------------------
# satellite 1: vectorized peak_event_rate == the old implementation
# ----------------------------------------------------------------------
class TestPeakEventRate:
    @staticmethod
    def _reference(events, window_s=60.0):
        """The retired pure-Python implementation, verbatim semantics."""
        counts = {}
        for e in events:
            counts[int(e.t_s // window_s)] = counts.get(int(e.t_s // window_s), 0) + 1
        return max(counts.values()) / window_s

    def test_matches_old_impl_on_seeded_trace(self, load, stream):
        for window in (30.0, 60.0, 600.0):
            assert peak_event_rate(load.batch, window) == pytest.approx(
                self._reference(stream, window))


# ----------------------------------------------------------------------
# satellite 2: pinned tie-break order at equal timestamps
# ----------------------------------------------------------------------
class TestEventTieBreakOrder:
    def test_sort_code_total_order(self):
        # The contract: lifecycle order, not alphabetical EventType.value.
        assert [EVENT_SORT_CODE[k] for k in (
            EventType.CALL_START, EventType.PARTICIPANT_JOIN,
            EventType.MEDIA_CHANGE, EventType.CONFIG_FREEZE,
            EventType.CALL_END)] == [0, 1, 2, 3, 4]
        assert EventType.MEDIA_CHANGE.sort_code == 2

    def test_equal_timestamp_events_follow_pinned_order(self):
        # One call where everything collides at t=300: a video joiner at
        # the freeze offset, the freeze itself, and the hangup.
        call = Call("call-00000000", 0.0, 300.0, [
            Participant("call-00000000-p0", "IN", 0.0, MediaType.AUDIO),
            Participant("call-00000000-p1", "JP", 300.0, MediaType.VIDEO),
        ])
        trace = CallTrace([call], make_slots(1800.0))
        stream = event_stream(trace, freeze_window_s=300.0)
        collided = [e.event_type for e in stream if e.t_s == 300.0]
        assert collided == [EventType.PARTICIPANT_JOIN,
                            EventType.MEDIA_CHANGE,
                            EventType.CONFIG_FREEZE,
                            EventType.CALL_END]
        # The columnar sorter pins the identical order.
        batch = build_event_batch(ColumnarTrace.from_trace(trace),
                                  freeze_window_s=300.0)
        assert batch_tuples(batch) == as_tuples(stream)

    def test_cross_call_ties_break_by_trace_position(self):
        calls = [
            Call("z-call", 100.0, 600.0,
                 [Participant("z-p0", "US", 0.0, MediaType.AUDIO)]),
            Call("a-call", 100.0, 600.0,
                 [Participant("a-p0", "US", 0.0, MediaType.AUDIO)]),
        ]
        trace = CallTrace(calls, make_slots(1800.0))
        stream = event_stream(trace)
        # Trace position wins, not call-id collation.
        assert [e.call_id for e in stream[:2]] == ["z-call", "a-call"]
        batch = build_event_batch(ColumnarTrace.from_trace(trace))
        assert batch_tuples(batch) == as_tuples(stream)


# ----------------------------------------------------------------------
# satellite 3a: columnar <-> object round trips are lossless
# ----------------------------------------------------------------------
class TestRoundTrip:
    def assert_traces_equal(self, a: CallTrace, b: CallTrace):
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert ca.call_id == cb.call_id
            assert ca.start_s == cb.start_s
            assert ca.duration_s == cb.duration_s
            assert len(ca.participants) == len(cb.participants)
            for pa, pb in zip(ca.participants, cb.participants):
                assert pa.participant_id == pb.participant_id
                assert pa.country == pb.country
                assert pa.join_offset_s == pb.join_offset_s
                assert pa.media == pb.media

    def test_handcrafted_edge_cases(self):
        trace = handcrafted_trace()
        back = ColumnarTrace.from_trace(trace).to_trace()
        self.assert_traces_equal(trace, back)

    def test_first_joiner_resolves_ties_by_id(self):
        trace = handcrafted_trace()
        columnar = ColumnarTrace.from_trace(trace)
        # The tied call (both join at 0.0): id order picks guest-a.
        assert trace.calls[3].first_joiner.participant_id == "guest-a"
        assert columnar.call(3).first_joiner.participant_id == "guest-a"

    def test_generated_trace_round_trip(self, trace):
        back = ColumnarTrace.from_trace(trace)
        self.assert_traces_equal(trace, back.to_trace())
        # Generated canonical ids need no override dicts.
        assert not back.call_id_overrides
        assert not back.part_id_overrides

    def test_configs_and_aggregates_match(self, load, trace):
        columnar = load.columnar
        for freeze in (None, 300.0):
            for i, call in enumerate(trace.calls):
                assert call.config(freeze) == columnar.config_of(i, freeze)
        assert columnar.majority_matches_first_joiner_rate() == \
            pytest.approx(trace.majority_matches_first_joiner_rate())
        np.testing.assert_allclose(
            np.sort(columnar.join_offsets()), np.sort(trace.join_offsets()))

    def test_to_demand_parity(self, load, trace):
        for freeze in (None, 300.0):
            d_obj = trace.to_demand(freeze_after_s=freeze)
            d_col = load.columnar.to_demand(freeze_after_s=freeze)
            assert d_obj.configs == d_col.configs
            np.testing.assert_array_equal(d_obj.counts, d_col.counts)


# ----------------------------------------------------------------------
# stream parity: same events, same order, object vs columnar vs chunks
# ----------------------------------------------------------------------
class TestStreamParity:
    def test_event_stream_equality(self, load, stream):
        assert batch_tuples(load.batch) == as_tuples(stream)

    def test_events_per_call_matches_object_count(self, load, trace):
        counts = events_per_call(load.columnar)
        for i, call in enumerate(trace.calls):
            assert counts[i] == len(events_of_call(call, load.freeze_window_s))

    def test_streaming_equals_generate(self, service_day, load):
        chunks = list(chunked_day(service_day, load.n_calls))
        assert sum(map(len, chunks)) == load.n_events
        assert len(chunks) > 1  # genuinely chunked
        # Whole calls per batch, and chunk traces re-concatenate to the
        # generated trace.
        merged = concat_traces([b.trace for b in chunks])
        assert merged.n_calls == load.n_calls
        np.testing.assert_array_equal(merged.call_uid,
                                      load.columnar.call_uid)
        np.testing.assert_array_equal(merged.start_s, load.columnar.start_s)
        # Same multiset of events as the one-shot batch, each batch
        # internally time-sorted.
        streamed = sorted(
            (t for b in chunks for t in batch_tuples(b)),
            key=lambda t: (t[0], t[2], EVENT_SORT_CODE[t[1]]))
        oneshot = sorted(
            batch_tuples(load.batch),
            key=lambda t: (t[0], t[2], EVENT_SORT_CODE[t[1]]))
        assert streamed == oneshot
        for b in chunks:
            assert np.all(np.diff(b.t_s) >= 0)

    def test_batch_slicing_and_splitting(self, load):
        batch = load.batch
        head = batch.slice(0, 100)
        assert len(head) == 100
        assert head.trace is batch.trace
        assert batch_tuples(head) == batch_tuples(batch)[:100]
        cuts = [0, *np.searchsorted(
            batch.t_s, [batch.t_s[0] + 3600.0, batch.t_s[0] + 7200.0]),
            len(batch)]
        pieces = [batch.slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(
            np.concatenate([p.t_s for p in pieces]), batch.t_s)

    @staticmethod
    def _traced_peak(build):
        """Peak bytes traced while ``build()`` runs, and its result."""
        tracemalloc.start()
        try:
            result = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, result

    def test_streaming_peak_is_bounded(self, service_day):
        """Draining the streaming iterator holds one chunk at a time: over
        whole diurnal days, doubling the horizon doubles the chunk count
        but not the busiest chunk, so the traced peak stays flat, and it
        stays below the peak of building the materialized batch."""
        def peaks(horizon_s):
            demand = service_day.demand_model.sample(make_slots(horizon_s),
                                                     seed=7)
            streaming, n_events = self._traced_peak(lambda: sum(
                len(batch) for batch in iter_event_batches(
                    TraceGenerator(seed=8).iter_chunks(demand))))
            materialized, full = self._traced_peak(lambda: build_event_batch(
                TraceGenerator(seed=8).generate_columnar(demand)))
            assert len(full) == n_events
            return streaming, materialized

        day_streaming, _ = peaks(86400.0)
        streaming, materialized = peaks(2 * 86400.0)
        growth = streaming / day_streaming
        assert growth < 1.6, f"streaming peak grew {growth:.2f}x with 2x trace"
        assert streaming < materialized

    def test_iter_event_batches_truncates_at_call_granularity(self, load):
        chunks = list(TraceGenerator(seed=99).iter_chunks(
            load.demand, chunk_slots=4))
        batches = list(iter_event_batches(chunks, max_calls=25))
        assert sum(b.trace.n_calls for b in batches) == 25


# ----------------------------------------------------------------------
# serving: one-row, one-shot and streamed batches agree
# ----------------------------------------------------------------------
class TestAccountingParity:
    @staticmethod
    def accounting(report):
        report.require_exact_accounting()
        return (report.generated_calls, report.admitted_calls,
                report.migrated_calls, report.overflowed_calls,
                report.unplanned_calls, report.early_ended_calls,
                report.ended_calls, report.unsettled_calls,
                report.joins, report.media_changes, report.dropped_events,
                report.events_processed)

    @staticmethod
    def run_path(topology, plan, events):
        return AdmissionEngine(topology, plan,
                               store=InMemoryKVStore()).run(events)

    def test_store_state_parity(self, topology, plan, load):
        """The kernel batches each call's join writes per window, at
        every worker count; the final store contents and per-op counts
        must still match per-event writes.  The oracle serves one row
        per batch, so every buffered join is flushed on its own."""
        oracle = InMemoryKVStore()
        AdmissionEngine(topology, plan, store=oracle).run(
            load.batch.slice(i, i + 1) for i in range(len(load.batch)))
        for n_workers in (1, 2, 4):
            store = InMemoryKVStore()
            AdmissionEngine(topology, plan, store=store,
                            n_workers=n_workers).run(load.batch)
            assert store._data == oracle._data, n_workers
            assert store.op_count == oracle.op_count, n_workers

    def test_streaming_batches_accounting(self, topology, plan, service_day,
                                          load):
        stream_report = self.run_path(topology, plan,
                                      chunked_day(service_day, load.n_calls))
        oneshot = self.run_path(topology, plan, load.batch)
        assert self.accounting(stream_report) == self.accounting(oneshot)
