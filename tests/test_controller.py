"""Tests for controller events and one call's lifecycle through the
serving core over a server-level fleet ledger."""

import numpy as np
import pytest

from repro.core.errors import WorkloadError
from repro.core.types import Call, CallConfig, MediaType, Participant, make_slots
from repro.core.units import to_microcores
from repro.allocation.plan import AllocationPlan
from repro.controller.columnar import ColumnarEventBatch, build_event_batch
from repro.controller.events import (
    EVENT_SORT_CODE,
    EventType,
    event_stream,
    events_of_call,
    peak_event_rate,
)
from repro.packing import FleetLedger, make_policy
from repro.service import ServiceRuntime
from repro.workload.columnar import ColumnarTrace
from repro.workload.media import MediaLoadModel
from repro.workload.trace import CallTrace


def _call(call_id="c1", start=100.0):
    return Call(call_id, start, 1200.0, participants=[
        Participant(f"{call_id}-a", "JP", 0.0, MediaType.AUDIO),
        Participant(f"{call_id}-b", "JP", 30.0, MediaType.VIDEO),
        Participant(f"{call_id}-c", "IN", 400.0, MediaType.AUDIO),
    ])


def _batch(*calls):
    """The calls' event stream as the engine serves it."""
    return build_event_batch(ColumnarTrace.from_trace(
        CallTrace(list(calls), make_slots(3600.0))))


def _rows(batch, mask):
    """The rows of ``batch`` that ``mask`` selects, as a batch."""
    return ColumnarEventBatch(batch.trace, batch.t_s[mask],
                              batch.call_idx[mask], batch.type_code[mask],
                              batch.country_code[mask], batch.media_code[mask])


class TestEvents:
    def test_event_sequence_of_call(self):
        events = events_of_call(_call())
        types = [e.event_type for e in events]
        assert types[0] is EventType.CALL_START
        assert types.count(EventType.PARTICIPANT_JOIN) == 2
        assert types.count(EventType.MEDIA_CHANGE) == 1  # audio -> video
        assert types.count(EventType.CONFIG_FREEZE) == 1
        assert types[-1] is EventType.CALL_END or (
            EventType.CALL_END in types
        )

    def test_freeze_event_time(self):
        events = events_of_call(_call(), freeze_window_s=300.0)
        freeze = next(e for e in events if e.event_type is EventType.CONFIG_FREEZE)
        assert freeze.t_s == pytest.approx(400.0)  # start 100 + A 300

    def test_stream_is_time_sorted(self):
        trace = CallTrace([_call("a", 0.0), _call("b", 50.0)],
                          make_slots(3600.0))
        events = event_stream(trace)
        times = [e.t_s for e in events]
        assert times == sorted(times)

    def test_peak_event_rate(self):
        batch = _batch(_call("a", 0.0), _call("b", 1.0))
        # Both calls start, join and escalate inside the first minute.
        assert peak_event_rate(batch, window_s=60.0) == 6 / 60.0

    def test_empty_raises(self):
        with pytest.raises(WorkloadError):
            peak_event_rate(_batch(_call()).slice(0, 0))


class TestControllerWithFleet:
    """One call through the engine over a ``FleetLedger``: it lands
    on a specific MP server at its freeze, moves with a migration, and
    releases everything — server and store state — at its end."""

    def _serve(self, topology, plan_dc, batch):
        config = CallConfig.build({"JP": 2}, MediaType.VIDEO)
        plan = AllocationPlan(
            slots=make_slots(3600.0, 1800.0),
            shares={(0, config): {plan_dc: 5.0}},
        )
        # Generous fleets in the two DCs this test can touch.
        ledger = FleetLedger({"dc-tokyo": 64.0, "dc-seoul": 64.0},
                             make_policy("first_fit"))
        runtime = ServiceRuntime.from_config(topology, plan, ledger=ledger)
        return runtime, ledger, runtime.run(batch)

    def test_call_lands_on_server_and_releases(self, topology):
        batch = _batch(_call())
        runtime, ledger, report = self._serve(topology, "dc-tokyo", batch)
        report.require_exact_accounting()
        assert (report.generated_calls, report.ended_calls) == (1, 1)
        assert (report.joins, report.media_changes) == (2, 1)
        assert report.events_processed == len(batch)
        # Frozen config is (JP-2, video), the plan's: no migration.
        assert report.migrated_calls == 0
        assert report.migration_rate == 0.0
        # Everything released at call end: the server ...
        assert report.packing["placements"] == 1
        assert report.packing["releases"] == 1
        assert ledger.server_of("c1") is None
        fleet = ledger.fleet("dc-tokyo")
        assert fleet.call_count.sum() == 0
        assert (fleet.free_mc == fleet.usable_mc).all()
        # ... and the store: no per-call key, every DC's load back to 0.
        state = runtime.store_state()
        assert not [key for key in state if key.startswith("call:")]
        assert all(value == 0 for key, value in state.items()
                   if key.startswith("dcload:"))

    def test_usage_trued_up_at_freeze(self, topology):
        call = _call()
        batch = _batch(call)
        [freeze] = np.flatnonzero(
            batch.type_code == EVENT_SORT_CODE[EventType.CONFIG_FREEZE])
        _, ledger, _ = self._serve(topology, "dc-tokyo",
                                   batch.slice(0, freeze + 1))
        assert ledger.server_of("c1").startswith("dc-tokyo/")
        assert ledger.fleet("dc-tokyo").call_count.sum() == 1
        # The server holds the frozen (JP-2, video) config's cores — the
        # IN joiner at 400 s is past the freeze and not yet served.
        frozen_cores = MediaLoadModel().call_cores(call.config(300.0))
        assert ledger.held_mc_of("c1") == to_microcores(frozen_cores)

    def test_fleet_migration_follows_plan(self, topology):
        batch = _batch(_call())
        no_end = _rows(batch, batch.type_code
                       != EVENT_SORT_CODE[EventType.CALL_END])
        # The plan disagrees with the closest DC (dc-tokyo).
        _, ledger, report = self._serve(topology, "dc-seoul", no_end)
        assert report.migrated_calls == 1
        assert report.migration_rate == 1.0
        assert ledger.server_of("c1").startswith("dc-seoul/")
        assert ledger.fleet("dc-tokyo").call_count.sum() == 0
        assert ledger.fleet("dc-seoul").call_count.sum() == 1
