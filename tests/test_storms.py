"""Scenario storms: DSL composition, columnar overlay edges, harness.

Pins the `repro.storms` contracts: window algebra (`then` shifts,
`overlay` keeps absolute windows), demand faces touching exactly their
slots, the columnar trace faces (byte-identical identity, multiplicative
overlap, day-boundary clock wrap, lossless round-trips), deterministic
fault-plan merging, and the chaos harness serving every named storm on
both executors with its declared invariants intact.
"""

import numpy as np
import pytest

from repro.core.errors import SwitchboardError, WorkloadError
from repro.core.types import Call, MediaType, Participant, make_slots
from repro.core.units import DEFAULT_SLOT_S
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.storms import (
    ClockShift,
    FlashCrowd,
    LinkCut,
    RecurringSeries,
    RegionalOutage,
    Storm,
    StormPlan,
    SynchronizedJoins,
    check_storm_report,
    get_storm,
    named_storms,
    run_storm,
)
from repro.storms.catalog import all_specs
from repro.workload.arrivals import DemandModel
from repro.workload.columnar import ColumnarTrace
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.trace import CallTrace, TraceGenerator

SLOT = DEFAULT_SLOT_S
DAY = 86400.0


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def base_demand(small_topology):
    population = generate_population(small_topology.world, n_configs=6,
                                     seed=13)
    model = DemandModel(small_topology.world, population, DiurnalModel(),
                        calls_per_slot_at_peak=40.0)
    return model.expected(make_slots(DAY, SLOT))


@pytest.fixture(scope="module")
def trace(base_demand):
    rng = np.random.default_rng(14)
    realized = base_demand.scale(1.0)
    realized.counts[:] = rng.poisson(base_demand.counts)
    return TraceGenerator(seed=15).generate_columnar(realized)


def assert_traces_identical(a: ColumnarTrace, b: ColumnarTrace):
    """Byte-identical columnar content (arrays, tables, overrides)."""
    assert np.array_equal(a.start_s, b.start_s)
    assert np.array_equal(a.duration_s, b.duration_s)
    assert np.array_equal(a.call_uid, b.call_uid)
    assert np.array_equal(a.part_offsets, b.part_offsets)
    assert np.array_equal(a.join_offset_s, b.join_offset_s)
    assert np.array_equal(a.country_code, b.country_code)
    assert np.array_equal(a.media_code, b.media_code)
    assert np.array_equal(a.part_index, b.part_index)
    assert a.call_id_overrides == b.call_id_overrides
    assert a.part_id_overrides == b.part_id_overrides


def joins_then_shift_per_call(trace: ColumnarTrace,
                              joins: SynchronizedJoins,
                              shift: ClockShift) -> ColumnarTrace:
    """``joins.overlay(shift)`` one call at a time, as a naive port would.

    Compress each windowed call's join offsets so its slowest joiner
    lands within ``compress_to_s``, then shift every start modulo the
    one-day horizon and stably re-sort, slicing the CSR layout per call.
    """
    lo, hi = joins.window(DAY)
    offsets = trace.part_offsets
    rows = [slice(offsets[i], offsets[i + 1]) for i in range(trace.n_calls)]

    join = trace.join_offset_s.copy()
    for i, row in enumerate(rows):
        call_max = float(join[row].max())
        if lo <= trace.start_s[i] < hi and call_max > joins.compress_to_s:
            join[row] = join[row] * (joins.compress_to_s / call_max)

    shifted = [float((start + shift.shift_s) % DAY)
               for start in trace.start_s]
    order = sorted(range(trace.n_calls), key=lambda i: shifted[i])
    sizes = [rows[i].stop - rows[i].start for i in order]
    return trace.replace(
        start_s=np.array([shifted[i] for i in order]),
        duration_s=trace.duration_s[order],
        call_uid=trace.call_uid[order],
        part_offsets=np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        join_offset_s=np.concatenate([join[rows[i]] for i in order]),
        country_code=np.concatenate(
            [trace.country_code[rows[i]] for i in order]),
        media_code=np.concatenate([trace.media_code[rows[i]] for i in order]),
        part_index=np.concatenate([trace.part_index[rows[i]] for i in order]),
    )


# ----------------------------------------------------------------------
# DSL composition
# ----------------------------------------------------------------------
class TestComposition:
    def test_then_shifts_to_cursor(self):
        plan = (FlashCrowd(factor=2.0, start_s=9000.0, duration_s=3600.0)
                .then(FlashCrowd(factor=1.5, duration_s=1800.0)))
        first, second = plan.overlays
        assert second.start_s == first.end_s == 12600.0
        assert plan.end_s == 14400.0

    def test_overlay_keeps_absolute_windows(self):
        plan = (FlashCrowd(start_s=9000.0, duration_s=3600.0)
                .overlay(FlashCrowd(start_s=1800.0, duration_s=1800.0)))
        assert [o.start_s for o in plan.overlays] == [9000.0, 1800.0]

    def test_unbounded_overlay_does_not_advance_cursor(self):
        plan = (ClockShift(shift_s=-3600.0)
                .then(FlashCrowd(duration_s=1800.0)))
        assert plan.overlays[1].start_s == 0.0

    def test_compose_rejects_non_storms(self):
        with pytest.raises(WorkloadError, match="can only compose"):
            FlashCrowd().overlay("not-a-storm")

    def test_named_and_describe(self):
        plan = FlashCrowd(factor=2.0).plan().named("demo")
        assert plan.name == "demo"
        assert plan.describe().startswith("demo: FlashCrowd")
        assert "identity" in StormPlan().describe()

    def test_window_clamps_to_horizon(self):
        storm = FlashCrowd(start_s=9000.0, duration_s=None)
        assert storm.window(DAY) == (9000.0, DAY)
        long = FlashCrowd(start_s=9000.0, duration_s=10 * DAY)
        assert long.window(DAY) == (9000.0, DAY)

    def test_realize_is_seeded_poisson_over_stormed_counts(self, base_demand):
        plan = FlashCrowd(factor=2.0, start_s=0.0, duration_s=3600.0).plan()
        once = plan.realize(base_demand, seed=5)
        again = plan.realize(base_demand, seed=5)
        assert np.array_equal(once.counts, again.counts)
        expected = np.random.default_rng(5).poisson(
            plan.apply_demand(base_demand).counts)
        assert np.array_equal(once.counts, expected.astype(float))


# ----------------------------------------------------------------------
# demand faces
# ----------------------------------------------------------------------
class TestDemandFaces:
    def test_flash_crowd_touches_exactly_its_slots(self, base_demand):
        storm = FlashCrowd(factor=3.0, start_s=2 * SLOT, duration_s=2 * SLOT)
        out = storm.apply_demand(base_demand)
        assert np.allclose(out.counts[2:4], 3.0 * base_demand.counts[2:4])
        assert np.array_equal(out.counts[:2], base_demand.counts[:2])
        assert np.array_equal(out.counts[4:], base_demand.counts[4:])

    def test_flash_crowd_config_indices_restrict_columns(self, base_demand):
        storm = FlashCrowd(factor=2.0, start_s=0.0, duration_s=SLOT,
                           config_indices=(1, 3))
        out = storm.apply_demand(base_demand)
        assert np.allclose(out.counts[0, [1, 3]],
                           2.0 * base_demand.counts[0, [1, 3]])
        assert np.array_equal(out.counts[0, [0, 2, 4, 5]],
                              base_demand.counts[0, [0, 2, 4, 5]])

    def test_clock_shift_rolls_whole_slots(self, base_demand):
        out = ClockShift(shift_s=-3600.0).apply_demand(base_demand)
        assert np.array_equal(out.counts,
                              np.roll(base_demand.counts, -2, axis=0))

    def test_recurring_series_boosts_top_k_only(self, base_demand):
        storm = RecurringSeries(boost=2.0, top_k=2)
        out = storm.apply_demand(base_demand)
        top2 = np.argsort(-base_demand.counts.sum(axis=0),
                          kind="stable")[:2]
        rest = [j for j in range(base_demand.counts.shape[1])
                if j not in set(top2)]
        assert np.allclose(out.counts[:, top2],
                           2.0 * base_demand.counts[:, top2])
        assert np.array_equal(out.counts[:, rest],
                              base_demand.counts[:, rest])

    def test_invalid_parameters_raise(self):
        with pytest.raises(WorkloadError):
            FlashCrowd(factor=-1.0)
        with pytest.raises(WorkloadError):
            SynchronizedJoins(compress_to_s=0.0)
        with pytest.raises(WorkloadError):
            RecurringSeries(top_k=0)
        with pytest.raises(WorkloadError):
            RegionalOutage()
        with pytest.raises(WorkloadError):
            LinkCut()


# ----------------------------------------------------------------------
# columnar overlay edge cases
# ----------------------------------------------------------------------
class TestColumnarOverlayEdges:
    def test_empty_storm_is_byte_identical(self, trace, base_demand):
        plan = Storm().plan()
        assert plan.apply_trace(trace, seed=3) is trace
        out = StormPlan().apply_trace(trace, seed=3)
        assert_traces_identical(out, trace)
        assert np.array_equal(StormPlan().apply_demand(base_demand).counts,
                              base_demand.counts)

    def test_overlapping_overlays_multiply(self, base_demand):
        lo, hi = 4 * SLOT, 6 * SLOT
        plan = (FlashCrowd(factor=2.0, start_s=lo, duration_s=hi - lo)
                .overlay(FlashCrowd(factor=3.0, start_s=lo,
                                    duration_s=hi - lo)))
        out = plan.apply_demand(base_demand)
        assert np.allclose(out.counts[4:6], 6.0 * base_demand.counts[4:6])
        assert np.array_equal(out.counts[:4], base_demand.counts[:4])
        assert np.array_equal(out.counts[6:], base_demand.counts[6:])

    def test_clock_shift_wraps_across_day_boundary(self, trace):
        shift = ClockShift(shift_s=-3600.0)
        early = trace.call_uid[trace.start_s < 3600.0]
        assert early.size > 0, "need calls in the first hour to wrap"
        out = shift.apply_trace(trace, np.random.default_rng(0))

        # Start-sorted invariant restored after the wrap.
        assert (np.diff(out.start_s) >= 0).all()
        # Same call population, every start shifted modulo the horizon.
        assert set(out.call_uid.tolist()) == set(trace.call_uid.tolist())
        old = dict(zip(trace.call_uid.tolist(), trace.start_s.tolist()))
        for uid, start in zip(out.call_uid.tolist(), out.start_s.tolist()):
            assert start == pytest.approx((old[uid] - 3600.0) % DAY)
        # The first hour's calls wrapped to the last hour.
        wrapped = out.start_s[np.isin(out.call_uid, early)]
        assert (wrapped >= DAY - 3600.0).all()

    def test_synchronized_joins_compresses_window_only(self, trace):
        storm = SynchronizedJoins(compress_to_s=45.0, start_s=6 * SLOT,
                                  duration_s=4 * SLOT)
        out = storm.apply_trace(trace, np.random.default_rng(0))
        call_max = np.maximum.reduceat(out.join_offset_s,
                                       out.part_offsets[:-1])
        inside = storm._call_mask(out)
        assert (call_max[inside] <= 45.0 + 1e-9).all()
        # Outside the window, untouched.
        old_max = np.maximum.reduceat(trace.join_offset_s,
                                      trace.part_offsets[:-1])
        assert np.array_equal(call_max[~inside], old_max[~inside])

    def test_round_trip_lossless_after_overlays(self, trace):
        plan = (SynchronizedJoins(compress_to_s=45.0, start_s=0.0,
                                  duration_s=DAY / 2)
                .overlay(ClockShift(shift_s=-3600.0)))
        out = plan.apply_trace(trace, seed=11)
        back = ColumnarTrace.from_trace(out.to_trace(),
                                        countries=out.countries)
        assert_traces_identical(out, back)

    def test_joins_then_shift_match_per_call_reference(self, trace):
        joins = SynchronizedJoins(compress_to_s=45.0, start_s=0.25 * DAY,
                                  duration_s=0.5 * DAY)
        shift = ClockShift(shift_s=-3600.0)
        reference = joins_then_shift_per_call(trace, joins, shift)
        assert not np.array_equal(reference.join_offset_s,
                                  trace.join_offset_s)
        out = joins.overlay(shift).apply_trace(trace, seed=3)
        assert_traces_identical(out, reference)

    def test_dual_face_overlays_skipped_when_demand_applied(self, trace):
        plan = (FlashCrowd(factor=4.0, start_s=0.0, duration_s=DAY)
                .overlay(ClockShift(shift_s=-3600.0)))
        out = plan.apply_trace(trace, seed=11, demand_applied=True)
        # Both overlays have demand faces: the trace passes untouched.
        assert_traces_identical(out, trace)
        # Trace-only overlays still run in the same mode.
        joins = SynchronizedJoins(compress_to_s=30.0, start_s=0.0,
                                  duration_s=DAY)
        squeezed = joins.plan().apply_trace(trace, seed=11,
                                            demand_applied=True)
        call_max = np.maximum.reduceat(squeezed.join_offset_s,
                                       squeezed.part_offsets[:-1])
        assert (call_max <= 30.0 + 1e-9).all()


# ----------------------------------------------------------------------
# columnar overlay hooks (permute/repeat with overrides)
# ----------------------------------------------------------------------
def _foreign_trace() -> ColumnarTrace:
    """Three calls with non-canonical ids, exercising override tables."""
    def call(call_id, start, pids):
        return Call(call_id=call_id, start_s=start, duration_s=60.0,
                    participants=[
                        Participant(participant_id=pid, country="JP",
                                    join_offset_s=float(k),
                                    media=MediaType.AUDIO)
                        for k, pid in enumerate(pids)])
    calls = [
        call("call-00000000", 10.0, ["call-00000000-p0"]),
        call("weird:alpha", 20.0, ["weird:alpha-x", "weird:alpha-y"]),
        call("call-00000002", 30.0, ["call-00000002-p0", "guest"]),
    ]
    return ColumnarTrace.from_trace(
        CallTrace(calls, list(make_slots(1800.0, 1800.0))))


class TestOverlayHooks:
    def test_permute_remaps_override_tables(self):
        trace = _foreign_trace()
        out = trace.permute_calls(np.array([2, 0, 1]))
        ids = [c.call_id for c in out.to_trace().calls]
        assert ids == ["call-00000002", "call-00000000", "weird:alpha"]
        parts = [[p.participant_id for p in c.participants]
                 for c in out.to_trace().calls]
        assert parts == [["call-00000002-p0", "guest"],
                         ["call-00000000-p0"],
                         ["weird:alpha-x", "weird:alpha-y"]]

    def test_repeat_keeps_first_copy_and_mints_fresh_uids(self):
        trace = _foreign_trace()
        out = trace.repeat_calls(np.array([2, 0, 1]))
        calls = out.to_trace().calls
        assert len(calls) == 3
        # First copy of call 0 keeps its id; the extra gets a fresh
        # canonical uid above the current max; the dropped call is gone.
        assert calls[0].call_id == "call-00000000"
        assert calls[1].call_id == "call-00000003"
        assert calls[2].call_id == "call-00000002"
        assert [p.participant_id for p in calls[2].participants] == \
            ["call-00000002-p0", "guest"]
        assert np.array_equal(out.part_offsets, [0, 1, 2, 4])

    def test_replace_rejects_unknown_fields(self):
        trace = _foreign_trace()
        with pytest.raises(WorkloadError):
            trace.replace(not_a_field=np.zeros(3))


# ----------------------------------------------------------------------
# fault-plan composition (regression: same-day merge determinism)
# ----------------------------------------------------------------------
class TestFaultComposition:
    def test_same_day_merge_is_insertion_order_independent(self):
        a = FaultPlan().link_failure("JP--dc-tokyo", at_day=0)
        b = FaultPlan().dc_failure("dc-tokyo", at_day=0)
        ab = a.compose(b)
        ba = b.compose(a)
        assert [_key(s) for s in ab.pending()] == \
            [_key(s) for s in ba.pending()]
        # Canonical order: kind breaks the same-day tie (dc before link).
        assert [s.kind for s in ab.pending()] == \
            ["dc_failure", "link_failure"]

    def test_compose_orders_by_day_then_kind_then_target(self):
        plan = (FaultPlan().link_failure("l2", at_day=1)
                .dc_failure("dc-b", at_day=1).dc_failure("dc-a", at_day=1)
                .crash("provision"))
        merged = FaultPlan().compose(plan)
        assert [_key(s) for s in merged.pending()] == [
            (-1, "crash", "provision"),
            (1, "dc_failure", "dc-a"),
            (1, "dc_failure", "dc-b"),
            (1, "link_failure", "l2"),
        ]

    def test_compose_leaves_inputs_untouched(self):
        a = FaultPlan().dc_failure("dc-a", at_day=0)
        b = FaultPlan().dc_failure("dc-b", at_day=0)
        merged = a.compose(b)
        assert len(merged) == 2
        assert len(a) == 1 and len(b) == 1
        # Budgets are copies: consuming from the merge leaves the
        # originals intact.
        assert len(merged.take_topology_faults(0)) == 2
        assert len(a) == 1 and len(b) == 1

    def test_take_topology_faults_consumes_whole_day(self):
        plan = (FaultPlan().link_failure("l1", at_day=0)
                .dc_failure("dc-a", at_day=0).dc_failure("dc-z", at_day=1))
        batch = plan.take_topology_faults(0)
        assert [(s.kind, s.dc or s.link) for s in batch] == \
            [("dc_failure", "dc-a"), ("link_failure", "l1")]
        assert plan.take_topology_faults(0) == []
        assert len(plan) == 1  # day-1 fault still pending

    def test_storm_plan_merges_fault_faces(self):
        plan = (FlashCrowd(start_s=0.0, duration_s=3600.0)
                .overlay(LinkCut(link="l1"))
                .overlay(RegionalOutage(dc="dc-a")))
        faults = plan.fault_plan()
        assert [s.kind for s in faults.pending()] == \
            ["dc_failure", "link_failure"]


def _key(spec: FaultSpec):
    return (spec.at_day if spec.at_day is not None else -1, spec.kind,
            spec.dc or spec.link or spec.target or "")


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_registry_is_sorted_and_buildable(self):
        names = named_storms()
        assert list(names) == sorted(names)
        assert len(names) == 6
        for spec in all_specs():
            plan = spec.build()
            assert isinstance(plan, StormPlan)
            assert plan.name == spec.name
            assert len(plan) >= 1

    def test_unknown_storm_raises(self):
        with pytest.raises(SwitchboardError, match="unknown storm"):
            get_storm("no-such-storm")


# ----------------------------------------------------------------------
# chaos harness: every named storm, both executors
# ----------------------------------------------------------------------
class TestHarness:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_named_storms_hold_their_invariants(self, executor,
                                                small_topology):
        for name in named_storms():
            report = run_storm(name, topology=small_topology,
                               executor=executor)
            assert report["schema_version"] == 1
            assert report["executor"] == executor
            for invariant, held in report["invariants"].items():
                assert held, f"{name}[{executor}]: {invariant} violated"
            assert report["ok"]
            # Exact accounting partition, re-derived from the raw counts.
            assert (report["admitted_calls"] + report["migrated_calls"]
                    + report["overflowed_calls"]) == \
                report["generated_calls"]
            assert report["overflow_frac"] <= report["overflow_ceiling"]
            assert report["drain_shortfall"] == 0
            check_storm_report(report)

    def test_fault_storms_rebuild_for_the_failure_scenario(self,
                                                           small_topology):
        report = run_storm("viral-megameeting-during-dc-loss",
                           topology=small_topology)
        assert report["faults"] == ["dc_failure(dc-tokyo)"]
        assert report["autoscale_bound"] is False
        assert report["rescale_events"] == 0

    def test_check_raises_on_violation(self, small_topology):
        report = run_storm("recurring-series-surge",
                           topology=small_topology)
        report["invariants"]["overflow_bounded"] = False
        with pytest.raises(SwitchboardError, match="overflow_bounded"):
            check_storm_report(report)


# ----------------------------------------------------------------------
# fig_autoscale regression: overlays reproduce the retired helper
# ----------------------------------------------------------------------
def test_surprise_storm_matches_legacy_helper(base_demand):
    from repro.experiments.fig_autoscale import _surprise_storm

    surprise, flash, factor, seed = 1.5, (26, 27), 2.0, 24
    expected = base_demand.counts * surprise
    for slot in flash:
        expected[slot] *= factor
    legacy = np.random.default_rng(seed).poisson(expected).astype(float)

    storm = _surprise_storm(surprise, flash, factor)
    assert np.array_equal(storm.realize(base_demand, seed).counts, legacy)
