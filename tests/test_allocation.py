"""Tests for allocation plans, the daily LP, and the real-time selector."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import CapacityError, SolverError
from repro.core.types import Call, CallConfig, MediaType, Participant, make_slots
from repro.allocation.offline import AllocationLP
from repro.allocation.plan import AllocationPlan
from repro.allocation.realtime import RealTimeSelector
from repro.provisioning.demand import PlacementData
from repro.provisioning.planner import CapacityPlan, CapacityPlanner
from repro.workload.arrivals import Demand
from repro.workload.media import MediaLoadModel


def _config(spread, media=MediaType.AUDIO):
    return CallConfig.build(spread, media)


class TestAllocationPlan:
    def _plan(self, cells):
        slots = make_slots(3600.0, 1800.0)
        return AllocationPlan(slots=slots, shares=cells)

    def test_cell_lookup(self):
        config = _config({"US": 2})
        plan = self._plan({(0, config): {"dc-a": 3.0}})
        assert plan.cell(0, config) == {"dc-a": 3.0}
        assert plan.cell(1, config) is None

    def test_planned_calls(self):
        config = _config({"US": 2})
        plan = self._plan({(0, config): {"dc-a": 3.0, "dc-b": 1.0}})
        assert plan.planned_calls() == 4.0

    def test_slot_index_clamped(self):
        plan = self._plan({})
        assert plan.slot_index_of(-100.0) == 0
        assert plan.slot_index_of(1e9) == 1
        assert plan.slot_index_of(1800.0) == 1

    def test_integerized_preserves_cell_totals(self):
        config = _config({"US": 2})
        plan = self._plan({
            (0, config): {"dc-a": 2.6, "dc-b": 1.4},
            (1, config): {"dc-a": 0.5, "dc-b": 0.5},
        })
        integer = plan.integerized()
        assert sum(integer[(0, config)].values()) == 4
        assert sum(integer[(1, config)].values()) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=50.0),
                    min_size=1, max_size=6))
    def test_integerized_total_property(self, fractions):
        config = _config({"US": 2})
        cell = {f"dc-{i}": value for i, value in enumerate(fractions)}
        plan = self._plan({(0, config): cell})
        integer = plan.integerized()[(0, config)]
        assert sum(integer.values()) == int(round(sum(fractions)))
        assert all(count >= 1 for count in integer.values())

    def test_mean_acl(self):
        config = _config({"US": 2})
        plan = self._plan({(0, config): {"dc-a": 1.0, "dc-b": 3.0}})
        acl = plan.mean_acl_ms(lambda dc, c: 10.0 if dc == "dc-a" else 20.0)
        assert acl == pytest.approx(17.5)

    def test_mean_acl_empty_raises(self):
        with pytest.raises(SolverError):
            self._plan({}).mean_acl_ms(lambda dc, c: 1.0)

    def test_dc_call_share(self):
        config = _config({"US": 2})
        plan = self._plan({(0, config): {"dc-a": 1.0, "dc-b": 3.0}})
        share = plan.dc_call_share()
        assert share["dc-b"] == pytest.approx(0.75)


class TestAllocationOptimizer:
    """The daily allocation LP (Eq 10), solved through AllocationLP."""

    @pytest.fixture(scope="class")
    def setup(self, topology, load_model):
        configs = [_config({"JP": 2}), _config({"US": 3})]
        slots = make_slots(3600.0, 1800.0)
        counts = np.array([[10.0, 8.0], [6.0, 12.0]])
        demand = Demand(slots, configs, counts)
        placement = PlacementData(topology, configs, load_model)
        capacity = CapacityPlanner(placement, demand).plan_without_backup()
        return placement, demand, capacity

    def test_allocation_fits_capacity(self, setup, load_model):
        placement, demand, capacity = setup
        outcome = AllocationLP(placement, demand).allocate(capacity)
        assert not outcome.overflowed
        usage = {}
        for (t, config), cell in outcome.plan.shares.items():
            for dc_id, count in cell.items():
                key = (t, dc_id)
                usage[key] = usage.get(key, 0.0) + (
                    load_model.call_cores(config) * count
                )
        for (t, dc_id), used in usage.items():
            assert used <= capacity.cores[dc_id] + 1e-6

    def test_allocation_completeness(self, setup):
        placement, demand, capacity = setup
        outcome = AllocationLP(placement, demand).allocate(capacity)
        assert outcome.plan.planned_calls() == pytest.approx(demand.total_calls())

    def test_prefers_local_dc_when_capacity_allows(self, setup, topology):
        placement, demand, capacity = setup
        # Capacity everywhere: with nothing binding, the ACL objective
        # alone decides, so every config lands at its min-ACL DC.
        generous = CapacityPlan(
            cores={dc: 1e6 for dc in topology.fleet.ids},
            link_gbps={l.link_id: 1e6 for l in topology.wan.links},
        )
        outcome = AllocationLP(placement, demand).allocate(generous)
        jp = _config({"JP": 2})
        for t in range(demand.n_slots):
            cell = outcome.plan.cell(t, jp)
            assert cell is not None and set(cell) == {"dc-tokyo"}

    def test_overflow_reported_when_capacity_short(self, setup):
        placement, demand, _ = setup
        starved = CapacityPlan(cores={}, link_gbps={})
        outcome = AllocationLP(placement, demand).allocate(starved)
        assert outcome.overflowed
        assert outcome.compute_overflow_cores > 0
        # Demand is still fully placed (overflow absorbs it).
        assert outcome.plan.planned_calls() == pytest.approx(demand.total_calls())


def _call(call_id, start_s, joiners, media=MediaType.AUDIO):
    """joiners: list of (country, offset_s); first entry is the first joiner."""
    participants = [
        Participant(f"{call_id}-p{i}", country, offset, media)
        for i, (country, offset) in enumerate(joiners)
    ]
    return Call(call_id, start_s, 1800.0, participants)


class TestRealTimeSelector:
    def _plan_with(self, topology, cells):
        return AllocationPlan(slots=make_slots(3600.0, 1800.0), shares=cells)

    def test_invalid_freeze_window(self, topology):
        plan = self._plan_with(topology, {})
        with pytest.raises(CapacityError):
            RealTimeSelector(topology, plan, freeze_window_s=0.0)

    def test_initial_dc_is_closest_to_first_joiner(self, topology):
        plan = self._plan_with(topology, {})
        selector = RealTimeSelector(topology, plan)
        call = _call("c", 0.0, [("JP", 0.0), ("US", 10.0)])
        assert selector.initial_dc(call) == "dc-tokyo"

    def test_planned_call_stays_when_slot_available(self, topology):
        config = _config({"JP": 2})
        plan = self._plan_with(topology, {(0, config): {"dc-tokyo": 2.0}})
        selector = RealTimeSelector(topology, plan)
        outcome = selector.process_call(
            _call("c", 10.0, [("JP", 0.0), ("JP", 5.0)])
        )
        assert outcome.final_dc == "dc-tokyo"
        assert not outcome.migrated
        assert outcome.planned

    def test_migrates_when_plan_points_elsewhere(self, topology):
        config = _config({"JP": 2})
        plan = self._plan_with(topology, {(0, config): {"dc-seoul": 2.0}})
        selector = RealTimeSelector(topology, plan)
        outcome = selector.process_call(
            _call("c", 10.0, [("JP", 0.0), ("JP", 5.0)])
        )
        assert outcome.final_dc == "dc-seoul"
        assert outcome.migrated
        assert selector.stats.migration_rate == 1.0

    def test_slot_exhaustion_overflows_in_place(self, topology):
        config = _config({"JP": 2})
        plan = self._plan_with(topology, {(0, config): {"dc-tokyo": 1.0}})
        selector = RealTimeSelector(topology, plan)
        calls = [
            _call(f"c{i}", 10.0 + i, [("JP", 0.0), ("JP", 5.0)])
            for i in range(3)
        ]
        outcomes = selector.process_trace(calls)
        assert outcomes[0].final_dc == "dc-tokyo"
        assert selector.stats.overflow == 2
        assert all(o.final_dc == "dc-tokyo" for o in outcomes)

    def test_unanticipated_config_goes_to_majority_dc(self, topology):
        plan = self._plan_with(topology, {})
        selector = RealTimeSelector(topology, plan)
        outcome = selector.process_call(
            _call("c", 10.0, [("KR", 0.0), ("IN", 5.0), ("IN", 6.0)])
        )
        assert not outcome.planned
        assert outcome.final_dc == topology.closest_dc("IN")
        assert selector.stats.unplanned == 1

    def test_late_joiner_excluded_from_frozen_config(self, topology):
        frozen_config = _config({"JP": 2})
        plan = self._plan_with(topology, {(0, frozen_config): {"dc-tokyo": 1.0}})
        selector = RealTimeSelector(topology, plan)
        call = _call("c", 10.0, [("JP", 0.0), ("JP", 5.0), ("US", 2000.0)])
        outcome = selector.process_call(call)
        assert outcome.planned  # matched the frozen (JP-2) cell

    def test_stats_accumulate(self, topology):
        config = _config({"JP": 2})
        plan = self._plan_with(topology, {(0, config): {"dc-tokyo": 5.0}})
        selector = RealTimeSelector(topology, plan)
        for i in range(4):
            selector.process_call(_call(f"c{i}", 10.0, [("JP", 0.0), ("JP", 1.0)]))
        assert selector.stats.calls == 4
        assert selector.stats.mean_acl_ms > 0
