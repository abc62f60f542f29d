"""Randomized property tests on the provisioning LP's core invariants.

For arbitrary small demand matrices on the 3-DC world, every solved
scenario must satisfy: completeness (Eq 9), capacity coverage (Eqs 5-6),
non-negative capacities, and cost consistency.  These are the invariants
every experiment silently assumes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import CallConfig, MediaType, make_slots
from repro.provisioning.demand import PlacementData
from repro.provisioning.formulation import ScenarioLP
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand
from repro.workload.media import MediaLoadModel

_TOPOLOGY = Topology.small()
_CONFIGS = [
    CallConfig.build({"JP": 2}, MediaType.AUDIO),
    CallConfig.build({"HK": 3}, MediaType.VIDEO),
    CallConfig.build({"IN": 1, "JP": 2}, MediaType.SCREEN_SHARE),
]
_PLACEMENT = PlacementData(_TOPOLOGY, _CONFIGS, MediaLoadModel())

_COUNTS = st.lists(
    st.lists(st.floats(min_value=0.0, max_value=200.0),
             min_size=len(_CONFIGS), max_size=len(_CONFIGS)),
    min_size=1, max_size=4,
)


def _demand(counts):
    matrix = np.array(counts)
    slots = make_slots(len(counts) * 1800.0, 1800.0)
    return Demand(slots, _CONFIGS, matrix)


@settings(max_examples=25, deadline=None)
@given(_COUNTS)
def test_completeness_invariant(counts):
    demand = _demand(counts)
    if demand.total_calls() == 0:
        return
    result = ScenarioLP(_PLACEMENT, demand).solve()
    for t in range(demand.n_slots):
        for j, config in enumerate(demand.configs):
            expected = demand.counts[t, j]
            assigned = sum(result.shares.get((t, config), {}).values())
            assert assigned == pytest.approx(expected, rel=1e-6, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(_COUNTS)
def test_capacity_covers_usage_invariant(counts):
    demand = _demand(counts)
    if demand.total_calls() == 0:
        return
    result = ScenarioLP(_PLACEMENT, demand).solve()
    # Compute usage per (slot, dc) and per (slot, link) from the shares.
    options = {
        (config, option.dc_id): option
        for config in demand.configs
        for option in _PLACEMENT.options(config)
    }
    for t in range(demand.n_slots):
        dc_usage, link_usage = {}, {}
        for j, config in enumerate(demand.configs):
            for dc_id, count in result.shares.get((t, config), {}).items():
                option = options[(config, dc_id)]
                dc_usage[dc_id] = dc_usage.get(dc_id, 0.0) + (
                    option.cores_per_call * count
                )
                for link_id, gbps in option.link_gbps.items():
                    link_usage[link_id] = link_usage.get(link_id, 0.0) + (
                        gbps * count
                    )
        for dc_id, used in dc_usage.items():
            assert used <= result.cores[dc_id] + 1e-5
        for link_id, used in link_usage.items():
            assert used <= result.link_gbps[link_id] + 1e-6


@settings(max_examples=25, deadline=None)
@given(_COUNTS)
def test_capacities_nonnegative_and_cost_consistent(counts):
    demand = _demand(counts)
    if demand.total_calls() == 0:
        return
    result = ScenarioLP(_PLACEMENT, demand).solve()
    assert all(v >= -1e-9 for v in result.cores.values())
    assert all(v >= -1e-9 for v in result.link_gbps.values())
    recomputed = (
        sum(_TOPOLOGY.dc_cost(dc) * v for dc, v in result.cores.items())
        + sum(_TOPOLOGY.wan_cost(l) * v for l, v in result.link_gbps.items())
    )
    assert result.cost == pytest.approx(recomputed, rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(_COUNTS, st.sampled_from(_TOPOLOGY.fleet.ids))
def test_scaling_demand_scales_cost_linearly(counts, _dc):
    """The LP is positively homogeneous: doubling demand doubles cost."""
    demand = _demand(counts)
    if demand.total_calls() == 0:
        return
    single = ScenarioLP(_PLACEMENT, demand).solve()
    double = ScenarioLP(_PLACEMENT, demand.scale(2.0)).solve()
    assert double.cost == pytest.approx(2.0 * single.cost, rel=1e-5)
