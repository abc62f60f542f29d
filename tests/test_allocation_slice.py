"""The Eq 10 allocation LP solved as slices of one assembly.

An :class:`AllocationLP` assembles the allocation LP once over a whole
forecast; the LP of the slots from ``k`` on at ``scale`` times the demand
is a slice of it.  The slice must be the LP a fresh assembly of that tail
builds, entry for entry, or HiGHS may return another vertex and the
autoscaler another plan.  The outcomes are pinned by digests generated
with the keyed single-assembly optimizer this class replaced.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.allocation.offline import AllocationLP
from repro.allocation.plan import AllocationPlan
from repro.core.errors import SolverError
from repro.core.types import CallConfig, MediaType, make_slots
from repro.provisioning.demand import PlacementData
from repro.provisioning.failures import enumerate_scenarios
from repro.provisioning.formulation import ScenarioLP
from repro.provisioning.joint import JointProvisioningLP
from repro.provisioning.lp import LPInstance
from repro.provisioning.planner import CapacityPlan, CapacityPlanner
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand, DemandModel
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.media import MediaLoadModel

_TOPOLOGY = Topology.small()
_CONFIGS = [
    CallConfig.build({"JP": 2}, MediaType.AUDIO),
    CallConfig.build({"HK": 3}, MediaType.VIDEO),
    CallConfig.build({"IN": 1, "JP": 2}, MediaType.SCREEN_SHARE),
    CallConfig.build({"IN": 2, "HK": 1}, MediaType.VIDEO),
]
_PLACEMENT = PlacementData(_TOPOLOGY, _CONFIGS, MediaLoadModel())
# Zeros in every column and row exercise the activity masks.
_SMALL = Demand(make_slots(4 * 1800.0, 1800.0), _CONFIGS, np.array([
    [40.0, 0.0, 5.0, 12.0],
    [80.0, 30.0, 0.0, 20.0],
    [20.0, 60.0, 10.0, 0.0],
    [0.0, 25.0, 8.0, 30.0],
]))
_CAPACITIES = {
    "tight": CapacityPlan(cores={"dc-tokyo": 50.0, "dc-hongkong": 200.0},
                          link_gbps={"JP--dc-tokyo": 0.5,
                                     "HK--dc-hongkong": 2.0}),
    "starved": CapacityPlan(cores={}, link_gbps={}),
}

#: sha256 over the per-case :func:`outcome_digest` of every case of a
#: family, in :func:`_cases` order, as the keyed optimizer solved each
#: tail from a fresh assembly of ``Demand(slots[k:], configs,
#: counts[k:] * scale)``.
GOLDEN = {
    "small": "a1d49e9e33edad3adcebd9f1a50ad29e"
             "334f6f2d2552cdb18ed1361772f86bed",
    "day": "a784b415cea0b87e920e29c6a08c1f1b"
           "e8f91ee7e711e8527ae1149b515fd6b7",
}


def outcome_digest(outcome) -> str:
    """Shares (values bit for bit, in insertion order), the integerized
    plan, both overflow totals, the ACL sum and the plan's slot count."""
    shares = [[t, repr(config), [[dc, float(v).hex()]
                                 for dc, v in cell.items()]]
              for (t, config), cell in outcome.plan.shares.items()]
    counts = [[t, repr(config), sorted(cell.items())]
              for (t, config), cell in outcome.plan.integerized().items()]
    payload = json.dumps([
        shares, counts, float(outcome.compute_overflow_cores).hex(),
        float(outcome.network_overflow_gbps).hex(),
        float(outcome.objective_acl_sum).hex(), len(outcome.plan.slots)])
    return hashlib.sha256(payload.encode()).hexdigest()


def _day():
    """A sampled day at hourly slots: Poisson zeros in many cells."""
    population = generate_population(_TOPOLOGY.world, n_configs=10, seed=21)
    model = DemandModel(_TOPOLOGY.world, population, DiurnalModel(),
                        calls_per_slot_at_peak=30.0)
    day = model.sample(make_slots(86400.0, 3600.0), seed=22)
    placement = PlacementData(_TOPOLOGY, day.configs, MediaLoadModel())
    capacity = CapacityPlanner(placement, day).plan_without_backup()
    return placement, day, capacity


def _cases(family):
    if family == "small":
        for capacity in _CAPACITIES.values():
            for k in range(4):
                for scale in (1.0, 0.7, 1.6):
                    yield _PLACEMENT, _SMALL, capacity, k, scale
    else:
        placement, day, capacity = _day()
        for k in (0, 1, 7, 13, 20, 23):
            for scale in (1.0, 1.3, 0.6):
                yield placement, day, capacity, k, scale


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_slices_match_golden(family):
    """Every slice's outcome — one assembly per (demand, capacity), solved
    at every listed k and scale — equals the recorded fresh-tail one."""
    lps = {}
    combined = hashlib.sha256()
    n_zero = 0
    for placement, demand, capacity, k, scale in _cases(family):
        lp = lps.setdefault((id(demand), id(capacity)),
                            AllocationLP(placement, demand))
        combined.update(outcome_digest(
            lp.allocate(capacity, k, scale)).encode())
        n_zero = int((demand.counts == 0).sum())
    assert n_zero > 0
    assert combined.hexdigest() == GOLDEN[family]


def _assert_same_instance(sliced, fresh):
    assert sliced.n_ub == fresh.n_ub
    for name in ("c", "lower", "upper", "b_ub", "b_eq"):
        assert np.array_equal(getattr(sliced, name), getattr(fresh, name)), \
            name
    for name in ("indptr", "indices", "data"):
        got, want = getattr(sliced.matrix, name), getattr(fresh.matrix, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert sliced.matrix.shape == fresh.matrix.shape


_cell = st.one_of(st.just(0.0), st.floats(0.5, 120.0))


@settings(max_examples=60, deadline=None)
@given(counts=st.integers(1, 6).flatmap(
           lambda n: st.lists(st.lists(_cell, min_size=4, max_size=4),
                              min_size=n, max_size=n)),
       k_fraction=st.floats(0.0, 0.999),
       scale=st.sampled_from([1.0, 0.37, 1.25, 3.0]),
       cores=st.floats(0.0, 400.0), gbps=st.floats(0.0, 5.0))
def test_slice_equals_fresh_assembly(counts, k_fraction, scale, cores, gbps):
    """At every k, the slice's matrix, objective, bounds and both RHS
    equal a fresh assembly of ``Demand(slots[k:], configs, counts[k:] *
    scale)``."""
    counts = np.array(counts)
    n_slots = counts.shape[0]
    k = int(k_fraction * n_slots)
    demand = Demand(make_slots(n_slots * 1800.0, 1800.0), _CONFIGS, counts)
    capacity = CapacityPlan(
        cores={dc: cores for dc in _TOPOLOGY.fleet.ids},
        link_gbps={link.link_id: gbps for link in _TOPOLOGY.wan.links})
    lp = AllocationLP(_PLACEMENT, demand)
    fresh = AllocationLP(_PLACEMENT, lp.tail(k, scale))
    if not counts[k:].any():
        # No demand, no columns: both refuse, so the caller falls back
        # the same way.
        for problem in (lp, fresh):
            with pytest.raises(SolverError, match="no variables"):
                problem.instance(capacity, k if problem is lp else 0, scale)
        return
    if counts.any():
        lp.instance(CapacityPlan(cores={}, link_gbps={}))  # assembles
    _assert_same_instance(lp.instance(capacity, k, scale),
                          fresh.instance(capacity))


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan])
def test_non_positive_scale_is_refused(scale):
    """At scale 0 the tail's activity mask is no longer the forecast's,
    so no slice would be exact."""
    lp = AllocationLP(_PLACEMENT, _SMALL)
    with pytest.raises(SolverError, match="scale > 0"):
        lp.instance(_CAPACITIES["tight"], 1, scale)


@pytest.mark.parametrize("k", [-1, 4])
def test_slot_outside_the_forecast_is_refused(k):
    with pytest.raises(SolverError, match="outside"):
        AllocationLP(_PLACEMENT, _SMALL).instance(_CAPACITIES["tight"], k)


def test_slice_solution_has_no_keyed_values():
    """Only the k = 0 slice keeps the assembly's keys; a later slice's
    solution is read by position."""
    lp = AllocationLP(_PLACEMENT, _SMALL)
    capacity = _CAPACITIES["tight"]
    whole = lp.instance(capacity).solve()
    assert list(whole.values.values()) == whole.x.tolist()
    tail = lp.instance(capacity, 2).solve()
    with pytest.raises(SolverError, match="keys"):
        tail.values


# ----------------------------------------------------------------------
# the vectorized rounding == the per-cell largest-remainder loop
# ----------------------------------------------------------------------
def _reference_integerized(shares):
    """Per cell: floors, then one more unit to each of the largest
    remainders (ties to the larger DC id) until the cell's rounded total
    is reached."""
    result = {}
    for key, cell in shares.items():
        total = int(round(sum(cell.values())))
        floors = {dc: int(math.floor(v)) for dc, v in cell.items()}
        assigned = sum(floors.values())
        for dc in sorted(cell, key=lambda dc: (cell[dc] - floors[dc], dc),
                         reverse=True):
            if assigned >= total:
                break
            floors[dc] += 1
            assigned += 1
        result[key] = {dc: n for dc, n in floors.items() if n > 0}
    return result


_DC_IDS = ["dc-a", "dc-b", "dc-c", "dc-d"]
_share = st.one_of(st.floats(1e-9, 40.0), st.sampled_from(
    [0.25, 0.5, 0.75, 1.5, 2.5, 3.0, 1e-6]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3),
                          st.dictionaries(st.sampled_from(_DC_IDS), _share,
                                          min_size=1)),
                max_size=12))
def test_rounding_equals_the_per_cell_loop(cells):
    """Same totals, same remainders, ties to the larger DC id; the dict
    form keeps cell and DC order."""
    shares = {(t, _CONFIGS[j]): cell for t, j, cell in cells}
    plan = AllocationPlan(make_slots(6 * 1800.0, 1800.0), shares)
    expected = _reference_integerized(shares)
    got = plan.integerized()
    assert got == expected
    assert [list(cell.items()) for cell in got.values()] == \
        [list(cell.items()) for cell in expected.values()]
    grid = np.zeros((6, len(_CONFIGS), len(_DC_IDS)), dtype=np.int64)
    for (t, config), cell in expected.items():
        for dc_id, count in cell.items():
            grid[t, _CONFIGS.index(config), _DC_IDS.index(dc_id)] = count
    got_grid = plan.integerized_grid(_CONFIGS, _DC_IDS, 6)
    assert got_grid.dtype == np.int64
    assert np.array_equal(got_grid, grid)


# ----------------------------------------------------------------------
# scenario shares read from x == read from the keyed values
# ----------------------------------------------------------------------
def _keyed_shares(solution, problem, tag):
    """The shares as a keyed walk over ``solution.values`` finds them, in
    the conditioned problem's units times its scale."""
    normalized, _, scale = problem.prepared()
    counts = normalized.demand.counts
    shares = {}
    for key, value in solution.values.items():
        if key[0] != "S" or (key[1] if len(key) == 5 else None) != tag:
            continue
        t, j, dc_id = key[-3:]
        if value > 0.0 and value >= 1e-9 * counts[t, j]:
            shares.setdefault((t, problem.demand.configs[j]), {})[dc_id] = \
                value * scale
    return shares


@pytest.mark.parametrize("joint", [False, True], ids=["scenario", "joint"])
def test_shares_are_built_on_read_from_x(monkeypatch, joint):
    """Each block's shares come from the non-zero ``S`` columns of ``x``
    when first read, equal (values and order) to a keyed walk."""
    solutions = []
    solve = LPInstance.solve

    def recording(self, *args, **kwargs):
        solutions.append(solve(self, *args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(LPInstance, "solve", recording)
    if joint:
        scenarios = enumerate_scenarios(_TOPOLOGY, max_link_scenarios=0)
        problem = JointProvisioningLP(_PLACEMENT, _SMALL, scenarios).problem
        results = problem.solve_blocks()
        tags = [tag for tag, _ in problem.blocks]
    else:
        problem = ScenarioLP(_PLACEMENT, _SMALL)
        results = problem.solve_blocks()
        tags = [None]
    (solution,) = solutions
    for result, tag in zip(results, tags):
        assert callable(result.__dict__["_shares"])  # not built yet
        assert result.shares == _keyed_shares(solution, problem, tag)
        assert list(result.shares) == list(
            _keyed_shares(solution, problem, tag))
        assert isinstance(result.__dict__["_shares"], dict)
