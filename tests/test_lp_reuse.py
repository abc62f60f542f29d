"""Assemble once per signature, re-price by RHS, solve through one binding.

* the signature pins every input that shapes rows, columns or objective
  (a background peak row, ``latency_weight``, the serving blocks, the
  placement by its inputs);
* a cache hit re-prices the cached instance into exactly the bytes a
  fresh build gives (property test over day pairs with base capacities,
  core limits and background);
* the HiGHS binding calls only ``_Highs`` methods that exist, a failing
  import falls back to ``linprog`` with identical results, a model that
  loads with a warning still solves, a spent
  :func:`~repro.provisioning.highs.time_limit` budget stops either path,
  and solves on concurrent threads return what they return one after
  another.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.core.errors import SolveTimeoutError
from repro.core.types import CallConfig, MediaType, make_slots
from repro.provisioning import highs
from repro.provisioning.background import BackgroundTraffic
from repro.provisioning.demand import PlacementData
from repro.provisioning.failures import (FailureScenario,
                                         enumerate_compound_scenarios,
                                         enumerate_scenarios)
from repro.provisioning.formulation import ScenarioLP
from repro.provisioning.lp import LPInstance, WarmStartCache
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand, DemandModel
from repro.workload.configs import generate_population
from repro.workload.media import MediaLoadModel

_TOPOLOGY = Topology.small()
_CONFIGS = [
    CallConfig.build({"JP": 2}, MediaType.AUDIO),
    CallConfig.build({"HK": 3}, MediaType.VIDEO),
    CallConfig.build({"IN": 1, "JP": 2}, MediaType.SCREEN_SHARE),
]
_PLACEMENT = PlacementData(_TOPOLOGY, _CONFIGS, MediaLoadModel())
_N_SLOTS = 3
_LINKS = ("dc-hongkong--dc-tokyo", "IN--dc-hongkong")
_CAPPED = ("dc-tokyo", "dc-pune")


def _demand(counts):
    counts = np.asarray(counts, dtype=float)
    return Demand(make_slots(counts.shape[0] * 1800.0, 1800.0), _CONFIGS,
                  counts)


_COUNTS = [[60.0, 20.0, 8.0], [120.0, 45.0, 16.0], [30.0, 10.0, 4.0]]


# ---------------------------------------------------------------------------
# Signature


def test_background_peak_row_is_part_of_the_signature():
    """A zero vs positive background peak on a used link adds a row; the
    two problems must not share a cache entry."""
    quiet = BackgroundTraffic({"IN--dc-hongkong": [0.0] * _N_SLOTS}, _N_SLOTS)
    busy = BackgroundTraffic({"IN--dc-hongkong": [0.2, 0.4, 0.1]}, _N_SLOTS)
    demand = _demand(_COUNTS)
    lps = [ScenarioLP(_PLACEMENT, demand, background=b) for b in (quiet, busy)]
    rows = [lp.prepared()[1].n_rows for lp in lps]
    assert rows[1] == rows[0] + 1
    assert lps[0].signature() != lps[1].signature()

    cache = WarmStartCache()
    ScenarioLP(_PLACEMENT, demand, background=quiet).solve(warm_cache=cache)
    reused = ScenarioLP(_PLACEMENT, demand, background=busy).solve(
        warm_cache=cache)
    cold = ScenarioLP(_PLACEMENT, demand, background=busy).solve()
    assert reused.stats.arm is None  # a miss: assembled, not re-priced
    assert reused.cost == cold.cost


def test_latency_weight_and_blocks_are_part_of_the_signature():
    demand = _demand(_COUNTS)
    plain = ScenarioLP(_PLACEMENT, demand)
    assert plain.signature() == ScenarioLP(_PLACEMENT, demand).signature()
    assert plain.signature() != ScenarioLP(
        _PLACEMENT, demand, latency_weight=1e-6).signature()
    joint = ScenarioLP(_PLACEMENT, demand)
    joint.blocks = list(enumerate(enumerate_scenarios(_TOPOLOGY)[:2]))
    assert joint.signature() != plain.signature()
    failed = FailureScenario("F_dc:dc-tokyo", failed_dc="dc-tokyo")
    assert ScenarioLP(_PLACEMENT, demand, failed).signature() \
        != plain.signature()


def test_rebuilt_placement_shares_the_signature():
    """A placement rebuilt each day still hits; another load model or
    topology object does not."""
    demand = _demand(_COUNTS)
    rebuilt = PlacementData(_TOPOLOGY, _CONFIGS, MediaLoadModel())
    assert ScenarioLP(rebuilt, demand).signature() == \
        ScenarioLP(_PLACEMENT, demand).signature()
    heavier = MediaLoadModel(cl_cores={
        media: 2.0 * cores
        for media, cores in MediaLoadModel().cl_cores.items()})
    for other in (PlacementData(_TOPOLOGY, _CONFIGS, heavier),
                  PlacementData(Topology.small(), _CONFIGS, MediaLoadModel())):
        assert ScenarioLP(other, demand).signature() != \
            ScenarioLP(_PLACEMENT, demand).signature()


# ---------------------------------------------------------------------------
# RHS-only re-pricing


def _day(draw):
    counts = draw(st.lists(
        st.lists(st.floats(1.0, 200.0), min_size=len(_CONFIGS),
                 max_size=len(_CONFIGS)),
        min_size=_N_SLOTS, max_size=_N_SLOTS))
    base_cores = {"dc-hongkong": draw(st.floats(0.0, 500.0))}
    base_links = {"HK--dc-hongkong": draw(st.floats(0.0, 2.0))}
    caps = {dc_id: draw(st.floats(0.0, 1e5)) for dc_id in _CAPPED}
    # Strictly positive series keep the positive-peak link set fixed.
    background = BackgroundTraffic({
        link_id: draw(st.lists(st.floats(0.01, 3.0), min_size=_N_SLOTS,
                               max_size=_N_SLOTS))
        for link_id in _LINKS}, _N_SLOTS)
    return ScenarioLP(_PLACEMENT, _demand(counts), base_cores=base_cores,
                      base_links=base_links, background=background,
                      dc_core_limits=caps)


@st.composite
def _day_pairs(draw):
    return _day(draw), _day(draw)


@settings(max_examples=30, deadline=None)
@given(_day_pairs())
def test_cache_hit_reprices_to_the_bytes_of_a_fresh_build(days):
    day1, day2 = days
    cache = WarmStartCache()
    assert day1.signature() == day2.signature()
    cache.put(day1.signature(), day1.prepared()[1])

    _, hit, scale = day2.prepared(cache)
    fresh_lp = ScenarioLP(day2.placement, day2.demand,
                          base_cores=day2.base_cores,
                          base_links=day2.base_links,
                          background=day2.background,
                          dc_core_limits=day2.dc_core_limits)
    _, fresh, fresh_scale = fresh_lp.prepared()
    assert cache.stats()["hits"] == 1
    assert hit is not fresh and hit.matrix is day1.prepared()[1].matrix
    assert scale == fresh_scale
    assert hit.keys == fresh.keys
    for name in ("c", "lower", "upper", "b_ub", "b_eq"):
        mine, theirs = getattr(hit, name), getattr(fresh, name)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes(), name
    assert hit.n_ub == fresh.n_ub
    for part in ("indptr", "indices", "data"):
        assert getattr(hit.matrix, part).tobytes() == \
            getattr(fresh.matrix, part).tobytes()


# ---------------------------------------------------------------------------
# The HiGHS binding


#: scipy releases before ``_highspy`` always take the ``linprog`` path.
needs_core = pytest.mark.skipif(highs._core is None,
                                reason="this scipy has no _highspy._core")


@needs_core
def test_highs_binding_methods_exist():
    for name in highs.HIGHS_METHODS:
        assert callable(getattr(highs._core._Highs, name, None)), name


@needs_core
def test_failing_highs_import_falls_back_to_linprog(monkeypatch, tmp_path):
    lp = ScenarioLP(_PLACEMENT, _demand(_COUNTS),
                    FailureScenario("F_dc:dc-tokyo", failed_dc="dc-tokyo"))
    _, instance, _ = lp.prepared()
    direct = instance.solve()
    assert direct.basis is not None

    # No extension file where the loader looks, and the registered module
    # hidden (only while it loads: ``linprog`` itself imports it).
    with monkeypatch.context() as blocked:
        blocked.setitem(sys.modules, highs.CORE_MODULE, None)
        monkeypatch.setattr(highs, "_core", highs._load_core(tmp_path))
    try:
        assert highs._core is None
        fallback = instance.solve()
    finally:
        monkeypatch.undo()
    assert highs._core is not None
    assert fallback.basis is None
    assert fallback.objective == direct.objective
    assert fallback.values == direct.values
    assert np.array_equal(fallback.dual_ineq, direct.dual_ineq)
    assert np.array_equal(fallback.dual_eq, direct.dual_eq)


@needs_core
def test_a_model_highs_loads_with_a_warning_still_solves():
    """HiGHS drops a coefficient of at most 1e-9 and returns ``kWarning``
    from ``passModel``; only ``kError`` refuses the model."""
    matrix = sparse.csc_array((np.array([-1.0, 1e-12, -1.0]),
                               (np.array([0, 0, 1]), np.array([0, 1, 1]))),
                              shape=(2, 2))
    instance = LPInstance(np.ones(2), np.zeros(2), np.full(2, np.inf),
                          matrix, 2, np.array([-1.0, -2.0]), np.zeros(0),
                          None)
    solution = instance.solve()
    assert solution.objective == 3.0
    assert solution.x.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("binding", [pytest.param("core", marks=needs_core),
                                     "linprog"])
def test_spent_budget_stops_the_solve(monkeypatch, binding):
    """HiGHS's own time limit ends a solve whose budget is gone, on both
    paths, before any model is built or ``linprog`` called; a budget
    with time left changes nothing."""
    import scipy.optimize

    _, instance, _ = ScenarioLP(_PLACEMENT, _demand(_COUNTS)).prepared()
    unbounded = highs.solve(instance)[0].objective
    calls = []

    def spy(name, real):
        def called(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return called

    monkeypatch.setattr(scipy.optimize, "linprog",
                        spy("linprog", scipy.optimize.linprog))
    if binding == "linprog":
        monkeypatch.setattr(highs, "_core", None)
    else:
        monkeypatch.setattr(highs._core, "_Highs",
                            spy("_Highs", highs._core._Highs))
    with highs.time_limit(0.0), pytest.raises(SolveTimeoutError,
                                              match="budget"):
        highs.solve(instance)
    assert calls == []
    with highs.time_limit(60.0):
        assert highs.solve(instance)[0].objective == unbounded
    assert calls == ["_Highs" if binding == "core" else "linprog"]


@pytest.mark.skipif(highs._core is None,
                    reason="the linprog fallback keeps no basis")
def test_highs_threads_are_bit_identical_to_sequential(topology):
    """HiGHS releases the GIL in ``run``, so the max sweep solves on
    threads: four threads over 44 plan-sweep scenario LPs (default
    topology, 16 configs, 12 slots) return the sequential run's x, duals,
    basis and objective bit for bit."""
    population = generate_population(topology.world, n_configs=16, seed=61)
    demand = DemandModel(topology.world, population,
                         calls_per_slot_at_peak=200.0).expected(
        make_slots(86400.0, 7200.0))
    placement = PlacementData(topology, demand.configs)
    scenarios = (enumerate_scenarios(topology) + enumerate_compound_scenarios(
        topology, dc_plus_link=True, max_link_scenarios=None,
        same_region_only=False))[:44]
    instances = [ScenarioLP(placement, demand, scenario).prepared()[1]
                 for scenario in scenarios]

    def solve(instance):
        solution, basis = highs.solve(instance)
        return (solution.objective, list(solution.values.values()),
                solution.dual_ineq.tolist(), solution.dual_eq.tolist(),
                list(basis.col_status), list(basis.row_status))

    sequential = [solve(instance) for instance in instances]
    with ThreadPoolExecutor(4) as pool:
        threaded = list(pool.map(solve, instances))
    assert threaded == sequential

