"""LP identity pins: the provisioning, joint and allocation LPs, byte for byte.

Each test solves one LP through its public entry point, records every
instance handed to the solver (``LinearProgram.snapshot``) and compares a
sha256 digest of its variable keys, objective, bounds, right-hand sides
and canonical CSR matrices against a recorded value.  The row and column
numbering is part of the contract: an equivalent but re-numbered
degenerate LP can send HiGHS to a different optimal vertex, which would
move the plan's cost and the served day.
"""

import hashlib

import numpy as np
import pytest
from scipy import sparse

from repro.allocation.offline import AllocationLP
from repro.core.types import CallConfig, MediaType, make_slots
from repro.provisioning.background import BackgroundTraffic
from repro.provisioning.demand import PlacementData
from repro.provisioning.failures import FailureScenario, enumerate_scenarios
from repro.provisioning.formulation import ScenarioLP
from repro.provisioning.joint import JointProvisioningLP
from repro.provisioning.lp import LinearProgram
from repro.provisioning.planner import CapacityPlan
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand
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
_DEMAND = Demand(make_slots(4 * 1800.0, 1800.0), _CONFIGS, np.array([
    [40.0, 0.0, 5.0, 12.0],
    [80.0, 30.0, 0.0, 20.0],
    [20.0, 60.0, 10.0, 0.0],
    [0.0, 25.0, 8.0, 30.0],
]))
_BACKGROUND = BackgroundTraffic({
    "dc-hongkong--dc-tokyo": [0.5, 2.0, 1.0, 0.2],
    "IN--dc-hongkong": [0.1, 0.1, 0.3, 0.0],
}, n_slots=4)
_CAPS = {"dc-tokyo": 5000.0, "dc-pune": 8000.0}


def _digest(instance) -> str:
    h = hashlib.sha256()
    h.update(repr(instance.keys).encode())
    h.update(np.asarray(instance.c, dtype=np.float64).tobytes())
    h.update(np.array([[low, np.nan if up is None else up]
                       for low, up in instance.bounds],
                      dtype=np.float64).tobytes())
    for rhs, matrix in ((instance.b_ub, instance.a_ub),
                        (instance.b_eq, instance.a_eq)):
        if matrix is None:
            h.update(b"none")
            continue
        h.update(np.asarray(rhs, dtype=np.float64).tobytes())
        csr = sparse.csr_matrix(matrix, copy=True)
        csr.sum_duplicates()
        csr.sort_indices()
        h.update(np.asarray(csr.shape, dtype=np.int64).tobytes())
        h.update(csr.indptr.astype(np.int64).tobytes())
        h.update(csr.indices.astype(np.int64).tobytes())
        h.update(csr.data.astype(np.float64).tobytes())
    return h.hexdigest()


@pytest.fixture
def solved_lps(monkeypatch):
    """Digests of every LP instance materialized while the test runs."""
    seen = []
    snapshot = LinearProgram.snapshot

    def recording(self, *args, **kwargs):
        instance = snapshot(self, *args, **kwargs)
        seen.append(_digest(instance))
        return instance

    monkeypatch.setattr(LinearProgram, "snapshot", recording)
    return seen


def test_scenario_lp_with_base_background_and_caps(solved_lps):
    ScenarioLP(
        _PLACEMENT, _DEMAND,
        base_cores={"dc-hongkong": 20.0},
        base_links={"HK--dc-hongkong": 0.3},
        background=_BACKGROUND, dc_core_limits=_CAPS,
    ).solve()
    assert solved_lps == [
        "d0221e677e8d12b264daa022f585d289e3c00f23dfce888ce554f61af6d645c5",
    ]


def test_scenario_lp_under_dc_failure(solved_lps):
    scenario = FailureScenario("F_dc:dc-tokyo", failed_dc="dc-tokyo")
    ScenarioLP(_PLACEMENT, _DEMAND, scenario).solve()
    assert solved_lps == [
        "9898e40f3291c06fb34ec0fb568992bec352f07ef68142354e1e69bd7fe49ab3",
    ]


def test_joint_lp_over_four_scenarios(solved_lps):
    scenarios = enumerate_scenarios(_TOPOLOGY, max_link_scenarios=0)
    assert len(scenarios) == 4
    JointProvisioningLP(_PLACEMENT, _DEMAND, scenarios,
                        background=_BACKGROUND,
                        dc_core_limits=_CAPS).solve()
    assert solved_lps == [
        "6ecc4708ba4e5c645c905e58cd697c9633dcb7fef0d9fbc9c349e81fa9568749",
    ]


def test_allocation_lp(solved_lps):
    capacity = CapacityPlan(
        cores={"dc-tokyo": 50.0, "dc-hongkong": 200.0},
        link_gbps={"JP--dc-tokyo": 0.5, "HK--dc-hongkong": 2.0},
    )
    AllocationLP(_PLACEMENT, _DEMAND).allocate(capacity)
    assert solved_lps == [
        "3345cb3ed9d96bc5fbc340dcfb6f634272d29400ad7cbc1730837839462725f1",
    ]
