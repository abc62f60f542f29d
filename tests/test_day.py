"""Seed-stream pins for the surprise day (``repro.day.plan_day``).

Every drill that serves a storm the planner did not see coming gets its
day from ``plan_day``; each of its four seed streams (population, storm
realization, trace expansion, residual trace faces) must stay put, or
every drill's numbers move together while their parity suites still
agree with each other.  Each row pins sha256 digests of the day's event
columns, its trace arrays, ``plan.integerized()`` and
``capacity.cores``.

The digests were derived from the hand-wired chains the drills ran
before ``plan_day`` existed: ``storms.harness.run_storm``'s steps 1-3
for the catalog rows and ``join-jitter`` (population at ``seed``,
realization at ``seed + 1``, ``TraceGenerator(seed=seed + 2)``,
``apply_trace(seed=seed + 3, demand_applied=True)``, allocation under
the storm's day-0 topology faults), and ``fig_autoscale.run``'s day
(the same streams, no trace faces) for ``demand-surprise``.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.day import plan_day
from repro.experiments import fig_autoscale
from repro.storms import Storm, get_storm
from repro.topology.builder import Topology

#: Shared by every small-world row: a storm-agnostic planning day.
SMALL_PLAN = "61b4979cdd5ed4ad4edc22b283fc254d1b691ad105b25872b25d99772c9b7c76"
SMALL_CORES = "d2f7e22a9bb57a1c2ffb51a80fff5608d7bd339f36670ead349f112577de5f45"

GOLDEN = {
    # Day-0 DC loss: the allocation is rebuilt for the failure scenario.
    "viral-megameeting-during-dc-loss": {
        "events": "4aeb591823a18d524fede26d2272464d"
                  "89f8412410243b4adbde51acd8f503de",
        "trace": "be4520fe005d256d3da00be45849c543"
                 "5e91b7f3bc0921ad7deb9e7230b99d72",
        "plan": "ee5022494ff29d705ea41c2674b9cefb"
                "a48f0756bf1cf17a6c7b1309e697d7c6",
        "cores": SMALL_CORES},
    # Join compression runs after trace expansion (it draws no number).
    "national-event-sync-join": {
        "events": "9ff20c477d70ca26ebdf60d23bf201c1"
                  "9022fec6bdfc673c7bb50b063535c6cf",
        "trace": "f2986bd0ec2dabb53d2032d2289dfb2d"
                 "1766621a684aaa2cd4ed9c00f367c396",
        "plan": SMALL_PLAN, "cores": SMALL_CORES},
    "demand-surprise": {
        "events": "ddef60c72f1ed7a028f3a81e424a464c"
                  "340eca4ee7b27f58153aa3a32a64caa4",
        "trace": "33035abfb138a8da5f6caa8876002e7c"
                 "ff0663caef862ee04b62f5e56db72ab5",
        "plan": "502c3f255d27a23ed9e1bfbb8cf3bdd9"
                "69edb82b9b4ad4c1a6b480385177b1cc",
        "cores": "66b9c927a98a69d3b6469fe934ba616c"
                 "6dd59489d73b907ef42c45e57811c9fe"},
    # No catalog storm has a trace-only face that draws, so this row is
    # the only one that sees the ``seed + 3`` stream.
    "join-jitter": {
        "events": "02c5ea0f842545147b69a83e575e595b"
                  "e2f4b1a01099a4656ec57d0b2c9fb2a0",
        "trace": "9577419d5668228f84c5f511b24228f5"
                 "ec8c80705f21a64d419cd2fe10225366",
        "plan": SMALL_PLAN, "cores": SMALL_CORES},
}


@dataclass(frozen=True)
class JoinJitter(Storm):
    """A trace-only face that draws: every join lands up to 1 s later."""

    def apply_trace(self, trace, rng):
        return trace.replace(join_offset_s=trace.join_offset_s
                             + rng.random(trace.n_participants))


def _arrays_digest(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _digests(day):
    events, trace = day.events, day.events.trace
    cells = [[t, [list(p) for p in config.spread], config.media.value, cell]
             for (t, config), cell in day.plan.integerized().items()]
    return {
        "events": _arrays_digest([events.t_s, events.call_idx,
                                  events.type_code, events.country_code,
                                  events.media_code]),
        "trace": _arrays_digest([trace.start_s, trace.duration_s,
                                 trace.call_uid, trace.part_offsets,
                                 trace.join_offset_s, trace.country_code,
                                 trace.media_code, trace.part_index]),
        "plan": hashlib.sha256(json.dumps(cells).encode()).hexdigest(),
        "cores": hashlib.sha256(json.dumps(
            sorted(day.capacity.cores.items())).encode()).hexdigest(),
    }


def _day(row: str):
    if row == "demand-surprise":  # fig_autoscale's smoke day
        storm = fig_autoscale._surprise_storm(1.5, (26, 27), 2.0)
        return plan_day(Topology.default(), storm, n_configs=8,
                        calls_per_slot=120.0, cushion=1.25, seed=23)
    # The storm harness's smoke day.
    if row == "join-jitter":
        storm = JoinJitter().plan().named(row)
    else:
        storm = get_storm(row).build()
    return plan_day(Topology.small(), storm, n_configs=8,
                    calls_per_slot=60.0, cushion=1.25, seed=29,
                    faults=storm.fault_plan().take_topology_faults(0))


@pytest.mark.parametrize("row", sorted(GOLDEN))
def test_seed_streams_match_golden(row):
    assert _digests(_day(row)) == GOLDEN[row]
