"""Failure-scenario enumeration (§5.3 failure model, plus extensions).

Switchboard's paper model provisions for **one entire DC or one WAN
link** failing at a time: the scenario set is ``F_0`` (no failure), one
scenario per DC, and one per WAN link.  The paper notes the framework
"can easily incorporate more sophisticated failure scenarios" — this
module supports those too, as *compound* scenarios with multiple failed
DCs and/or links (``failed_dcs`` / ``failed_links`` tuples), and an
enumerator for correlated pairs (two DCs, or a DC plus an unrelated
link).

Two refinements keep the sets physically meaningful and the solve time
bounded:

* bridge links are skipped — no amount of backup capacity reroutes around
  a cut that disconnects the graph;
* link scenarios can optionally be limited to the most expensive links,
  since cheap metro links are both low-impact and numerous.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import TopologyError
from repro.topology.builder import Topology

if TYPE_CHECKING:
    from repro.provisioning.demand import PlacementData
    from repro.workload.arrivals import Demand


@dataclass(frozen=True)
class FailureScenario:
    """One entry of the failure set F.

    The paper's single-failure model uses the convenience fields
    ``failed_dc`` / ``failed_link`` (at most one of the two).  Compound
    scenarios — the paper's "more sophisticated" extension — list several
    failures in ``failed_dcs`` / ``failed_links``.  Consumers should read
    :attr:`all_failed_dcs` / :attr:`all_failed_links`, which merge both
    forms.
    """

    name: str
    failed_dc: Optional[str] = None
    failed_link: Optional[str] = None
    failed_dcs: Tuple[str, ...] = ()
    failed_links: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.failed_dc is not None and self.failed_link is not None:
            raise TopologyError(
                "at most one of failed_dc/failed_link per scenario (§5.3); "
                "use failed_dcs/failed_links for compound scenarios"
            )

    @property
    def all_failed_dcs(self) -> Tuple[str, ...]:
        dcs = set(self.failed_dcs)
        if self.failed_dc is not None:
            dcs.add(self.failed_dc)
        return tuple(sorted(dcs))

    @property
    def all_failed_links(self) -> Tuple[str, ...]:
        links = set(self.failed_links)
        if self.failed_link is not None:
            links.add(self.failed_link)
        return tuple(sorted(links))

    @property
    def is_baseline(self) -> bool:
        return not self.all_failed_dcs and not self.all_failed_links

    @property
    def is_compound(self) -> bool:
        return len(self.all_failed_dcs) + len(self.all_failed_links) > 1


NO_FAILURE = FailureScenario(name="F0")


def _survivable_links(topology: Topology,
                      max_link_scenarios: Optional[int]) -> List:
    links = [
        link for link in topology.wan.links
        if not topology.wan.is_bridge(link.link_id)
    ]
    # Most expensive (longest-haul) links first: they are the ones whose
    # failure reshapes provisioning the most.
    links.sort(key=lambda link: (-link.unit_cost, link.link_id))
    if max_link_scenarios is not None:
        links = links[:max_link_scenarios]
    return links


def enumerate_scenarios(topology: Topology,
                        include_link_failures: bool = True,
                        max_link_scenarios: Optional[int] = None
                        ) -> List[FailureScenario]:
    """The paper's scenario set F = {F_0, F_DC1.., F_L1..} (§5.3)."""
    scenarios: List[FailureScenario] = [NO_FAILURE]
    for dc_id in topology.fleet.ids:
        scenarios.append(FailureScenario(name=f"F_dc:{dc_id}", failed_dc=dc_id))
    if include_link_failures:
        for link in _survivable_links(topology, max_link_scenarios):
            scenarios.append(
                FailureScenario(name=f"F_link:{link.link_id}", failed_link=link.link_id)
            )
    return scenarios


def enumerate_compound_scenarios(topology: Topology,
                                 dc_pairs: bool = True,
                                 dc_plus_link: bool = False,
                                 max_link_scenarios: Optional[int] = 3,
                                 same_region_only: bool = True
                                 ) -> List[FailureScenario]:
    """Correlated double failures — the paper's extension hook.

    * ``dc_pairs`` — two DCs down at once.  ``same_region_only`` restricts
      to pairs in one region (the physically correlated case: a regional
      power event), which also keeps cross-region capacity available so
      the scenarios stay survivable.
    * ``dc_plus_link`` — a DC down while an unrelated WAN link is also cut.

    Returns compound scenarios only; callers typically append these to
    :func:`enumerate_scenarios`' single-failure set.
    """
    scenarios: List[FailureScenario] = []
    if dc_pairs:
        for dc_a, dc_b in itertools.combinations(topology.fleet.ids, 2):
            if same_region_only and (
                topology.fleet.dc(dc_a).region != topology.fleet.dc(dc_b).region
            ):
                continue
            scenarios.append(FailureScenario(
                name=f"F_dc2:{dc_a}+{dc_b}",
                failed_dcs=(dc_a, dc_b),
            ))
    if dc_plus_link:
        links = _survivable_links(topology, max_link_scenarios)
        for dc_id in topology.fleet.ids:
            for link in links:
                if dc_id in link.endpoints:
                    continue  # a DC failure already disables its links
                scenarios.append(FailureScenario(
                    name=f"F_dc+link:{dc_id}+{link.link_id}",
                    failed_dcs=(dc_id,),
                    failed_links=(link.link_id,),
                ))
    return scenarios


def _demand_key(demand: "Demand") -> Tuple:
    """What a structure signature reads of the demand: each config with
    demand in some slot, with its index."""
    active = (demand.counts > 0).any(axis=0)
    return tuple((j, config) for j, config in enumerate(demand.configs)
                 if active[j])


def _structure_signature(placement: "PlacementData", demand_key: Tuple,
                         scenario: FailureScenario) -> Tuple:
    failures = (scenario.all_failed_dcs, scenario.all_failed_links)
    memo = placement.structure_signatures.setdefault(demand_key, {})
    signature = memo.get(failures)
    if signature is None:
        signature = tuple(
            (j, tuple(sorted(
                (option.dc_id, option.acl_ms, option.cores_per_call,
                 tuple(sorted(option.link_gbps.items())))
                for option in placement.options_under_scenario(config,
                                                               scenario)
            )))
            for j, config in demand_key)
        memo[failures] = signature
    return signature


def scenario_structure_signature(placement: "PlacementData",
                                 demand: "Demand",
                                 scenario: FailureScenario) -> Tuple:
    """What the LP actually *sees* of a scenario: the surviving options.

    Two scenarios with different failure lists can induce identical LPs —
    cutting a link no demanded config routes over, or losing a DC that
    reroutes onto the same fallback another failure already forces.  The
    signature captures, per config **with demand**, the sorted content of
    its surviving :class:`~repro.provisioning.demand.PlacementOption` set
    (DC, ACL, cores/call, per-link Gbps) — equal signatures imply
    identical scenario LPs for the same demand matrix, so one solve
    serves all of them.  It is memoized on the placement, keyed by the
    configs with demand and the scenario's failure sets: a multi-day
    sweep pays for it once.
    """
    return _structure_signature(placement, _demand_key(demand), scenario)


def dedupe_scenarios(placement: "PlacementData", demand: "Demand",
                     scenarios: Sequence[FailureScenario]
                     ) -> Tuple[List[FailureScenario], List[int]]:
    """Collapse structurally identical scenarios before a sweep.

    Returns ``(unique, expansion)``: the first-seen representative of
    each :func:`scenario_structure_signature` class, and for every input
    scenario the index of its representative in ``unique`` — so callers
    solve only ``unique`` and fan the results back out over the original
    list.
    """
    demand_key = _demand_key(demand)
    unique: List[FailureScenario] = []
    expansion: List[int] = []
    index_of: Dict[Tuple, int] = {}
    for scenario in scenarios:
        signature = _structure_signature(placement, demand_key, scenario)
        idx = index_of.get(signature)
        if idx is None:
            idx = len(unique)
            index_of[signature] = idx
            unique.append(scenario)
        expansion.append(idx)
    return unique, expansion
