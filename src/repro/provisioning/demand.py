"""Placement data: everything the LP needs about hosting a config at a DC.

For every (call config *c*, candidate DC *x*) pair this precomputes:

* ``ACL(x, c)`` — the latency constraint and allocation objective terms;
* ``cores_per_call`` — ``CL_{MT(c)} * |P(c)|`` of Eq 5;
* ``link_loads`` — the Gbps each call puts on every WAN link of
  ``Path(x, p)`` for each participant location *p* (the
  ``NL_{MT(c)} * InPath(l, x, p)`` terms of Eq 6).

Candidate DCs honour both the region scoping of §2.1 and the latency
threshold of Eq 4 (with the min-ACL fallback of §5.3).  Precomputing this
once makes each failure-scenario LP a pure matrix-assembly job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.errors import TopologyError, WorkloadError
from repro.core.types import CallConfig
from repro.core.units import DEFAULT_LATENCY_THRESHOLD_MS, mbps_to_gbps
from repro.topology.builder import Topology
from repro.workload.media import MediaLoadModel


@dataclass
class PlacementOption:
    """Hosting config ``c`` at DC ``x``: latency, compute, link loads."""

    dc_id: str
    acl_ms: float
    cores_per_call: float
    link_gbps: Dict[str, float]  # link_id -> Gbps per call

    def reroute(self, topology: Topology, config: CallConfig,
                load_model: MediaLoadModel,
                failed_link: Optional[str] = None,
                failed_links: Sequence[str] = ()) -> Optional["PlacementOption"]:
        """This option with paths recomputed around failed link(s).

        Returns ``None`` when some participant country becomes unreachable
        from the DC, i.e. the option is unusable in that failure scenario.
        """
        excluded = set(failed_links)
        if failed_link is not None:
            excluded.add(failed_link)
        if not excluded or not excluded & set(self.link_gbps):
            return self
        per_leg = mbps_to_gbps(load_model.leg_mbps(config))
        link_gbps: Dict[str, float] = {}
        for country, count in config.spread:
            try:
                path = topology.wan.path(
                    self.dc_id, country, exclude_links=tuple(excluded)
                )
            except TopologyError:
                return None
            for link_id in path:
                link_gbps[link_id] = link_gbps.get(link_id, 0.0) + per_leg * count
        return PlacementOption(self.dc_id, self.acl_ms, self.cores_per_call, link_gbps)


class PlacementData:
    """Per-config placement options over a topology and media load model."""

    def __init__(self, topology: Topology, configs: Sequence[CallConfig],
                 load_model: Optional[MediaLoadModel] = None,
                 latency_threshold_ms: float = DEFAULT_LATENCY_THRESHOLD_MS,
                 restrict_regions: bool = True):
        if not configs:
            raise WorkloadError("no configs to place")
        self.topology = topology
        self.load_model = load_model if load_model is not None else MediaLoadModel()
        self.latency_threshold_ms = latency_threshold_ms
        self.configs = list(configs)
        #: Every input the options derive from (the topology by identity):
        #: equal fingerprints give equal options under every scenario.
        self.fingerprint = (
            topology, tuple(self.load_model.cl_cores.items()),
            tuple(self.load_model.nl_mbps.items()), latency_threshold_ms,
            restrict_regions, tuple(self.configs))
        self._options: Dict[CallConfig, List[PlacementOption]] = {}
        for config in self.configs:
            self._options[config] = self._build_options(config, restrict_regions)
        # Survivor-option memo keyed by (config, failed DCs, failed links).
        # Scenario LPs ask for the same survivor sets once per slot and the
        # planner asks again per scenario, so reroute/path work is cached
        # here; callers treat the returned lists as read-only.
        self._scenario_cache: Dict[
            tuple, List[PlacementOption]
        ] = {}
        self._unit_costs: Dict[tuple, np.ndarray] = {}
        #: :func:`~repro.provisioning.failures.scenario_structure_signature`
        #: memo: (configs with demand) -> (failed DCs, failed links) ->
        #: signature.  A multi-day sweep asks for the same ones every day.
        self.structure_signatures: Dict[tuple, Dict[tuple, tuple]] = {}

    def _build_options(self, config: CallConfig,
                       restrict_regions: bool) -> List[PlacementOption]:
        topology = self.topology
        per_leg_gbps = mbps_to_gbps(self.load_model.leg_mbps(config))
        cores = self.load_model.call_cores(config)
        options = []
        for dc_id in topology.feasible_dcs(
            config, self.latency_threshold_ms, restrict_regions=restrict_regions
        ):
            link_gbps: Dict[str, float] = {}
            for country, count in config.spread:
                for link_id in topology.wan.path(dc_id, country):
                    link_gbps[link_id] = link_gbps.get(link_id, 0.0) + per_leg_gbps * count
            options.append(PlacementOption(
                dc_id=dc_id,
                acl_ms=topology.acl_ms(dc_id, config),
                cores_per_call=cores,
                link_gbps=link_gbps,
            ))
        return options

    def options(self, config: CallConfig) -> List[PlacementOption]:
        try:
            return self._options[config]
        except KeyError:
            raise WorkloadError(f"config {config} not in placement data") from None

    def options_under_failure(self, config: CallConfig,
                              failed_dc: Optional[str] = None,
                              failed_link: Optional[str] = None
                              ) -> List[PlacementOption]:
        """Surviving options under a single failure (the §5.3 model)."""
        failed_dcs = (failed_dc,) if failed_dc is not None else ()
        failed_links = (failed_link,) if failed_link is not None else ()
        return self._cached_surviving_options(config, failed_dcs, failed_links)

    def options_under_scenario(self, config: CallConfig,
                               scenario) -> List[PlacementOption]:
        """Surviving options under any :class:`FailureScenario`, including
        compound ones (multiple DCs/links down at once).  Results are
        memoized per (config, failure set) across slots and scenarios."""
        return self._cached_surviving_options(
            config, scenario.all_failed_dcs, scenario.all_failed_links
        )

    def option_unit_costs(self, config: CallConfig, scenario) -> np.ndarray:
        """Capacity cost of hosting one steady call on each of
        :meth:`options_under_scenario`'s options (cores·DC$ + Σ Gbps·WAN$),
        memoized per (config, failure set)."""
        key = (config, scenario.all_failed_dcs, scenario.all_failed_links)
        costs = self._unit_costs.get(key)
        if costs is None:
            dc_cost, wan_cost = self.topology.dc_cost, self.topology.wan_cost
            costs = np.array([
                option.cores_per_call * dc_cost(option.dc_id)
                + sum(gbps * wan_cost(link_id)
                      for link_id, gbps in option.link_gbps.items())
                for option in self.options_under_scenario(config, scenario)])
            self._unit_costs[key] = costs
        return costs

    def _cached_surviving_options(self, config: CallConfig,
                                  failed_dcs: Sequence[str],
                                  failed_links: Sequence[str]
                                  ) -> List[PlacementOption]:
        key = (config, tuple(failed_dcs), tuple(failed_links))
        cached = self._scenario_cache.get(key)
        if cached is None:
            cached = self._surviving_options(config, failed_dcs, failed_links)
            self._scenario_cache[key] = cached
        return cached

    def _surviving_options(self, config: CallConfig,
                           failed_dcs: Sequence[str],
                           failed_links: Sequence[str]) -> List[PlacementOption]:
        """Surviving options in a failure scenario.

        Failed DCs lose their options (and, §5.3, all links touching them
        carry nothing anyway because no call terminates there).  Failed
        links reroute affected options around them, dropping those with no
        alternate path.  If nothing survives in-region, the fallback widens
        to the cheapest-ACL DC fleet-wide — the "host somewhere" rule.
        """
        dead_dcs = set(failed_dcs)
        survivors: List[PlacementOption] = []
        for option in self.options(config):
            if option.dc_id in dead_dcs:
                continue
            rerouted = option.reroute(
                self.topology, config, self.load_model,
                failed_links=tuple(failed_links),
            )
            if rerouted is None:
                continue
            survivors.append(rerouted)
        if survivors:
            return survivors
        return self._fallback_options(config, failed_dcs, failed_links)

    def _fallback_options(self, config: CallConfig,
                          failed_dcs: Sequence[str],
                          failed_links: Sequence[str]) -> List[PlacementOption]:
        """Widen to any surviving DC fleet-wide, min-ACL first."""
        excluded = set(failed_dcs)
        ordered = sorted(
            (dc_id for dc_id in self.topology.fleet.ids if dc_id not in excluded),
            key=lambda dc_id: (self.topology.acl_ms(dc_id, config), dc_id),
        )
        per_leg_gbps = mbps_to_gbps(self.load_model.leg_mbps(config))
        cores = self.load_model.call_cores(config)
        for dc_id in ordered:
            link_gbps: Dict[str, float] = {}
            reachable = True
            for country, count in config.spread:
                try:
                    path = self.topology.wan.path(
                        dc_id, country, exclude_links=tuple(failed_links)
                    )
                except TopologyError:
                    reachable = False
                    break
                for link_id in path:
                    link_gbps[link_id] = link_gbps.get(link_id, 0.0) + per_leg_gbps * count
            if reachable:
                return [PlacementOption(
                    dc_id=dc_id,
                    acl_ms=self.topology.acl_ms(dc_id, config),
                    cores_per_call=cores,
                    link_gbps=link_gbps,
                )]
        raise TopologyError(
            f"no DC can host {config} under failure dcs={sorted(failed_dcs)} "
            f"links={sorted(failed_links)}"
        )

    def min_acl_ms(self, config: CallConfig) -> float:
        """The best achievable ACL for a config (LF's score)."""
        return min(option.acl_ms for option in self.options(config))
