"""The inter-DC WAN: links, paths, and ``InPath`` membership.

The WAN is a networkx graph whose nodes are DC ids plus country "edge"
nodes (where participant traffic enters Azure's network).  Links carry a
per-Gbps unit cost, ``WAN_Cost(l)`` in Table 2.  ``Path(x, u)`` is the
latency-shortest path from DC *x* to country *u*'s edge node, and
``InPath(l, x, u)`` is link membership on that path — exactly the terms the
provisioning LP consumes (Eq 6).

Topology construction mirrors a real backbone: each DC peers with its
``dc_degree`` nearest DCs (plus a minimum-spanning tree over all DC pairs
to guarantee connectivity), and each country homes onto its
``country_homing`` nearest DCs.  A link is *inter-country* when its two
endpoints sit in different countries; only those links count toward the
"Total WAN capacity" metric of §6.1.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.errors import TopologyError
from repro.topology.datacenter import DatacenterFleet
from repro.topology.geo import World, haversine_km

#: Relative cost per Gbps: a fixed port cost plus a distance-proportional
#: term.  Submarine/long-haul links end up ~20x the price of metro links,
#: matching the paper's observation that inter-country links are
#: "disproportionately" expensive (§6.1).  The absolute level is
#: calibrated against per-core costs so that WAN bandwidth dominates the
#: total provisioning cost (~85-90% for the RR baseline) — the regime
#: Table 3's cost column implies (SB saves 51% of total cost almost
#: entirely through its 57% WAN reduction at equal cores).
_LINK_COST_BASE = 30.0
_LINK_COST_PER_KM = 0.12


@dataclass(frozen=True)
class Link:
    """An undirected WAN link between two nodes (DC id or country code)."""

    link_id: str
    node_a: str
    node_b: str
    distance_km: float
    unit_cost: float
    inter_country: bool

    @property
    def endpoints(self) -> FrozenSet[str]:
        return frozenset((self.node_a, self.node_b))


class WanNetwork:
    """The WAN graph plus cached shortest paths and link membership."""

    def __init__(self, world: World, fleet: DatacenterFleet,
                 dc_degree: int = 3, country_homing: int = 2):
        if dc_degree < 1:
            raise TopologyError("dc_degree must be >= 1")
        if country_homing < 1:
            raise TopologyError("country_homing must be >= 1")
        self._world = world
        self._fleet = fleet
        self._graph = nx.Graph()
        self._links: Dict[str, Link] = {}
        self._build(dc_degree, country_homing)
        self._path_cache: Dict[Tuple[str, str], Tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _node_pos(self, node: str) -> Tuple[float, float]:
        if node in self._fleet:
            dc = self._fleet.dc(node)
            return dc.lat, dc.lon
        country = self._world.country(node)
        return country.lat, country.lon

    def _node_country(self, node: str) -> str:
        if node in self._fleet:
            return self._fleet.dc(node).country_code
        return node

    def _add_link(self, node_a: str, node_b: str) -> None:
        if node_a == node_b or self._graph.has_edge(node_a, node_b):
            return
        (lat_a, lon_a), (lat_b, lon_b) = self._node_pos(node_a), self._node_pos(node_b)
        distance = haversine_km(lat_a, lon_a, lat_b, lon_b)
        inter_country = self._node_country(node_a) != self._node_country(node_b)
        cost = _LINK_COST_BASE + _LINK_COST_PER_KM * distance
        link_id = "--".join(sorted((node_a, node_b)))
        link = Link(link_id, node_a, node_b, distance, cost, inter_country)
        self._links[link_id] = link
        # Edge weight is distance: the latency-shortest path equals the
        # distance-shortest path because latency is affine in distance.
        self._graph.add_edge(node_a, node_b, weight=distance, link_id=link_id)

    def _build(self, dc_degree: int, country_homing: int) -> None:
        dc_ids = self._fleet.ids
        for dc_id in dc_ids:
            self._graph.add_node(dc_id, kind="dc")
        for country in self._world:
            self._graph.add_node(country.code, kind="country")

        # Backbone: k-nearest-neighbour DC mesh ...
        for dc_id in dc_ids:
            lat, lon = self._node_pos(dc_id)
            others = sorted(
                (other for other in dc_ids if other != dc_id),
                key=lambda other: haversine_km(lat, lon, *self._node_pos(other)),
            )
            for other in others[:dc_degree]:
                self._add_link(dc_id, other)

        # ... plus an MST over all DC pairs so the backbone is connected.
        if len(dc_ids) > 1:
            complete = nx.Graph()
            for a, b in itertools.combinations(dc_ids, 2):
                complete.add_edge(
                    a, b, weight=haversine_km(*self._node_pos(a), *self._node_pos(b))
                )
            for a, b in nx.minimum_spanning_edges(complete, data=False):
                self._add_link(a, b)

        # Access: each country homes onto its nearest DCs.
        for country in self._world:
            nearest = sorted(
                dc_ids,
                key=lambda dc_id: haversine_km(
                    country.lat, country.lon, *self._node_pos(dc_id)
                ),
            )
            for dc_id in nearest[:country_homing]:
                self._add_link(country.code, dc_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def links(self) -> List[Link]:
        """All links, sorted by id for deterministic iteration."""
        return [self._links[link_id] for link_id in sorted(self._links)]

    @property
    def inter_country_links(self) -> List[Link]:
        """Links whose peak rate counts toward Total WAN capacity (§6.1)."""
        return [link for link in self.links if link.inter_country]

    def link(self, link_id: str) -> Link:
        try:
            return self._links[link_id]
        except KeyError:
            raise TopologyError(f"unknown link {link_id!r}") from None

    def path(self, dc_id: str, country_code: str,
             exclude_link: Optional[str] = None,
             exclude_links: Sequence[str] = ()) -> Tuple[str, ...]:
        """Link ids on the shortest path from DC to country edge node.

        ``exclude_link`` / ``exclude_links`` recompute the path with links
        removed — used to reroute traffic under WAN-link failure scenarios
        (single or compound).
        """
        if dc_id not in self._fleet:
            raise TopologyError(f"unknown DC {dc_id!r}")
        if country_code not in self._world:
            raise TopologyError(f"unknown country {country_code!r}")
        excluded = set(exclude_links)
        if exclude_link is not None:
            excluded.add(exclude_link)
        key = (dc_id, country_code)
        if not excluded and key in self._path_cache:
            return self._path_cache[key]

        graph = self._graph
        if excluded:
            edges = [
                (self.link(link_id).node_a, self.link(link_id).node_b)
                for link_id in excluded
            ]
            graph = nx.restricted_view(self._graph, nodes=[], edges=edges)
        try:
            nodes = nx.shortest_path(graph, dc_id, country_code, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            raise TopologyError(
                f"no WAN path from {dc_id} to {country_code}"
                + (f" avoiding {sorted(excluded)}" if excluded else "")
            ) from None
        link_ids = tuple(
            self._graph.edges[a, b]["link_id"] for a, b in zip(nodes, nodes[1:])
        )
        if not excluded:
            self._path_cache[key] = link_ids
        return link_ids

    def in_path(self, link_id: str, dc_id: str, country_code: str) -> bool:
        """``InPath(l, x, u)`` of Table 2."""
        return link_id in self.path(dc_id, country_code)

    def path_distance_km(self, dc_id: str, country_code: str) -> float:
        """Total km along ``Path(x, u)``."""
        return sum(self.link(link_id).distance_km for link_id in self.path(dc_id, country_code))

    def links_touching_dc(self, dc_id: str) -> List[Link]:
        """Links incident to a DC (all unusable when that DC fails, §5.3)."""
        if dc_id not in self._fleet:
            raise TopologyError(f"unknown DC {dc_id!r}")
        return [link for link in self.links if dc_id in link.endpoints]

    @functools.cached_property
    def _bridges(self) -> FrozenSet[str]:
        """Ids of the links whose removal disconnects the graph.
        ``nx.bridges`` orients each edge arbitrarily, so the set holds
        link ids, not node pairs."""
        return frozenset(self._graph.edges[a, b]["link_id"]
                         for a, b in nx.bridges(self._graph))

    def is_bridge(self, link_id: str) -> bool:
        """True when removing the link disconnects the WAN graph.

        Bridge links are excluded from single-link failure scenarios
        because no amount of backup capacity can reroute around them.
        """
        self.link(link_id)  # unknown ids raise
        return link_id in self._bridges

    @property
    def graph(self) -> nx.Graph:
        """Read-only view of the underlying graph (for diagnostics)."""
        return self._graph.copy(as_view=True)
