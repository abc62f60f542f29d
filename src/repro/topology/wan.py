"""The inter-DC WAN: links, paths, and ``InPath`` membership.

The WAN is an undirected graph, kept as an adjacency dict, whose nodes
are DC ids plus country "edge" nodes (where participant traffic enters
Azure's network).  Links carry a per-Gbps unit cost, ``WAN_Cost(l)`` in
Table 2.  ``Path(x, u)`` is the latency-shortest path from DC *x* to
country *u*'s edge node, and ``InPath(l, x, u)`` is link membership on
that path — exactly the terms the provisioning LP consumes (Eq 6).

Topology construction mirrors a real backbone: each DC peers with its
``dc_degree`` nearest DCs (plus a minimum-spanning tree over all DC pairs
to guarantee connectivity), and each country homes onto its
``country_homing`` nearest DCs.  A link is *inter-country* when its two
endpoints sit in different countries; only those links count toward the
"Total WAN capacity" metric of §6.1.

Paths and the spanning tree break ties between equal-length candidates
exactly as networkx 3.6.1 did when it held this graph: Kruskal over
the DC pairs in ``itertools.combinations`` order, sorted stably by
distance, and networkx's bidirectional Dijkstra.  The tie-breaking
matters, not only the length: a country at its DC's coordinates has a
zero-length access link, so its paths tie.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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
        #: node -> neighbour -> (distance km, link id), in insertion order.
        self._adj: Dict[str, Dict[str, Tuple[float, str]]] = {}
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
        if node_a == node_b or node_b in self._adj[node_a]:
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
        self._adj[node_a][node_b] = self._adj[node_b][node_a] = (distance,
                                                                  link_id)

    def _build(self, dc_degree: int, country_homing: int) -> None:
        dc_ids = self._fleet.ids
        self._adj = {node: {} for node in
                     [*dc_ids, *(country.code for country in self._world)]}

        # Backbone: k-nearest-neighbour DC mesh ...
        for dc_id in dc_ids:
            lat, lon = self._node_pos(dc_id)
            others = sorted(
                (other for other in dc_ids if other != dc_id),
                key=lambda other: haversine_km(lat, lon, *self._node_pos(other)),
            )
            for other in others[:dc_degree]:
                self._add_link(dc_id, other)

        # ... plus an MST over all DC pairs so the backbone is connected
        # (Kruskal; the stable sort keeps equal distances in pair order).
        pairs = sorted(itertools.combinations(dc_ids, 2), key=lambda pair:
                       haversine_km(*self._node_pos(pair[0]),
                                    *self._node_pos(pair[1])))
        component = {dc_id: dc_id for dc_id in dc_ids}

        def root(node: str) -> str:
            while component[node] != node:
                node = component[node]
            return node

        for a, b in pairs:
            root_a, root_b = root(a), root(b)
            if root_a != root_b:
                component[root_a] = root_b
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
        for link_id in excluded:
            self.link(link_id)  # unknown ids raise
        key = (dc_id, country_code)
        if not excluded and key in self._path_cache:
            return self._path_cache[key]

        nodes = self._shortest_nodes(dc_id, country_code, excluded)
        if nodes is None:
            raise TopologyError(
                f"no WAN path from {dc_id} to {country_code}"
                + (f" avoiding {sorted(excluded)}" if excluded else "")
            )
        link_ids = tuple(self._adj[a][b][1] for a, b in zip(nodes, nodes[1:]))
        if not excluded:
            self._path_cache[key] = link_ids
        return link_ids

    def _shortest_nodes(self, source: str, target: str,
                        excluded: Set[str]) -> Optional[List[str]]:
        """Nodes of a shortest ``source``–``target`` path avoiding the
        ``excluded`` link ids, ``None`` when there is none: networkx
        3.6.1's ``bidirectional_dijkstra``, step for step, so equal-length
        paths tie-break as they did (search alternates sides, heap ties
        by push order, neighbours in insertion order)."""
        if source == target:
            return [source]
        adj = self._adj
        dists: Tuple[Dict[str, float], Dict[str, float]] = ({}, {})
        preds: Tuple[Dict[str, Optional[str]], ...] = ({source: None},
                                                        {target: None})
        seen: Tuple[Dict[str, float], Dict[str, float]] = ({source: 0},
                                                           {target: 0})
        pushes = itertools.count()
        fringe = ([(0, next(pushes), source)], [(0, next(pushes), target)])
        final_dist: Optional[float] = None
        meet = source
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, node = heapq.heappop(fringe[direction])
            if node in dists[direction]:
                continue
            dists[direction][node] = dist
            if node in dists[1 - direction]:
                nodes: List[str] = []
                step: Optional[str] = meet
                while step is not None:
                    nodes.append(step)
                    step = preds[0][step]
                nodes.reverse()
                step = preds[1][meet]
                while step is not None:
                    nodes.append(step)
                    step = preds[1][step]
                return nodes
            for neighbour, (length, link_id) in adj[node].items():
                if link_id in excluded or neighbour in dists[direction]:
                    continue
                through = dist + length
                if (neighbour not in seen[direction]
                        or through < seen[direction][neighbour]):
                    seen[direction][neighbour] = through
                    heapq.heappush(fringe[direction],
                                   (through, next(pushes), neighbour))
                    preds[direction][neighbour] = node
                    if neighbour in seen[1 - direction]:
                        total = through + seen[1 - direction][neighbour]
                        if final_dist is None or final_dist > total:
                            final_dist, meet = total, neighbour
        return None

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
        """Ids of the links whose removal disconnects their two ends."""
        return frozenset(
            link_id for link_id, link in self._links.items()
            if self._shortest_nodes(link.node_a, link.node_b,
                                    {link_id}) is None)

    def is_bridge(self, link_id: str) -> bool:
        """True when removing the link disconnects the WAN graph.

        Bridge links are excluded from single-link failure scenarios
        because no amount of backup capacity can reroute around them.
        """
        self.link(link_id)  # unknown ids raise
        return link_id in self._bridges
