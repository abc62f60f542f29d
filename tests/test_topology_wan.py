"""Tests for the WAN graph: links, paths, failures."""

import hashlib

import pytest

from repro.core.errors import TopologyError
from repro.topology.builder import Topology
from repro.topology.datacenter import DatacenterFleet
from repro.topology.geo import World
from repro.topology.wan import WanNetwork


@pytest.fixture(scope="module")
def world():
    return World.default()


@pytest.fixture(scope="module")
def wan(world):
    return WanNetwork(world, DatacenterFleet.default(world))


@pytest.fixture(scope="module")
def single_homed(world):
    """Every country on one access link: each of those is a bridge."""
    return WanNetwork(world, DatacenterFleet.default(world), country_homing=1)


class TestConstruction:
    def test_invalid_parameters(self, world):
        fleet = DatacenterFleet.default(world)
        with pytest.raises(TopologyError):
            WanNetwork(world, fleet, dc_degree=0)
        with pytest.raises(TopologyError):
            WanNetwork(world, fleet, country_homing=0)

    def test_every_country_reachable_from_every_dc(self, wan, world):
        for dc_id in ("dc-tokyo", "dc-virginia", "dc-london"):
            for country in world.codes:
                assert len(wan.path(dc_id, country)) >= 1

    def test_links_sorted_and_unique(self, wan):
        ids = [link.link_id for link in wan.links]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_inter_country_flags(self, wan):
        for link in wan.links:
            # A link between dc-tokyo and JP's edge node is intra-country.
            if link.endpoints == frozenset(("dc-tokyo", "JP")):
                assert not link.inter_country
            if link.endpoints == frozenset(("dc-tokyo", "dc-seoul")):
                assert link.inter_country

    def test_longer_links_cost_more(self, wan):
        links = sorted(wan.links, key=lambda l: l.distance_km)
        assert links[0].unit_cost < links[-1].unit_cost


class TestPaths:
    def test_path_links_exist(self, wan):
        for link_id in wan.path("dc-tokyo", "IN"):
            wan.link(link_id)  # must not raise

    def test_path_endpoints_connect(self, wan):
        path = wan.path("dc-virginia", "BR")
        first, last = wan.link(path[0]), wan.link(path[-1])
        assert "dc-virginia" in first.endpoints
        assert "BR" in last.endpoints

    def test_colocated_path_is_single_access_link(self, wan):
        path = wan.path("dc-tokyo", "JP")
        assert len(path) == 1
        assert not wan.link(path[0]).inter_country

    def test_in_path(self, wan):
        path = wan.path("dc-tokyo", "IN")
        for link_id in path:
            assert wan.in_path(link_id, "dc-tokyo", "IN")
        other = [l.link_id for l in wan.links if l.link_id not in path]
        assert not wan.in_path(other[0], "dc-tokyo", "IN")

    def test_unknown_endpoints_raise(self, wan):
        with pytest.raises(TopologyError):
            wan.path("dc-nowhere", "JP")
        with pytest.raises(TopologyError):
            wan.path("dc-tokyo", "XX")

    def test_path_distance_positive(self, wan):
        assert wan.path_distance_km("dc-tokyo", "IN") > 0

    def test_exclude_link_reroutes(self, wan):
        path = wan.path("dc-tokyo", "IN")
        # Excluding a mid-path backbone link must produce a different path
        # that avoids it (the access link may be unavoidable).
        for link_id in path:
            if wan.is_bridge(link_id):
                continue
            alternate = wan.path("dc-tokyo", "IN", exclude_link=link_id)
            assert link_id not in alternate
            break

    def test_excluding_only_access_link_of_single_homed_pair_raises(
            self, single_homed, world):
        # If a (dc, country) pair's every path crosses one bridge link,
        # excluding it must raise rather than fabricate a path.
        for country in world.codes:
            [link] = [l for l in single_homed.links
                      if country in l.endpoints]
            assert single_homed.is_bridge(link.link_id)
            [dc] = link.endpoints - {country}
            with pytest.raises(TopologyError):
                single_homed.path(dc, country, exclude_link=link.link_id)

    def test_bridges_found_whatever_their_orientation(self, single_homed,
                                                      wan, world):
        """Every single-homed access link is a bridge and nothing else
        is, and a twice-homed world has none."""
        bridges = {l.link_id for l in single_homed.links
                   if single_homed.is_bridge(l.link_id)}
        access = {l.link_id for l in single_homed.links
                  if l.endpoints & set(world.codes)}
        assert bridges == access and len(bridges) == len(world.codes)
        assert not any(wan.is_bridge(l.link_id) for l in wan.links)
        with pytest.raises(TopologyError):
            wan.is_bridge("nowhere--XX")

    def test_links_touching_dc(self, wan):
        touching = wan.links_touching_dc("dc-tokyo")
        assert touching
        assert all("dc-tokyo" in link.endpoints for link in touching)
        with pytest.raises(TopologyError):
            wan.links_touching_dc("dc-nowhere")

    def test_path_cached_deterministic(self, wan):
        assert wan.path("dc-london", "ZA") == wan.path("dc-london", "ZA")


#: sha256 of :func:`_wan_digest` as networkx 3.6.1 built and searched
#: these graphs.  The default world's 13 countries at their DC's
#: coordinates have zero-length access links, so equal-length paths tie;
#: a plain Dijkstra breaks 38 of those ties differently.
WAN_GOLDEN = {
    "small": "f48b555a1dfe5db192571ea362e0bf4d93c2215e9ba16eec0e3312e273cd1afe",
    "default": "84412d3a9942533a805c3b9f61841615cbaf5363a4337bc8be28d5bfdc23cb7a",
    "single-homed": "995a4e642bfccb4d2a30121d215434505bfaee03eedf730f9bcad5456c00c117",
}


def _wan_digest(wan, dc_ids, country_codes) -> str:
    """Every link, the bridge set, and ``path(dc, country)`` with no link
    excluded and with each single link excluded (``None``: no path)."""
    digest = hashlib.sha256()
    links = wan.links
    for link in links:
        digest.update(repr((link.link_id, link.node_a, link.node_b,
                            link.distance_km.hex(), link.unit_cost.hex(),
                            link.inter_country)).encode())
    digest.update(repr(sorted(link.link_id for link in links
                              if wan.is_bridge(link.link_id))).encode())
    for dc_id in dc_ids:
        for country in country_codes:
            for excluded in [None] + [link.link_id for link in links]:
                try:
                    path = wan.path(dc_id, country, exclude_link=excluded)
                except TopologyError:
                    path = None
                digest.update(repr((dc_id, country, excluded, path)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(WAN_GOLDEN))
def test_links_bridges_and_paths_match_golden(name, world):
    if name == "single-homed":
        fleet = DatacenterFleet.default(world)
        wan, dc_ids, codes = (WanNetwork(world, fleet, country_homing=1),
                              fleet.ids, world.codes)
    else:
        topology = getattr(Topology, name)()
        wan, dc_ids, codes = (topology.wan, topology.fleet.ids,
                              topology.world.codes)
    assert _wan_digest(wan, dc_ids, codes) == WAN_GOLDEN[name]
