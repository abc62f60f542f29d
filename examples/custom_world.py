#!/usr/bin/env python3
"""Bring your own deployment: custom topology + server fleet.

Shows the two adoption-oriented layers:

1. define *your* world (countries, DCs, prices) as a JSON-able document
   and load it with ``topology_from_dict`` — here, a small European
   operator with three DCs;
2. provision with Switchboard, then realize the plan as actual MP
   servers (``repro.packing``) and host the busiest plan cell's calls on
   them through the fleet ledger.

Run:  python examples/custom_world.py
"""

from repro import PlannerConfig, Switchboard, generate_population
from repro.core import make_slots
from repro.packing import build_packing
from repro.topology import topology_from_dict
from repro.workload import DemandModel

EURO_OPERATOR = {
    "version": 1,
    "countries": [
        {"code": "GB", "name": "United Kingdom", "lat": 51.51, "lon": -0.13,
         "utc_offset_h": 0.0, "region": "emea", "user_weight": 5.0},
        {"code": "DE", "name": "Germany", "lat": 50.11, "lon": 8.68,
         "utc_offset_h": 1.0, "region": "emea", "user_weight": 4.0},
        {"code": "PL", "name": "Poland", "lat": 52.23, "lon": 21.01,
         "utc_offset_h": 1.0, "region": "emea", "user_weight": 2.0},
        {"code": "ES", "name": "Spain", "lat": 40.42, "lon": -3.70,
         "utc_offset_h": 1.0, "region": "emea", "user_weight": 2.5},
    ],
    "datacenters": [
        {"dc_id": "dc-london", "country_code": "GB", "core_cost": 1.10,
         "lat": 51.51, "lon": -0.13},
        {"dc_id": "dc-frankfurt", "country_code": "DE", "core_cost": 1.00,
         "lat": 50.11, "lon": 8.68},
        {"dc_id": "dc-warsaw", "country_code": "PL", "core_cost": 0.90,
         "lat": 52.23, "lon": 21.01},
    ],
    "wan": {"dc_degree": 2, "country_homing": 2},
}


def main() -> None:
    topology = topology_from_dict(EURO_OPERATOR)
    print(f"Custom world: {len(topology.world)} countries, "
          f"{len(topology.fleet)} DCs, {len(topology.wan.links)} links")

    population = generate_population(topology.world, n_configs=40, seed=9)
    demand = DemandModel(
        topology.world, population, calls_per_slot_at_peak=120.0
    ).expected(make_slots(86400.0))

    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=2))
    capacity = controller.provision(demand, with_backup=True)
    print(f"Provisioned {capacity.total_cores():.0f} cores, "
          f"{capacity.total_wan_gbps(topology):.2f} Gbps inter-country WAN "
          "(survives any single DC/link failure)")

    # Realize the plan as MP servers and host the busiest cell: each
    # debit takes a plan slot *and* reserves a specific server.
    ledger, _ = build_packing(capacity)
    print("Server fleet: " + ", ".join(
        f"{fleet.dc_id} {fleet.n_servers}" for fleet in ledger.fleets())
        + " MP servers")

    plan = controller.allocate(demand, capacity).plan
    ledger.load_plan(plan)
    (slot, config), cell = max(plan.shares.items(),
                               key=lambda item: max(item[1].values()))
    dc_id, count = max(cell.items(), key=lambda kv: kv[1])
    hosted = sum(ledger.try_debit(slot, config, dc_id, call_id=f"call-{i}")
                 for i in range(int(count)))
    metrics = ledger.fleet_metrics()
    print(f"\nHosted {hosted}/{int(count)} calls of {config} at {dc_id}: "
          f"{metrics['servers_open_now']} of {metrics['n_servers']} servers "
          f"open, {metrics['frag_slots_lost']} call slots lost to "
          f"fragmentation")


if __name__ == "__main__":
    main()
