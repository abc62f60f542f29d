#!/usr/bin/env python3
"""Server-level call packing end to end: workload -> plan -> packed fleet.

Generates the seeded class-structured packing workload, provisions a
plan for it, then serves the event stream through the admission engine
backed by a per-server FleetLedger — placing every call on an MP
server, growing reservations as post-freeze joins land, rebalancing
overloaded servers, and defragmenting the fleet between event batches.
Prints the ServiceReport with the packing block (peak servers,
fragmentation, defrag moves) and optionally writes it as JSON for CI
artifacts.

Run:  python examples/packing_demo.py [--calls N] [--policy NAME]
      [--utilization X] [--json PATH] [--smoke]
"""

import argparse
import json
import sys

from repro import PlannerConfig, Switchboard, Topology
from repro.config import PACKING_POLICIES, PackingConfig
from repro.packing import build_packing
from repro.packing.workload import generate_packing_load, media_mix
from repro.service import ServiceRuntime

#: Fragmentation above this many allocatable-slots-lost on the smoke
#: workload is a packing regression (the defragmenter is not keeping
#: up); CI fails on it.
SMOKE_FRAG_CEILING = 20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serve the packing workload on a per-server fleet.")
    parser.add_argument("--calls", type=int, default=300,
                        help="number of calls to generate")
    parser.add_argument("--policy", default="predictive",
                        choices=PACKING_POLICIES,
                        help="server-selection/sizing policy")
    parser.add_argument("--utilization", type=float, default=0.9,
                        help="per-server utilization target")
    parser.add_argument("--fleet-scale", type=float, default=3.0,
                        help="fleet cores as a multiple of provisioned")
    parser.add_argument("--defrag-interval", type=float, default=1800.0,
                        help="defrag round width in seconds (0 disables)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", type=str, default=None,
                        help="write the ServiceReport to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: exit non-zero unless call "
                             "accounting is exact and fragmentation is "
                             "within the pinned ceiling")
    args = parser.parse_args(argv)

    topology = Topology.default()
    load = generate_packing_load(n_calls=args.calls, seed=args.seed,
                                 countries=["US"])
    print(f"Load: {load.n_calls} calls -> {load.n_events} events, "
          f"mix {media_mix(load.trace)}")

    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(load.demand, with_backup=False)
    plan = controller.allocate(load.demand, capacity).plan
    fleet = {dc: cores * args.fleet_scale
             for dc, cores in capacity.cores.items()}

    packing_config = PackingConfig(
        policy=args.policy,
        utilization_target=args.utilization,
        defrag_interval_s=args.defrag_interval or None,
    )
    ledger, defragmenter = build_packing(
        fleet, packing_config, training_calls=load.training_calls)
    runtime = ServiceRuntime.from_config(
        topology, plan, ledger=ledger,
        defragmenter=defragmenter,
        defrag_interval_s=packing_config.defrag_interval_s)
    report = runtime.run(load.batch)

    print()
    print(report.summary())

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"\nreport written to {args.json}")

    if args.smoke:
        report.require_exact_accounting()
        if report.frag_slots_lost > SMOKE_FRAG_CEILING:
            print(f"\nsmoke: FRAGMENTATION REGRESSION — "
                  f"{report.frag_slots_lost} allocatable slots lost "
                  f"(> {SMOKE_FRAG_CEILING})", file=sys.stderr)
            return 1
        print("\nsmoke: exact accounting verified "
              f"({report.generated_calls} calls, "
              f"{report.defrag_migrated_calls} defrag moves, "
              f"{report.frag_slots_lost} frag slots lost "
              f"<= {SMOKE_FRAG_CEILING})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
