#!/usr/bin/env python3
"""Failure drill: what happens when a whole DC goes dark — or the solver.

Part 1 provisions Switchboard capacity with backup (§5.3's failure
model: any one DC or WAN link can fail), then walks through every DC
failure and verifies that the surviving capacity hosts the full demand —
reporting where the failed DC's calls land and what the latency penalty
is.  This is the §4.2 story made concrete: the backup that absorbs
Japan's peak is India's and Hong Kong's off-peak serving capacity.

Part 2 drills the *control plane* instead of the topology: a
:class:`~repro.resilience.faults.FaultPlan` injects solver crashes and
hangs, one of them inside the threaded max sweep, and the degradation
ladder
(``joint → max → incremental → locality``) keeps ``provision()``
returning usable plans, each tagged with how far it degraded, with the
full attempt/retry/fallback trail in the event log.

Run:  python examples/failure_drill.py
"""

import threading

from repro import FaultPlan, PlannerConfig, Switchboard, Topology, \
    generate_population
from repro.core import make_slots
from repro.provisioning import FailureScenario, PlacementData, ScenarioLP
from repro.workload import DemandModel


def main() -> None:
    topology = Topology.default()
    population = generate_population(topology.world, n_configs=60, seed=21)
    demand = DemandModel(
        topology.world, population, calls_per_slot_at_peak=150.0
    ).expected(make_slots(86400.0))

    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(demand, with_backup=True)
    placement = controller.placement_for(demand.configs)
    baseline = controller.allocate(demand, capacity)
    baseline_acl = baseline.plan.mean_acl_ms(
        lambda dc, config: topology.acl_ms(dc, config)
    )
    print(f"Provisioned {capacity.total_cores():.0f} cores, "
          f"{capacity.total_wan_gbps(topology):.2f} Gbps inter-country WAN; "
          f"no-failure mean ACL {baseline_acl:.1f} ms\n")
    print(f"{'failed DC':<16}{'fits?':>7}{'mean ACL':>10}{'ACL penalty':>13}")

    for dc_id in topology.fleet.ids:
        scenario = FailureScenario(name=f"F_dc:{dc_id}", failed_dc=dc_id)
        # Re-place the demand with the provisioned capacity as a free
        # base: if the scenario fits, the LP needs zero *excess* capacity.
        result = ScenarioLP(
            placement, demand, scenario,
            base_cores=capacity.cores, base_links=capacity.link_gbps,
            latency_weight=1e-6,
        ).solve()
        excess = sum(result.excess_cores.values()) + sum(
            result.excess_links.values()
        )
        acl = result.mean_acl_ms(placement, demand)
        print(f"{dc_id:<16}{'yes' if excess < 1e-3 else 'NO':>7}"
              f"{acl:>9.1f}ms{acl - baseline_acl:>+11.1f}ms")

    print("\nEvery row should fit: the plan provisions the max over all "
          "failure scenarios (Eqs 7-8).")

    resilience_drill(topology, demand)


def resilience_drill(topology: Topology, demand) -> None:
    """Part 2: crash/hang faults against the solve pipeline."""
    print("\n--- resilience drill: faults against the solver itself ---")
    print(f"{'fault':<34}{'method':>12}{'level':>7}{'retries':>9}"
          f"{'fallbacks':>11}")

    drills = [
        ("2 crashes (retries absorb them)",
         FaultPlan().crash("provision", times=2),
         PlannerConfig(max_link_scenarios=0, solve_retries=2,
                       retry_backoff_s=0.0)),
        ("crash every attempt",
         FaultPlan().crash("provision", times=100),
         PlannerConfig(max_link_scenarios=0, solve_retries=1,
                       retry_backoff_s=0.0)),
        ("joint LP hangs past its budget",
         FaultPlan().hang("provision.joint", times=10),
         PlannerConfig(max_link_scenarios=0, solve_timeout_s=8.0,
                       solve_retries=1, retry_backoff_s=0.0)),
        ("crash inside the threaded max sweep",
         FaultPlan().crash("provision.scenario[F0]", times=1),
         PlannerConfig(max_link_scenarios=0, backup_method="max",
                       solve_retries=1, retry_backoff_s=0.0)),
    ]
    for title, faults, base in drills:
        controller = Switchboard(
            topology, config=base.but(fault_plan=faults)
        )
        plan = controller.provision(demand, with_backup=True)
        retries = controller.obs.counters.get("solve.retry")
        fallbacks = controller.obs.counters.get("ladder.fallback")
        print(f"{title:<34}{plan.method:>12}{plan.degradation_level:>7}"
              f"{retries:>9}{fallbacks:>11}")
        assert plan.total_cores() > 0

    print("\nEvery drill produced a usable plan; 'level' is how far down "
          "the ladder (0 = configured method) it had to go.")
    # A timed-out solve stops inside HiGHS: no solver thread outlives it.
    assert threading.active_count() == 1


if __name__ == "__main__":
    main()
