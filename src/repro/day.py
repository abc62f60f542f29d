"""The surprise day: planned from a cushioned forecast, served as it happens.

The paper plans each day from a cushioned forecast (§5.2) and serves the
calls that actually arrive (§5.4).  :func:`plan_day` builds that day,
under a storm the planner did not see coming, for the autoscale, storm
and live-migration drills.  One ``seed`` feeds four streams: the config
population at ``seed``, the storm's Poisson realization at ``seed + 1``,
the trace expansion at ``seed + 2`` and the storm's trace-only faces at
``seed + 3`` (join-time compression, the catalog's one such face, draws
nothing).  ``tests/test_day.py`` pins all four.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.allocation.plan import AllocationPlan
from repro.config import PlannerConfig, ServiceConfig
from repro.controller.columnar import ColumnarEventBatch, build_event_batch
from repro.core.types import make_slots
from repro.core.units import DEFAULT_FREEZE_WINDOW_S, DEFAULT_SLOT_S
from repro.provisioning.planner import CapacityPlan
from repro.resilience.faults import FaultSpec
from repro.service import ServiceRuntime
from repro.service.report import ServiceReport
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand, DemandModel
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.trace import TraceGenerator

if TYPE_CHECKING:
    # repro.storms imports its harness, which imports this module.
    from repro.storms.overlays import StormPlan

__all__ = ["Day", "plan_day"]


@dataclass(frozen=True)
class Day:
    """A planned and realized day, ready to serve any number of times.

    ``planning`` is the cushioned forecast the plan was built from, and
    ``events`` the realized stormed day.
    """

    topology: Topology
    controller: Switchboard
    planning: Demand
    capacity: CapacityPlan
    plan: AllocationPlan
    events: ColumnarEventBatch

    def serve(self, service: Optional[ServiceConfig] = None,
              **wiring) -> ServiceReport:
        """Serve the realized day on a fresh runtime; ``wiring`` is the
        optional subsystems of :meth:`ServiceRuntime.from_config`
        (``rescaler=``, ``migrator=``, ...)."""
        runtime = ServiceRuntime.from_config(
            self.topology, self.plan, service,
            freeze_window_s=DEFAULT_FREEZE_WINDOW_S, **wiring)
        return runtime.run(self.events)


def plan_day(topology: Topology, storm: StormPlan, *, n_configs: int,
             calls_per_slot: float, cushion: float, seed: int,
             faults: Sequence[FaultSpec] = ()) -> Day:
    """Plan a normal cushioned day, then realize ``storm`` on it.

    The planner never sees the storm.  A DC or link failure in
    ``faults`` rebuilds the allocation for that failure scenario
    (§4.2).
    """
    population = generate_population(topology.world, n_configs=n_configs,
                                     seed=seed)
    model = DemandModel(topology.world, population, DiurnalModel(),
                        calls_per_slot_at_peak=calls_per_slot)
    base = model.expected(make_slots(86400.0, DEFAULT_SLOT_S))
    planning = base.scale(cushion)

    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(planning, with_backup=False)
    failed_dc = next((f.dc for f in faults if f.kind == "dc_failure"), None)
    failed_link = next((f.link for f in faults if f.kind == "link_failure"),
                       None)
    if failed_dc is not None or failed_link is not None:
        plan = controller.allocation_plan(planning, failed_dc=failed_dc,
                                          failed_link=failed_link)
    else:
        plan = controller.allocate(planning, capacity).plan

    actual = storm.realize(base, seed + 1)
    trace = TraceGenerator(seed=seed + 2).generate_columnar(actual)
    trace = storm.apply_trace(trace, seed=seed + 3, demand_applied=True)
    events = build_event_batch(trace, DEFAULT_FREEZE_WINDOW_S)
    return Day(topology, controller, planning, capacity, plan, events)
