"""The chaos harness: serve every named storm, assert its invariants.

One :func:`run_storm` call drives the full stack through one storm:

1. the planner provisions and allocates from the *un-stormed* forecast
   (cushioned, exactly like a normal day — the storm is a surprise);
2. the storm's co-scheduled :class:`~repro.resilience.faults.FaultPlan`
   is consumed on the shared timeline: DC/link failures landing on the
   served day rebuild the allocation for the failure scenario (§4.2),
   both faults of a compound storm in one deterministic batch;
3. the day that actually happens is realized through the storm's demand
   faces (one Poisson draw over the stormed expectation), expanded to a
   columnar trace, and the storm's residual trace faces (join-time
   compression and friends) are applied vectorized;
4. the realized event stream is served by
   :class:`~repro.service.ServiceRuntime` under the requested executor
   (``"thread"`` or ``"process"``), with the closed-loop autoscaler
   bound for non-fault storms;
5. the declared invariants are checked: exact accounting, bounded
   overflow, zero drain shortfall, settle-tail ceiling — and the result
   is a schema-versioned per-storm JSON-ready report.

:func:`run_named_storms` sweeps the registry (optionally across both
executors) and is what ``fig_storms``/CI run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.autoscale import Autoscaler
from repro.config import AutoscaleConfig, PlannerConfig, ServiceConfig
from repro.controller.columnar import build_event_batch
from repro.core.errors import SwitchboardError
from repro.core.types import make_slots
from repro.core.units import DEFAULT_FREEZE_WINDOW_S, DEFAULT_SLOT_S
from repro.service import ServiceRuntime
from repro.storms.catalog import StormSpec, get_storm, named_storms
from repro.storms.overlays import StormPlan
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import DemandModel
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.trace import TraceGenerator

__all__ = [
    "STORM_REPORT_SCHEMA_VERSION",
    "check_storm_report",
    "run_named_storms",
    "run_storm",
]

#: Version of the per-storm report dict.  Bump when a key is added,
#: removed, or changes meaning — the ``drills`` CI job's ``storms``
#: artifact and any downstream consumer key their parsing off this field.
#:
#: History:
#:   1 — initial schema.
STORM_REPORT_SCHEMA_VERSION = 1


def _stable(value):
    if isinstance(value, dict):
        return {key: _stable(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_stable(v) for v in value]
    return value


def run_storm(storm: Union[str, StormSpec], *,
              topology: Optional[Topology] = None,
              executor: str = "thread",
              n_workers: Optional[int] = None,
              n_configs: int = 8,
              calls_per_slot: float = 60.0,
              cushion: float = 1.25,
              seed: int = 29,
              autoscale: Union[AutoscaleConfig, bool, None] = None
              ) -> Dict[str, object]:
    """Serve one named storm end to end; returns the per-storm report.

    The report's ``invariants`` block carries one boolean per declared
    invariant plus the rolled-up ``ok``; :func:`check_storm_report`
    turns a violation into a raise.  Scale knobs default to smoke size
    (a CI-speed day); ``seed`` fixes realization, trace expansion, and
    residual trace faces, so a report is reproducible byte for byte.
    """
    spec = get_storm(storm) if isinstance(storm, str) else storm
    plan_dsl: StormPlan = spec.build()
    topo = topology if topology is not None else Topology.small()

    # 1. The planner's view: a normal cushioned day, no storm knowledge.
    population = generate_population(topo.world, n_configs=n_configs,
                                     seed=seed)
    model = DemandModel(topo.world, population, DiurnalModel(),
                        calls_per_slot_at_peak=calls_per_slot)
    slots = make_slots(86400.0, DEFAULT_SLOT_S)
    base = model.expected(slots)
    planning = base.scale(cushion)

    bind_autoscaler = spec.autoscale and autoscale is not False
    autoscale_cfg = autoscale if isinstance(autoscale, AutoscaleConfig) \
        else AutoscaleConfig(headroom=0.5, scale_down_patience=4)
    controller = Switchboard(topo, config=PlannerConfig(
        max_link_scenarios=0,
        autoscale=autoscale_cfg if bind_autoscaler else None))
    capacity = controller.provision(planning, with_backup=False)

    # 2. Co-scheduled faults on the shared timeline: every DC/link
    # failure landing on the served day, in one deterministic batch.
    faults = plan_dsl.fault_plan().take_topology_faults(0)
    failed_dc = next((f.dc for f in faults if f.kind == "dc_failure"), None)
    failed_link = next((f.link for f in faults if f.kind == "link_failure"),
                       None)
    if failed_dc is not None or failed_link is not None:
        plan = controller.allocation_plan(planning, failed_dc=failed_dc,
                                          failed_link=failed_link)
    else:
        plan = controller.allocate(planning, capacity).plan

    # 3. The day that actually happens.
    actual = plan_dsl.realize(base, seed + 1)
    trace = TraceGenerator(seed=seed + 2).generate_columnar(actual)
    trace = plan_dsl.apply_trace(trace, seed=seed + 3, demand_applied=True)
    events = build_event_batch(trace, DEFAULT_FREEZE_WINDOW_S)

    # 4. Serve under the requested executor.
    rescaler = None
    if bind_autoscaler:
        rescaler = Autoscaler(controller, planning, plan,
                              config=autoscale_cfg, capacity=capacity,
                              obs=controller.obs)
    svc = ServiceConfig(
        executor=executor,
        n_workers=n_workers if n_workers is not None
        else (2 if executor == "process" else 1))
    runtime = ServiceRuntime.from_config(
        topo, plan, svc, freeze_window_s=DEFAULT_FREEZE_WINDOW_S,
        rescaler=rescaler)
    report = runtime.run(events)

    # 5. Invariants.
    generated = report.generated_calls
    overflow_frac = (report.overflowed_calls / generated
                     if generated else 0.0)
    drain_shortfall = int(report.autoscale.get("drain_shortfall", 0))
    settle_p99 = report.settle_latency_ms.get("p99")
    invariants = {
        "accounting_exact": bool(report.accounting_exact),
        "overflow_bounded": overflow_frac <= spec.overflow_ceiling,
        "drain_clean": drain_shortfall == 0,
        "settle_tail_bounded": (settle_p99 is None
                                or settle_p99 <= spec.settle_p99_ceiling_ms),
    }
    payload = {
        "storm": spec.name,
        "description": spec.description,
        "overlays": [o.describe() for o in plan_dsl.overlays],
        "faults": [f.describe() for f in faults],
        "executor": svc.executor,
        "n_workers": svc.n_workers,
        "seed": seed,
        "n_configs": n_configs,
        "calls_per_slot": calls_per_slot,
        "cushion": cushion,
        "generated_calls": generated,
        "admitted_calls": report.admitted_calls,
        "migrated_calls": report.migrated_calls,
        "overflowed_calls": report.overflowed_calls,
        "overflow_frac": round(overflow_frac, 6),
        "overflow_ceiling": spec.overflow_ceiling,
        "rescale_events": report.rescale_events,
        "drain_shortfall": drain_shortfall,
        "settle_p99_ms": (None if settle_p99 is None
                          else round(settle_p99, 3)),
        "settle_p99_ceiling_ms": spec.settle_p99_ceiling_ms,
        "autoscale_bound": bind_autoscaler,
        "events_total": report.events_total,
        "events_per_s": report.events_per_s,
        "invariants": invariants,
        "ok": all(invariants.values()),
    }
    out = {"schema_version": STORM_REPORT_SCHEMA_VERSION}
    out.update(_stable(payload))
    return out


def run_named_storms(names: Optional[Sequence[str]] = None, *,
                     executors: Sequence[str] = ("thread",),
                     topology: Optional[Topology] = None,
                     **knobs) -> Dict[str, object]:
    """Sweep storms x executors; returns the aggregate harness report.

    ``knobs`` are forwarded to :func:`run_storm` (scale, seed, ...).
    The aggregate ``ok`` is the conjunction over every run — one
    violated invariant anywhere fails the sweep.
    """
    storms: List[Dict[str, object]] = []
    for name in (names if names is not None else named_storms()):
        for executor in executors:
            storms.append(run_storm(name, topology=topology,
                                    executor=executor, **knobs))
    return {
        "schema_version": STORM_REPORT_SCHEMA_VERSION,
        "executors": list(executors),
        "n_runs": len(storms),
        "storms": storms,
        "ok": all(s["ok"] for s in storms),
    }


def check_storm_report(report: Dict[str, object]) -> None:
    """Raise with every violated invariant of a harness report.

    Accepts a single per-storm report or the aggregate sweep report.
    """
    runs = report.get("storms", [report])
    failures: List[str] = []
    for run in runs:
        for invariant, held in run["invariants"].items():
            if not held:
                failures.append(
                    f"{run['storm']}[{run['executor']}]: {invariant} "
                    f"(overflow {run['overflow_frac']:.1%} vs ceiling "
                    f"{run['overflow_ceiling']:.1%}, drain shortfall "
                    f"{run['drain_shortfall']}, settle p99 "
                    f"{run['settle_p99_ms']})")
    if failures:
        raise SwitchboardError(
            "storm invariants violated:\n  " + "\n  ".join(failures))
