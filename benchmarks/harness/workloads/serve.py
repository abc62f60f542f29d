"""``serve-cpu`` and ``serve-kv`` — one service layer, used two ways.

Both plan from the day's own freeze-time demand (no backup, so the
planner is a small share and overflow must be exactly 0) and then serve
that day pass after pass: ``generate_columnar`` → ``build_event_batch``
→ ``ServiceRuntime.run``.

* ``serve-cpu`` — thread@1, one in-memory store, KV latency off: ~6 µs
  of pure Python per event with no sleep to hide behind.
* ``serve-kv`` — thread@2 over 4 shards at a 1 ms median simulated
  round-trip (the paper's Fig 10 regime): ~1,000 µs of sleep per trip
  against ~10 µs of Python, so only trips per event, pipelining and
  worker overlap matter.  Closed loop: each worker issues its next store
  trip only when the previous one returns.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import PlannerConfig, ServiceConfig
from repro.controller.columnar import build_event_batch
from repro.core.types import make_slots
from repro.kvstore import InMemoryKVStore
from repro.switchboard import Switchboard
from repro.workload.trace import TraceGenerator

from benchmarks.harness import probes
from benchmarks.harness.workloads import PassResult, Workload, worlds


class _Serve(Workload):
    CONFIGS = ("planner", "service")
    planner = PlannerConfig(max_link_scenarios=0)
    service: ServiceConfig

    def _store(self):
        """The thread engine's store; ``None`` lets the runtime build the
        sharded ring the ``ServiceConfig`` describes."""
        return None

    def _day_trace(self, tracer):
        """``(the whole day, the part of it served)``: ``serve-kv`` serves
        a whole-call prefix, since a sleep-bound event costs ~1 ms."""
        with tracer.span("workload.trace_gen"):
            day = TraceGenerator(seed=self._trace_seed) \
                .generate_columnar(self.day)
        target = self.sizes.get("target_events")
        return day, (day if target is None
                     else worlds.event_prefix(day, target))

    def build(self, tracer) -> None:
        sizes = self.sizes
        self.topology = worlds.build_topology(sizes["topology"], tracer)
        model = worlds.demand_model(
            self.topology, sizes["n_configs"], sizes["calls_per_slot"],
            sizes["population_seed"])
        with tracer.span("workload.demand_sample"):
            self.day = model.sample(make_slots(86400.0),
                                    seed=worlds.sub_seed(self.seed, 0))
        self._trace_seed = worlds.sub_seed(self.seed, 1)
        day, self.trace = self._day_trace(tracer)
        # Plan from the day's own calls at their freeze-time configs —
        # the keys the selector reconciles against.
        self.demand = day.to_demand(freeze_after_s=worlds.FREEZE_S)
        controller = Switchboard(self.topology, config=self.planner)
        self.capacity, outcome = worlds.serving_plan(
            controller, self.demand, tracer)
        self.allocation = outcome
        self.plan = outcome.plan
        self._plan_cost = None
        self._report = None

    def price_plan(self) -> float:
        return worlds.plan_cost_ratio(
            self.topology, self.capacity, self.demand, with_backup=False)

    def run_pass(self, tracer, index: int) -> PassResult:
        day, trace = self._day_trace(tracer)
        with tracer.span("controller.batch_build"):
            batch = build_event_batch(trace, worlds.FREEZE_S)
        runtime, report = worlds.serve(
            self.topology, self.plan, batch, self.service, tracer,
            store=self._store())
        with tracer.span("service.report"):
            report.to_dict()
        self._report = report
        layer = worlds.service_readings(
            report, n_workers=self.service.n_workers,
            sim_latency_s=worlds.simulated_latency_s(runtime.store))
        if self.service.n_workers == 1 \
                and self.service.kv_latency_median_ms is None:
            layer["service.engine.us_per_event.thread1"] = (
                report.wall_time_s / max(report.events_total, 1) * 1e6)
        layer.update(worlds.provisioning_readings(self.capacity))
        return PassResult(
            ops=report.events_total, core_s=report.wall_time_s,
            attempted=report.generated_calls
            + len(self.capacity.scenario_results),
            failed=worlds.failed_serving_ops(report)
            + worlds.failed_planning_ops(self.capacity, self.allocation),
            plan_cost=self.fixed_plan_cost,
            layer=layer,
            counts={"workload.trace_gen": day.n_calls,
                    "controller.batch_build": len(batch)})

    def check(self) -> List[str]:
        """Overflow exactly 0 on a day planned from its own demand;
        thread == process canonical parity on a prefix."""
        problems: List[str] = []
        if self._report.overflowed_calls != 0:
            problems.append(
                f"{self._report.overflowed_calls} calls overflowed a plan "
                f"built from the day's own demand")
        if self.capacity.degraded:
            problems.append("serving plan degraded a ladder rung")
        problems += probes.executor_parity(
            self.topology, self.plan,
            worlds.event_prefix(self.trace, self.sizes["parity_events"]),
            self.service)
        return problems


class ServeCpu(_Serve):
    name = "serve-cpu"

    FULL = {"topology": "default", "n_configs": 120,
            "calls_per_slot": 900.0, "population_seed": 12,
            "parity_events": 20_000, "probe_events": 20_000,
            "selector_calls": 2_000}
    SMOKE = {"topology": "default", "n_configs": 40, "calls_per_slot": 60.0,
             "population_seed": 12, "parity_events": 3_000,
             "probe_events": 3_000, "selector_calls": 300}

    service = ServiceConfig()

    def _store(self):
        return InMemoryKVStore()

    def probes(self, budget_s: float) -> Dict[str, float]:
        sizes = self.sizes
        out = probes.kvstore_probe(
            n_ops=6_000 if self.smoke else 60_000)
        out.update(probes.selector_probe(
            self.topology, self.plan, self.trace, sizes["selector_calls"]))
        out.update(probes.executor_probe(
            self.topology, self.plan,
            worlds.event_prefix(self.trace, sizes["probe_events"])))
        return out


class ServeKv(_Serve):
    name = "serve-kv"

    FULL = {"topology": "default", "n_configs": 120,
            "calls_per_slot": 900.0, "population_seed": 12,
            "target_events": 2_000, "parity_events": 400}
    SMOKE = {"topology": "default", "n_configs": 40, "calls_per_slot": 40.0,
             "population_seed": 12, "target_events": 300,
             "parity_events": 100}

    service = ServiceConfig(n_shards=4, n_workers=2,
                            kv_latency_median_ms=1.0, kv_latency_seed=5)
