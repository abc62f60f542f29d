"""``day-pipeline`` — Fig 6 end to end, the only workload every layer works in.

One pass is one default day of operations: a 7-day history is sampled,
expanded to a columnar trace and poured into the records database;
``SwitchboardPipeline.run`` estimates latencies, picks the top configs,
forecasts them, provisions jointly with backup and allocates; the next
day is then realized on the forecast's own slot grid, expanded, sorted
into events and served thread@1 at 0 ms KV; the report is dumped.

The joint LP's solve time depends on the drawn week far more than any
other stage does, so a run walks a *panel* of weeks (pass ``i`` draws
its week from ``sub_seed(seed, i)``) and reports medians over the
panel; the same seed always yields the same panel.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.config import PlannerConfig, ServiceConfig
from repro.controller.columnar import build_event_batch
from repro.core.types import make_slots
from repro.forecasting.forecaster import CallCountForecaster
from repro.kvstore import InMemoryKVStore
from repro.records import CallRecordsDatabase, ingest_trace
from repro.records.aggregation import cushion_factor, demand_from_database
from repro.records.latency_est import estimate_latency_matrix
from repro.switchboard import PipelineResult, Switchboard, SwitchboardPipeline
from repro.workload.trace import TraceGenerator

from benchmarks.harness.probes import executor_parity
from benchmarks.harness.workloads import PassResult, Workload, worlds


class DayPipeline(Workload):
    name = "day-pipeline"

    FULL = {"topology": "default", "n_configs": 40, "calls_per_slot": 400.0,
            "population_seed": 12, "history_days": 7, "horizon_slots": 48,
            "top_config_fraction": 0.04, "parity_events": 8000}
    SMOKE = {"topology": "default", "n_configs": 12, "calls_per_slot": 40.0,
             "population_seed": 12, "history_days": 7, "horizon_slots": 48,
             "top_config_fraction": 0.04, "parity_events": 1000}

    CONFIGS = ("planner", "service")
    #: The pipeline's historical default: DC-failure scenarios only.
    planner = PlannerConfig(max_link_scenarios=0)
    service = ServiceConfig()

    def build(self, tracer) -> None:
        sizes = self.sizes
        self.topology = worlds.build_topology(sizes["topology"], tracer)
        self.model = worlds.demand_model(
            self.topology, sizes["n_configs"], sizes["calls_per_slot"],
            sizes["population_seed"])
        self.history_slots = make_slots(sizes["history_days"] * 86400.0)
        self.pipeline = SwitchboardPipeline(
            self.topology,
            top_config_fraction=sizes["top_config_fraction"],
            season_length=48, config=self.planner)
        self._last: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def _staged(self, db: CallRecordsDatabase, tracer) -> PipelineResult:
        """``SwitchboardPipeline.run``'s five stages through the same
        public functions, one span each (the traced pass)."""
        pipe = self.pipeline
        with tracer.span("records.latency_est"):
            matrix = estimate_latency_matrix(db, self.topology)
            topology = self.topology.with_latency(matrix)
        with tracer.span("records.top_configs"):
            top = db.top_configs(pipe.top_config_fraction)
            cushion = cushion_factor(db, top)
            history = demand_from_database(db, top)
        with tracer.span("forecasting.forecast"):
            forecaster = CallCountForecaster(
                season_length=pipe.season_length, cushion=cushion)
            forecast = forecaster.forecast_demand(
                history, self.sizes["horizon_slots"])
        controller = Switchboard(topology, load_model=pipe.load_model,
                                 config=pipe.config)
        with tracer.span("provisioning.placement"):
            controller.placement_for(forecast.configs)
        with tracer.span("provisioning.provision"):
            capacity = controller.provision(forecast, with_backup=True)
        with tracer.span("allocation.offline"):
            allocation = controller.allocate(forecast, capacity)
        return PipelineResult(top_configs=top, cushion=cushion,
                              forecast_demand=forecast, capacity=capacity,
                              allocation=allocation, obs=controller.obs)

    def run_pass(self, tracer, index: int) -> PassResult:
        seed = worlds.sub_seed(self.seed, index)
        with tracer.span("workload.demand_sample"):
            history = self.model.sample(self.history_slots, seed=seed)
        with tracer.span("workload.trace_gen"):
            week = TraceGenerator(seed=seed + 1).generate_columnar(history)
        with tracer.span("records.ingest"):
            db = CallRecordsDatabase()
            ingest_trace(db, week, self.topology, seed=seed + 2,
                         freeze_after_s=worlds.FREEZE_S)
        if tracer.enabled:
            result = self._staged(db, tracer)
        else:
            result = self.pipeline.run(
                db, horizon_slots=self.sizes["horizon_slots"],
                with_backup=True)

        # The day that actually happens, on the forecast's own slot grid
        # (the plan's slot index is taken from absolute trace time).
        with tracer.span("workload.demand_sample"):
            day = self.model.sample(result.forecast_demand.slots,
                                    seed=seed + 3)
        with tracer.span("workload.trace_gen"):
            trace = TraceGenerator(seed=seed + 4).generate_columnar(day)
        with tracer.span("controller.batch_build"):
            batch = build_event_batch(trace, worlds.FREEZE_S)
        _, report = worlds.serve(
            self.topology, result.allocation.plan, batch, self.service,
            tracer, store=InMemoryKVStore())
        with tracer.span("service.report"):
            report.to_dict()

        capacity = result.capacity
        self._last = {"result": result, "trace": trace}
        layer = worlds.service_readings(report)
        layer.update(worlds.provisioning_readings(capacity))
        layer["forecasting.series_count"] = float(len(result.top_configs))
        return PassResult(
            ops=report.events_total, core_s=report.wall_time_s,
            attempted=report.generated_calls
            + len(capacity.scenario_results),
            failed=worlds.failed_serving_ops(report)
            + worlds.failed_planning_ops(capacity, result.allocation),
            plan_cost=lambda: worlds.plan_cost_ratio(
                self.topology, capacity, result.forecast_demand,
                with_backup=True,
                max_link_scenarios=self.planner.max_link_scenarios),
            layer=layer,
            counts={"workload.trace_gen": week.n_calls + trace.n_calls,
                    "records.ingest": week.n_calls,
                    "controller.batch_build": len(batch)})

    # ------------------------------------------------------------------
    def check(self) -> List[str]:
        """No degraded stage; thread == process on a prefix of the day."""
        problems: List[str] = []
        result = self._last["result"]
        if result.degradation_level != 0:
            problems.append(
                f"pipeline degraded to level {result.degradation_level}")
        problems += executor_parity(
            self.topology, result.allocation.plan,
            worlds.event_prefix(self._last["trace"],
                                self.sizes["parity_events"]),
            self.service)
        return problems
