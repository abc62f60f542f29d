"""``plan-sweep`` — provisioning does the work, serving none.

One pass is a rolling re-provisioning window: one cold day plus three
warm days (each day's demand is the base demand under a seeded ±8% RHS
perturbation) swept over single and compound failure scenarios by the
portfolio planner (``locality`` and ``exact`` arms, gap 0.05, structural
dedup), with one ``WarmStartCache`` carried across the days.  The cold
day pays exact LPs and seeds supports and duals; the warm days price each
scenario's RHS against the cached dual point and mostly skip the solver —
different code, so the two are reported apart
(``provisioning.cold_day_s`` / ``provisioning.warm_day_s``).
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List

import numpy as np

from repro.config import PortfolioConfig
from repro.core.types import make_slots
from repro.provisioning.demand import PlacementData
from repro.provisioning.failures import (enumerate_compound_scenarios,
                                         enumerate_scenarios)
from repro.provisioning.formulation import ScenarioLP
from repro.provisioning.lp import WarmStartCache
from repro.provisioning.planner import CapacityPlan, CapacityPlanner
from repro.workload.arrivals import Demand

from benchmarks.harness.workloads import PassResult, Workload, worlds


class PlanSweep(Workload):
    name = "plan-sweep"

    FULL = {"topology": "default", "n_configs": 16, "calls_per_slot": 200.0,
            "population_seed": 61, "slot_s": 7200.0, "n_single": 19,
            "n_compound": 5, "days": 4, "perturbation": 0.08,
            "parity_every": 10}
    SMOKE = {"topology": "small", "n_configs": 8, "calls_per_slot": 200.0,
             "population_seed": 61, "slot_s": 7200.0, "n_single": 6,
             "n_compound": 4, "days": 3, "perturbation": 0.08,
             "parity_every": 4}

    CONFIGS = ("portfolio",)
    #: The lagrangean arm never beats locality on this demand, so the
    #: race is the two-arm lineup the existing sweep bench declares.
    portfolio = PortfolioConfig(gap=0.05, arms=("locality", "exact"))

    def build(self, tracer) -> None:
        sizes = self.sizes
        self.topology = worlds.build_topology(sizes["topology"], tracer)
        model = worlds.demand_model(
            self.topology, sizes["n_configs"], sizes["calls_per_slot"],
            sizes["population_seed"])
        with tracer.span("workload.demand_sample"):
            base = model.expected(make_slots(86400.0, sizes["slot_s"]))
            rng = np.random.default_rng(worlds.sub_seed(self.seed, 0))
            swing = sizes["perturbation"]
            self.demands = [
                Demand(base.slots, base.configs, base.counts * rng.uniform(
                    1.0 - swing, 1.0 + swing, base.counts.shape))
                for _ in range(sizes["days"])]
        with tracer.span("provisioning.placement"):
            self.placement = PlacementData(self.topology, base.configs)
        single = enumerate_scenarios(self.topology)
        compound = enumerate_compound_scenarios(
            self.topology, dc_pairs=True, dc_plus_link=True,
            max_link_scenarios=None, same_region_only=False)
        self.scenarios = (single[:sizes["n_single"]]
                          + compound[:sizes["n_compound"]])
        self._plans: List[CapacityPlan] = []
        self._plan_cost = None

    def price_plan(self) -> float:
        """Median over the days (every pass plans the same days)."""
        return statistics.median(
            worlds.plan_cost_ratio(self.topology, plan, demand,
                                   with_backup=True)
            for plan, demand in zip(self._plans, self.demands))

    def run_pass(self, tracer, index: int) -> PassResult:
        cache = WarmStartCache(max_entries=4096)
        plans: List[CapacityPlan] = []
        day_s: List[float] = []
        for demand in self.demands:
            planner = CapacityPlanner(self.placement, demand,
                                      portfolio=self.portfolio,
                                      warm_cache=cache)
            started = time.perf_counter()
            with tracer.span("provisioning.provision"):
                plans.append(planner.plan(self.scenarios, combine="max"))
            day_s.append(time.perf_counter() - started)
        self._plans = plans

        readings = [worlds.provisioning_readings(plan) for plan in plans]
        layer = {key: sum(r[key] for r in readings) for key in readings[0]}
        for key in ("provisioning.lp_rows", "provisioning.lp_cols",
                    "provisioning.max_gap",
                    "provisioning.degradation_level"):
            layer[key] = max(r[key] for r in readings)
        cache_stats = cache.stats()
        layer.update({
            "provisioning.cold_day_s": day_s[0],
            "provisioning.warm_day_s": statistics.median(day_s[1:]),
            "provisioning.warm_cache.dual_hits": cache_stats["dual_hits"],
            "provisioning.warm_cache.misses": cache_stats["misses"],
        })
        n_plans = sum(len(plan.scenario_results) for plan in plans)
        return PassResult(
            ops=n_plans, core_s=sum(day_s), attempted=n_plans,
            failed=sum(worlds.failed_solves(plan, self.portfolio.gap)
                       for plan in plans),
            plan_cost=self.fixed_plan_cost, layer=layer)

    def check(self) -> List[str]:
        """Bound sandwich on every scenario plan; cold-exact parity on
        every Nth scenario of the cold day and of the last warm day."""
        problems: List[str] = []
        gap = self.portfolio.gap
        for day, plan in enumerate(self._plans):
            if len(plan.scenario_results) != len(self.scenarios):
                problems.append(f"day {day}: {len(plan.scenario_results)} "
                                f"results for {len(self.scenarios)} scenarios")
            for result in plan.scenario_results:
                bound_gap = result.bound_gap
                if bound_gap is None:
                    continue
                # dual_bound = cost / (1 + gap): gap >= 0 is bound <= cost.
                if not -1e-9 <= bound_gap <= gap + 1e-9:
                    problems.append(
                        f"day {day} {result.scenario.name}: certified gap "
                        f"{bound_gap} outside [0, {gap}]")
        every = self.sizes["parity_every"]
        for day in (0, len(self._plans) - 1):
            plan, demand = self._plans[day], self.demands[day]
            for result in plan.scenario_results[::every]:
                exact = ScenarioLP(self.placement, demand,
                                   result.scenario).solve().cost
                slack = 1e-6 * max(abs(exact), 1.0)
                if not exact - slack <= result.cost \
                        <= exact * (1.0 + gap) + slack:
                    problems.append(
                        f"day {day} {result.scenario.name}: cost "
                        f"{result.cost} vs cold exact {exact} (gap {gap})")
        return problems

    def config(self) -> Dict[str, Any]:
        out = super().config()
        out["n_scenarios"] = len(self.scenarios)
        return out
