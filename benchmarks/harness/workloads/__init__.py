"""The five named workloads and the protocol the runner drives them by.

A workload is built from a seed (``build``), run one full pass at a time
(``run_pass``), checked for correct outputs (``check``), and — in a
traced run — asked for layer readings no pass can see (``probes``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple, Type


@dataclass
class PassResult:
    """What one full pass of a workload produced.

    ``ops``/``core_s`` are the core loop's operations and seconds (the
    ``ops_per_s`` metric); ``attempted``/``failed`` count operations for
    the contract's failure accounting: generated calls plus scenario
    plans, against unsettled calls, dropped events and solves that
    degraded a ladder rung or exceeded the gap.
    """

    ops: int
    core_s: float
    attempted: int
    failed: int
    #: Evaluated by the runner outside the timed region: pricing the
    #: Locality-First reference is the metric's cost, not the workload's.
    plan_cost: Callable[[], float]
    #: Per-layer readings taken off returned public objects this pass.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Work done under a span (``{span name: count}``), from which the
    #: runner derives the ``*_per_s`` layer rates.
    counts: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base of the five workloads; subclasses fill the hooks below."""

    name: ClassVar[str]
    #: Sizes by mode; ``smoke`` finishes all five workloads in < 30 s.
    FULL: ClassVar[Dict[str, Any]]
    SMOKE: ClassVar[Dict[str, Any]]
    #: Names of the frozen config dataclasses (class attributes) in force.
    CONFIGS: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.sizes: Dict[str, Any] = dict(self.SMOKE if smoke else self.FULL)
        self._plan_cost: Optional[float] = None

    def build(self, tracer) -> None:
        """Repeatable set-up: topology, inputs, and any plan the passes
        serve against.  Called several times; the last build is used."""
        raise NotImplementedError

    def run_pass(self, tracer, index: int) -> PassResult:
        """One full pass.  ``index`` lets a workload whose cost depends
        on the drawn instance walk a panel of seeded instances."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Untimed correctness gates; returns the violations found."""
        return []

    def probes(self, budget_s: float) -> Dict[str, float]:
        """Traced runs only: layer readings taken outside the passes."""
        return {}

    def price_plan(self) -> float:
        """``plan_cost`` of a workload whose plan is fixed at set-up."""
        raise NotImplementedError

    def fixed_plan_cost(self) -> float:
        """:meth:`price_plan`, priced once per workload instance."""
        if self._plan_cost is None:
            self._plan_cost = self.price_plan()
        return self._plan_cost

    def config(self) -> Dict[str, Any]:
        """The configuration that produced a result row."""
        out = {"seed": self.seed, "smoke": self.smoke,
               "sizes": dict(self.sizes)}
        for name in self.CONFIGS:
            out[name] = dataclasses.asdict(getattr(self, name))
        return out


def registry() -> Dict[str, Type[Workload]]:
    """``{name: class}`` in the order ``BENCHMARK.json`` lists them."""
    from benchmarks.harness.workloads.day_pipeline import DayPipeline
    from benchmarks.harness.workloads.plan_sweep import PlanSweep
    from benchmarks.harness.workloads.serve import ServeCpu, ServeKv
    from benchmarks.harness.workloads.storm_drill import StormDrill
    return {cls.name: cls for cls in
            (DayPipeline, PlanSweep, ServeCpu, ServeKv, StormDrill)}
