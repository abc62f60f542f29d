"""Shared experiment scenario: the synthetic stand-in for Teams data.

Every experiment builds from the same :class:`Scenario` bundle — topology,
config population, demand model, expected/sampled demand, and (lazily) a
full call trace — so that results across tables and figures describe one
coherent world, the way the paper's experiments all describe one service.

Three size presets of :meth:`Scenario.build`:

* ``small``  — unit-test scale (seconds end to end);
* ``default`` — benchmark/experiment scale (the numbers in
  EXPERIMENTS.md);
* ``large``  — stress scale for the scalability checks.

The online service's loads are whole-call prefixes of a scenario's day.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import SwitchboardError
from repro.core.types import TimeSlot, make_slots
from repro.core.units import DEFAULT_SLOT_S
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand, DemandModel
from repro.workload.configs import ConfigPopulation, generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.media import MediaLoadModel
from repro.workload.columnar import ColumnarTrace
from repro.workload.trace import CallTrace, TraceGenerator

#: Size presets: (n_configs, calls_per_slot_at_peak).
_PRESETS: Dict[str, Tuple[int, float]] = {
    "small": (40, 60.0),
    "default": (120, 300.0),
    "large": (400, 1200.0),
}


@dataclass
class Scenario:
    """One coherent synthetic world + workload: a day of it.

    The sampled day is drawn at ``seed`` and expanded into calls at
    ``seed + 1``; a serving load is a whole-call prefix of that day
    (:func:`~repro.controller.columnar.event_prefix`).
    """

    topology: Topology
    population: ConfigPopulation
    demand_model: DemandModel
    slots: List[TimeSlot]
    expected_demand: Demand
    load_model: MediaLoadModel = field(default_factory=MediaLoadModel)
    seed: int = 11
    _sampled: Optional[Demand] = None
    _trace: Optional[CallTrace] = None
    _columnar: Optional[ColumnarTrace] = None

    @property
    def sampled_demand(self) -> Demand:
        """Poisson-realized demand (the "ground truth" call counts)."""
        if self._sampled is None:
            self._sampled = self.demand_model.sample(self.slots, seed=self.seed)
        return self._sampled

    @property
    def columnar_trace(self) -> ColumnarTrace:
        """The sampled demand expanded into struct-of-arrays calls."""
        if self._columnar is None:
            self._columnar = TraceGenerator(seed=self.seed + 1).generate_columnar(
                self.sampled_demand
            )
        return self._columnar

    @property
    def trace(self) -> CallTrace:
        """Individual calls expanded from the sampled demand (object view
        of :attr:`columnar_trace` — same seed, same calls)."""
        if self._trace is None:
            self._trace = self.columnar_trace.to_trace()
        return self._trace

    def history_demand(self, days: int) -> Demand:
        """A multi-day sampled history for forecasting experiments."""
        if days < 1:
            raise SwitchboardError("need at least one history day")
        slots = make_slots(days * 86400.0, DEFAULT_SLOT_S)
        return self.demand_model.sample(slots, seed=self.seed + 100)

    @classmethod
    def build(cls, topology: Topology, *, n_configs: int,
              calls_per_slot: float, seed: int) -> "Scenario":
        """One day of a ``n_configs`` population at ``seed``, peaking at
        ``calls_per_slot`` calls per slot."""
        population = generate_population(topology.world, n_configs=n_configs,
                                         seed=seed)
        demand_model = DemandModel(topology.world, population, DiurnalModel(),
                                   calls_per_slot_at_peak=calls_per_slot)
        slots = make_slots(86400.0, DEFAULT_SLOT_S)
        return cls(topology=topology, population=population,
                   demand_model=demand_model, slots=slots,
                   expected_demand=demand_model.expected(slots), seed=seed)


def build_scenario(size: str = "default", seed: int = 11,
                   topology: Optional[Topology] = None) -> Scenario:
    """Construct the standard scenario at a given size preset."""
    if size not in _PRESETS:
        raise SwitchboardError(
            f"unknown size {size!r}; choose from {sorted(_PRESETS)}"
        )
    n_configs, calls_per_slot = _PRESETS[size]
    return Scenario.build(
        topology if topology is not None else Topology.default(),
        n_configs=n_configs, calls_per_slot=calls_per_slot, seed=seed)
