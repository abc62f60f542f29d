"""High-volume load generation for the online admission service.

Drives the existing workload model end to end: config population →
diurnal demand → individual calls → the controller event stream the
engine ingests.  The generator only ever truncates at **call
granularity** — a call contributes either all of its events or none —
so a generated stream is always serveable with exact accounting
(admitted + migrated + overflowed == generated), which is what the
``drills`` CI job's ``service`` entries assert.

Generation runs on the columnar data plane
(:class:`~repro.workload.columnar.ColumnarTrace` →
:class:`~repro.controller.columnar.ColumnarEventBatch`), and a load is
held as those columns only; a caller that wants ``Call`` objects asks
the trace (``load.columnar.to_trace()``).  :meth:`LoadGenerator.stream`
is the bounded-memory variant: it never holds more than one chunk of slots in
memory, regenerating chunks deterministically from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.core.errors import WorkloadError
from repro.core.types import make_slots
from repro.core.units import DEFAULT_FREEZE_WINDOW_S, DEFAULT_SLOT_S
from repro.controller.columnar import (
    ColumnarEventBatch,
    build_event_batch,
    events_per_call,
    iter_event_batches,
)
from repro.controller.events import peak_event_rate
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand
from repro.workload.arrivals import DemandModel
from repro.workload.columnar import ColumnarTrace
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.trace import DEFAULT_CHUNK_SLOTS, TraceGenerator


@dataclass
class GeneratedLoad:
    """One generated serving workload: calls, their events, and demand,
    held as columns."""

    columnar: ColumnarTrace
    batch: ColumnarEventBatch
    #: Freeze-time demand of exactly the kept calls — what the plan the
    #: engine serves against should be built from.
    demand: Demand
    freeze_window_s: float

    @property
    def n_calls(self) -> int:
        return self.columnar.n_calls

    @property
    def n_events(self) -> int:
        return len(self.batch)

    def peak_event_rate(self, window_s: float = 60.0) -> float:
        return peak_event_rate(self.batch, window_s)


@dataclass
class StreamingLoad:
    """A bounded-memory serving workload: event batches on demand.

    Holds only the aggregate artifacts (demand matrix, counts); the
    event stream is regenerated chunk by chunk from the seed each time
    :meth:`batches` is called, so peak memory is one chunk of slots —
    sub-linear in the trace length — while accounting stays exact
    (batches cover whole calls).
    """

    demand: Demand
    freeze_window_s: float
    n_calls: int
    n_events: int
    _factory: Callable[[], Iterator[ColumnarEventBatch]] = field(repr=False)

    def batches(self) -> Iterator[ColumnarEventBatch]:
        """A fresh, deterministic pass over the event batches."""
        return self._factory()


class LoadGenerator:
    """Event streams from the workload model, sized by event budget."""

    def __init__(self, topology: Topology,
                 n_configs: int = 60,
                 calls_per_slot_at_peak: float = 80.0,
                 freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S,
                 seed: int = 33):
        self.topology = topology
        self.freeze_window_s = freeze_window_s
        self.seed = seed
        self.population = generate_population(
            topology.world, n_configs=n_configs, seed=seed)
        self.demand_model = DemandModel(
            topology.world, self.population, DiurnalModel(),
            calls_per_slot_at_peak=calls_per_slot_at_peak)

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _sample(self, duration_s: float, target_events: Optional[int]) -> Demand:
        if duration_s < DEFAULT_SLOT_S:
            raise WorkloadError("need at least one slot of load")
        if target_events is not None and target_events < 1:
            raise WorkloadError("target_events must be positive")
        slots = make_slots(duration_s, DEFAULT_SLOT_S)
        return self.demand_model.sample(slots, seed=self.seed)

    @staticmethod
    def _kept_calls(trace: ColumnarTrace, freeze_window_s: float,
                    target_events: Optional[int]) -> int:
        """How many leading calls fit the event budget (whole calls,
        always keeping the call that crosses the target)."""
        if target_events is None:
            return trace.n_calls
        cum = np.cumsum(events_per_call(trace))
        crossing = int(np.searchsorted(cum, target_events, side="left"))
        return min(crossing + 1, trace.n_calls)

    # ------------------------------------------------------------------
    # materialized API
    # ------------------------------------------------------------------
    def generate(self, duration_s: float = 86400.0,
                 target_events: Optional[int] = None) -> GeneratedLoad:
        """A day (by default) of calls expanded into controller events.

        ``target_events`` caps the stream size: calls are kept in start
        order until their cumulative event count reaches the target,
        always keeping whole calls.  Without a target the full horizon
        is emitted.
        """
        sampled = self._sample(duration_s, target_events)
        trace = TraceGenerator(seed=self.seed + 1).generate_columnar(sampled)
        if trace.n_calls == 0:
            raise WorkloadError("workload model produced no calls")
        subset = trace.slice_calls(
            0, self._kept_calls(trace, self.freeze_window_s, target_events))
        batch = build_event_batch(subset, self.freeze_window_s)
        return GeneratedLoad(
            columnar=subset,
            batch=batch,
            demand=subset.to_demand(freeze_after_s=self.freeze_window_s),
            freeze_window_s=self.freeze_window_s,
        )

    # ------------------------------------------------------------------
    # streaming API
    # ------------------------------------------------------------------
    def stream(self, duration_s: float = 86400.0,
               target_events: Optional[int] = None,
               chunk_slots: int = DEFAULT_CHUNK_SLOTS) -> StreamingLoad:
        """The same workload as :meth:`generate`, without materializing it.

        Two deterministic passes over the generator: the first
        accumulates the demand matrix and the kept-call budget chunk by
        chunk; :meth:`StreamingLoad.batches` then regenerates identical
        chunks from the same seed.  Same seed + same budget ⇒ the
        streamed batches concatenate to exactly the
        :class:`GeneratedLoad` stream.
        """
        sampled = self._sample(duration_s, target_events)
        freeze = self.freeze_window_s
        seed = self.seed + 1

        budget = target_events
        kept_total = 0
        n_events = 0
        config_index: dict = {}
        columns: List[np.ndarray] = []
        for chunk in TraceGenerator(seed=seed).iter_chunks(sampled, chunk_slots):
            if chunk.n_calls == 0:
                continue
            costs = events_per_call(chunk)
            if budget is None:
                keep = chunk.n_calls
            else:
                cum = np.cumsum(costs)
                keep = min(int(np.searchsorted(cum, budget, side="left")) + 1,
                           chunk.n_calls)
            kept = chunk if keep == chunk.n_calls else chunk.slice_calls(0, keep)
            kept_events = int(costs[:keep].sum())
            n_events += kept_events
            kept_total += keep
            part = kept.to_demand(freeze_after_s=freeze)
            for j, config in enumerate(part.configs):
                slot_j = config_index.setdefault(config, len(config_index))
                if slot_j == len(columns):
                    columns.append(part.counts[:, j].copy())
                else:
                    columns[slot_j] += part.counts[:, j]
            if budget is not None:
                budget -= kept_events
                if budget <= 0:
                    break
        if kept_total == 0:
            raise WorkloadError("workload model produced no calls")

        configs = sorted(config_index, key=lambda c: config_index[c])
        demand = Demand(list(sampled.slots), configs,
                        np.column_stack(columns))

        def factory() -> Iterator[ColumnarEventBatch]:
            return iter_event_batches(
                TraceGenerator(seed=seed).iter_chunks(sampled, chunk_slots),
                freeze_window_s=freeze, max_calls=kept_total)

        return StreamingLoad(
            demand=demand, freeze_window_s=freeze,
            n_calls=kept_total, n_events=n_events, _factory=factory)
