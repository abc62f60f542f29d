"""Benchmark: object vs columnar data plane, end to end.

Measures events/s for the full generate → sort → serve pipeline twice:

* **object path** — the retired per-call Python generator (kept verbatim
  below as the baseline), ``event_stream``'s global Python sort, and the
  engine's object → batch encoding at its boundary;
* **columnar path** — vectorized ``TraceGenerator.generate_columnar``
  and ``build_event_batch``'s lexsort, served as is.

Also measures the peak traced memory of the *streaming* iterator
(``iter_chunks`` → ``iter_event_batches``) at 1x and 2x the horizon:
because chunks are regenerated and dropped, the peak must stay roughly
flat as the trace grows — sub-linear in trace length — while the
materialized batch grows linearly.

Runnable standalone (CI's datapath-smoke job)::

    python benchmarks/bench_datapath.py --smoke --json out.json

or under pytest-benchmark (``pytest benchmarks/bench_datapath.py``).
Full mode asserts the >=3x columnar speedup; ``--smoke`` only asserts
the columnar path wins, since tiny inputs under-feed the vectorization.

``--executor process --workers N`` serves the *columnar* arm through
the multiprocess engine (the object baseline stays on the thread
executor, so the two arms differ only in how the stream is built).
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from typing import List

import numpy as np

try:
    from benchmarks.svc_cli import service_arg_parser, write_json_artifact
except ImportError:  # standalone: python benchmarks/bench_datapath.py
    from svc_cli import service_arg_parser, write_json_artifact

from repro.core.types import Call, Participant, make_slots
from repro.core.units import DEFAULT_FREEZE_WINDOW_S, DEFAULT_SLOT_S
from repro.config import PlannerConfig, ServiceConfig
from repro.controller.columnar import build_event_batch, iter_event_batches
from repro.controller.events import event_stream
from repro.kvstore import InMemoryKVStore
from repro.service import ServiceRuntime
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand, DemandModel
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.trace import (
    _DURATION_MU,
    _DURATION_SIGMA,
    _JOIN_MU,
    _JOIN_SIGMA,
    CallTrace,
    TraceGenerator,
)

SEED = 7


class _LegacyTraceGenerator:
    """The pre-columnar generator, verbatim: one call at a time, one
    participant at a time, a global Python sort at the end.  Kept here
    as the object-path baseline the speedup is measured against."""

    def __init__(self, seed: int = 23):
        self._rng = np.random.default_rng(seed)
        self._next_call = 0

    def _make_participants(self, config, call_id: str) -> List[Participant]:
        from repro.core.types import MediaType
        rng = self._rng
        countries = list(config.participants())
        majority = config.majority_country
        majority_indices = [i for i, c in enumerate(countries) if c == majority]
        if rng.random() < 0.97:
            first_index = int(rng.choice(majority_indices))
        else:
            first_index = int(rng.integers(0, len(countries)))
        offsets = rng.lognormal(_JOIN_MU, _JOIN_SIGMA, size=len(countries))
        offsets[first_index] = 0.0
        participants: List[Participant] = []
        carrier = int(rng.integers(0, len(countries)))
        for index, country in enumerate(countries):
            media = config.media if index == carrier else MediaType.AUDIO
            if config.media != MediaType.AUDIO and rng.random() < 0.4:
                media = config.media
            participants.append(Participant(
                participant_id=f"{call_id}-p{index}",
                country=country,
                join_offset_s=float(offsets[index]),
                media=media,
            ))
        participants.sort(key=lambda p: p.join_offset_s)
        return participants

    def generate(self, demand: Demand) -> CallTrace:
        rng = self._rng
        calls: List[Call] = []
        for i, slot in enumerate(demand.slots):
            for j, config in enumerate(demand.configs):
                count = int(round(demand.counts[i, j]))
                for _ in range(count):
                    call_id = f"call-{self._next_call:08d}"
                    self._next_call += 1
                    start = slot.start_s + float(rng.random()) * slot.duration_s
                    duration = float(rng.lognormal(_DURATION_MU, _DURATION_SIGMA))
                    calls.append(Call(
                        call_id=call_id,
                        start_s=start,
                        duration_s=duration,
                        participants=self._make_participants(config, call_id),
                    ))
        calls.sort(key=lambda call: call.start_s)
        return CallTrace(calls, list(demand.slots))


def _build_world(smoke: bool):
    topology = Topology.default()
    n_configs = 40 if smoke else 120
    calls_per_slot = 40.0 if smoke else 900.0
    population = generate_population(topology.world, n_configs=n_configs,
                                     seed=SEED)
    model = DemandModel(topology.world, population, DiurnalModel(),
                        calls_per_slot_at_peak=calls_per_slot)
    horizon_s = 21600.0 if smoke else 86400.0
    demand = model.sample(make_slots(horizon_s, DEFAULT_SLOT_S), seed=SEED)
    return topology, model, demand


def _make_runtime(topology, plan, executor: str = "thread",
                  n_workers: int = 1) -> ServiceRuntime:
    """The serving arm: thread keeps the zero-latency in-memory store;
    process shards call state over per-worker stores."""
    config = ServiceConfig(n_workers=n_workers, executor=executor)
    store = InMemoryKVStore() if executor == "thread" else None
    return ServiceRuntime.from_config(topology, plan, config, store=store)


def _bench_throughput(topology, demand, plan, repeats: int = 3,
                      executor: str = "thread",
                      n_workers: int = 1) -> dict:
    """Time generate → sort → serve on both data planes.

    Each path runs ``repeats`` times and keeps its best wall time — the
    minimum is the least-noise estimate of the true cost on a machine
    with background load.  ``executor``/``n_workers`` configure the
    columnar serving arm only.
    """
    object_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        trace = _LegacyTraceGenerator(seed=SEED + 1).generate(demand)
        events = event_stream(trace, DEFAULT_FREEZE_WINDOW_S)
        object_report = _make_runtime(topology, plan).run(events)
        object_s = min(object_s, time.perf_counter() - t0)
        object_report.require_exact_accounting()

    columnar_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        columnar = TraceGenerator(seed=SEED + 1).generate_columnar(demand)
        batch = build_event_batch(columnar, DEFAULT_FREEZE_WINDOW_S)
        columnar_report = _make_runtime(topology, plan, executor,
                                        n_workers).run(batch)
        columnar_s = min(columnar_s, time.perf_counter() - t0)
        columnar_report.require_exact_accounting()

    # Both generators expand the same demand, so the call population is
    # identical; the event streams differ only in per-call randomness
    # (media-upgrade draws), so compare event *rates*, not raw times.
    assert object_report.generated_calls == columnar_report.generated_calls
    assert len(trace) == columnar.n_calls

    object_eps = len(events) / object_s
    columnar_eps = len(batch) / columnar_s
    return {
        "n_calls": len(trace),
        "n_events": len(events),
        "n_events_columnar": len(batch),
        "object_s": round(object_s, 3),
        "columnar_s": round(columnar_s, 3),
        "object_events_per_s": round(object_eps),
        "columnar_events_per_s": round(columnar_eps),
        "speedup": round(columnar_eps / object_eps, 2),
    }


def _streaming_peak_bytes(model: DemandModel, horizon_s: float) -> dict:
    """Traced peak memory while draining the streaming event iterator."""
    demand = model.sample(make_slots(horizon_s, DEFAULT_SLOT_S), seed=SEED)
    generator = TraceGenerator(seed=SEED + 1)
    tracemalloc.start()
    n_events = 0
    for batch in iter_event_batches(generator.iter_chunks(demand),
                                    DEFAULT_FREEZE_WINDOW_S):
        n_events += len(batch)
    _, streaming_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    full = build_event_batch(
        TraceGenerator(seed=SEED + 1).generate_columnar(demand),
        DEFAULT_FREEZE_WINDOW_S)
    _, materialized_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(full) == n_events

    return {
        "horizon_s": horizon_s,
        "n_events": n_events,
        "streaming_peak_bytes": streaming_peak,
        "materialized_peak_bytes": materialized_peak,
    }


def run_datapath_bench(smoke: bool = False, executor: str = "thread",
                       n_workers: int = 1) -> dict:
    topology, model, demand = _build_world(smoke)
    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(demand, with_backup=False)
    plan = controller.allocate(demand, capacity).plan

    throughput = _bench_throughput(topology, demand, plan,
                                   executor=executor, n_workers=n_workers)

    # Whole diurnal days, so 2x means "twice as long", not "twice as
    # busy": the busiest chunk is the same size and only the chunk
    # *count* doubles.
    base_h = 86400.0
    mem_1x = _streaming_peak_bytes(model, base_h)
    mem_2x = _streaming_peak_bytes(model, 2 * base_h)
    growth = mem_2x["streaming_peak_bytes"] / max(1, mem_1x["streaming_peak_bytes"])

    results = {
        "mode": "smoke" if smoke else "full",
        "executor": executor,
        "serve_workers": n_workers,
        "throughput": throughput,
        "memory": {"at_1x": mem_1x, "at_2x": mem_2x,
                   "peak_growth_2x": round(growth, 2)},
    }

    # Accounting already asserted inside _bench_throughput; here the
    # performance acceptance criteria.  The speedup floor is a claim
    # about the columnar *data plane*, so it binds only when both arms
    # serve on the thread executor — the process arm pays worker
    # spawn/IPC costs the object baseline does not, which smoke-sized
    # inputs cannot amortize.
    if executor == "thread":
        if smoke:
            assert throughput["speedup"] > 1.0, (
                f"columnar path must win, got {throughput['speedup']}x")
        else:
            assert throughput["speedup"] >= 3.0, (
                f"columnar path must be >=3x, got {throughput['speedup']}x")
    # Doubling the trace must not double the streaming peak (chunks are
    # dropped as they are consumed); the materialized batch does grow.
    assert growth < 1.6, f"streaming peak grew {growth:.2f}x with 2x trace"
    assert (mem_2x["streaming_peak_bytes"]
            < mem_2x["materialized_peak_bytes"]), "streaming should beat full"
    return results


def test_datapath_speedup(benchmark):
    from benchmarks.conftest import run_once
    results = run_once(benchmark, lambda: run_datapath_bench(smoke=True))
    thr = results["throughput"]
    benchmark.extra_info.update({
        "object_events_per_s": thr["object_events_per_s"],
        "columnar_events_per_s": thr["columnar_events_per_s"],
        "speedup": thr["speedup"],
        "streaming_peak_growth_2x": results["memory"]["peak_growth_2x"],
    })
    print("\n" + render(results))


def render(results: dict) -> str:
    thr = results["throughput"]
    mem = results["memory"]
    return "\n".join([
        f"datapath ({results['mode']}, serve via "
        f"{results['executor']} x{results['serve_workers']}): "
        f"{thr['n_calls']} calls, {thr['n_events']} events",
        f"  object   path: {thr['object_events_per_s']:>9,} events/s "
        f"({thr['object_s']}s)",
        f"  columnar path: {thr['columnar_events_per_s']:>9,} events/s "
        f"({thr['columnar_s']}s)  -> {thr['speedup']}x",
        f"  streaming peak: {mem['at_1x']['streaming_peak_bytes']:,} B at 1x, "
        f"{mem['at_2x']['streaming_peak_bytes']:,} B at 2x "
        f"(growth {mem['peak_growth_2x']}x; materialized "
        f"{mem['at_2x']['materialized_peak_bytes']:,} B)",
    ])


def main(argv=None) -> int:
    parser = service_arg_parser(
        "Object vs columnar data plane, end to end.", default_workers=1)
    args = parser.parse_args(argv)
    results = run_datapath_bench(smoke=args.smoke, executor=args.executor,
                                 n_workers=args.workers)
    print(render(results))
    if args.json:
        write_json_artifact(results, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
