"""Layer probes and the executor-parity gate.

A probe measures one layer directly, outside any workload pass, because
no pass can isolate it: the raw store's ops/s, the selector with either
ledger, the serving executors the workloads do not run on.  Arms are
interleaved (ABCABC) and each reports a median.  The process-executor
rows are layer-only — too noisy on a shared 2-core box to gate — but the
canonical-report parity they ride on is a hard correctness gate.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Sequence

from repro.allocation.realtime import KVSlotLedger, RealTimeSelector
from repro.config import ServiceConfig
from repro.controller.columnar import build_event_batch
from repro.kvstore import InMemoryKVStore, ShardedKVStore
from repro.service import ServiceRuntime
from repro.workload.columnar import ColumnarTrace

from benchmarks.harness.measure import Stopwatch, interleave
from benchmarks.harness.workloads import worlds


def _no_wiring() -> Dict[str, object]:
    return {}


def executor_parity(topology, plan, trace: ColumnarTrace,
                    config: ServiceConfig,
                    wiring: Callable[[], Dict[str, object]] = _no_wiring,
                    process_workers: Sequence[int] = (1, 2)) -> List[str]:
    """thread@1 and the process executor must emit byte-identical
    canonical reports on ``trace``; returns the mismatches.

    ``wiring`` builds fresh per-run subsystems (a migrator, say): they
    hold run state and cannot be shared between arms.
    """
    batch = build_event_batch(trace, worlds.FREEZE_S)
    arms = [("thread", 1)] + [("process", w) for w in process_workers]
    canon = {}
    for executor, workers in arms:
        runtime = ServiceRuntime.from_config(
            topology, plan, config.but(executor=executor, n_workers=workers),
            freeze_window_s=worlds.FREEZE_S, **wiring())
        report = runtime.run(batch)
        report.require_exact_accounting()
        canon[(executor, workers)] = worlds.canonical_report(report)
    oracle = canon[("thread", 1)]
    return [f"{executor}@{workers} canonical report differs from thread@1 "
            f"on a {len(batch)}-event prefix"
            for (executor, workers), text in canon.items() if text != oracle]


def _mixed_ops(store, n_ops: int) -> None:
    """The controller's op mix: hash writes and counters dominate."""
    for i in range(n_ops // 6):
        key = f"call:{{{i % 997}}}"
        store.hset(key, "dc", "dc-a")
        store.hincrby(key, "joins", 1)
        store.hget(key, "dc")
        store.incr(f"load:{i % 13}")
        store.hgetall(key)
        store.delete(key)


def kvstore_probe(n_ops: int = 60_000, repeats: int = 3) -> Dict[str, float]:
    """Raw ops/s of one store and of the 4-shard ring, at 0 ms."""
    rates: Dict[str, List[float]] = {"kvstore.ops_per_s": [],
                                     "kvstore.sharded_ops_per_s": []}
    builders = [("kvstore.ops_per_s", InMemoryKVStore),
                ("kvstore.sharded_ops_per_s",
                 lambda: ShardedKVStore(n_shards=4))]
    for name, build in interleave(*[[b] * repeats for b in builders]):
        store = build()
        started = time.perf_counter()
        _mixed_ops(store, n_ops)
        rates[name].append(store.op_count
                           / (time.perf_counter() - started))
    return {name: statistics.median(values)
            for name, values in rates.items()}


def selector_probe(topology, plan, trace: ColumnarTrace, n_calls: int,
                   repeats: int = 2) -> Dict[str, float]:
    """µs per ``RealTimeSelector.process_call`` with the local ledger and
    with the KV-backed ledger at 0 ms, on the day's first calls."""
    calls = [trace.call(i).to_call()
             for i in range(min(n_calls, trace.n_calls))]

    def local() -> RealTimeSelector:
        return RealTimeSelector(topology, plan, worlds.FREEZE_S)

    def kv_backed() -> RealTimeSelector:
        ledger = KVSlotLedger(InMemoryKVStore())
        ledger.load_plan(plan)
        return RealTimeSelector(topology, plan, worlds.FREEZE_S,
                                ledger=ledger)

    arms = [("allocation.selector_us_per_call", local),
            ("allocation.kv_ledger_us_per_call", kv_backed)]
    times: Dict[str, List[float]] = {name: [] for name, _ in arms}
    for name, build in interleave(*[[arm] * repeats for arm in arms]):
        selector = build()
        started = time.perf_counter()
        selector.process_trace(calls)
        times[name].append((time.perf_counter() - started)
                           / len(calls) * 1e6)
    return {name: statistics.median(values)
            for name, values in times.items()}


def executor_probe(topology, plan, trace: ColumnarTrace,
                   repeats: int = 2) -> Dict[str, float]:
    """µs/event of thread@2, process@1 and process@2 at 0 ms KV on
    ``trace`` (load from this one process, <= nproc workers), plus the
    parent+children CPU seconds of the proc2 runs."""
    batch = build_event_batch(trace, worlds.FREEZE_S)
    arms = [("service.engine.us_per_event.thread2", "thread", 2),
            ("service.mp.us_per_event.proc1", "process", 1),
            ("service.mp.us_per_event.proc2", "process", 2)]
    per_event: Dict[str, List[float]] = {name: [] for name, _, _ in arms}
    proc2_cpu: List[float] = []
    for name, executor, workers in interleave(
            *[[arm] * repeats for arm in arms]):
        runtime = ServiceRuntime.from_config(
            topology, plan,
            ServiceConfig(executor=executor, n_workers=workers),
            freeze_window_s=worlds.FREEZE_S)
        with Stopwatch() as watch:
            report = runtime.run(batch)
        report.require_exact_accounting()
        per_event[name].append(report.wall_time_s / len(batch) * 1e6)
        if (executor, workers) == ("process", 2):
            proc2_cpu.append(watch.cpu_s)
    out = {name: statistics.median(values)
           for name, values in per_event.items()}
    out["service.mp.cpu_s.proc2"] = statistics.median(proc2_cpu)
    return out

