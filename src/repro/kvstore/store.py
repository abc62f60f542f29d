"""An in-process, thread-safe, Redis-like key-value store.

The paper's controller keeps call state (the evolving call config, slot
tallies) in Azure Redis and measures per-write latencies of 0.3–4.2 ms
(§6.6).  Offline we substitute this store: the same string/hash/counter
operations, a global lock for Redis's single-threaded atomicity semantics,
and an optional simulated network round-trip *outside* the lock — so, as
with real Redis pipelining from multiple clients, writer threads overlap
their network time and throughput scales with the thread count.  That
scaling is precisely what Fig 10 measures.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import SwitchboardError
from repro.obs.histogram import DEFAULT_PERCENTILES, percentiles_ms


class KVStoreError(SwitchboardError):
    """A kvstore operation was used against the wrong value type."""


class LatencyProfile:
    """Simulated per-operation network latency, sampled per call.

    Defaults reproduce the paper's observed write-latency range: lognormal
    with median ~1 ms, clipped to [0.3 ms, 4.2 ms].

    Sampling uses **per-thread RNG streams**: each thread that samples is
    assigned the next stream index (0, 1, 2, …) and draws from its own
    ``np.random.default_rng`` spawned deterministically from ``seed`` and
    that index.  A single shared RNG behind a lock would serialize every
    sampled op across threads — exactly the multi-client overlap Fig 10
    measures — whereas per-thread streams sample lock-free and stay
    deterministic for a fixed thread-arrival order.
    """

    def __init__(self, median_ms: float = 1.0, sigma: float = 0.6,
                 floor_ms: float = 0.3, ceil_ms: float = 4.2, seed: int = 99):
        if not 0 <= floor_ms <= ceil_ms:
            raise KVStoreError("invalid latency bounds")
        self._mu = np.log(median_ms) if median_ms > 0 else 0.0
        self._sigma = sigma
        self._floor = floor_ms
        self._ceil = ceil_ms
        self._seed = seed
        self._local = threading.local()
        self._index_lock = threading.Lock()
        self._next_stream = 0

    def _thread_rng(self) -> np.random.Generator:
        rng = getattr(self._local, "rng", None)
        if rng is None:
            # The lock is taken once per thread lifetime, not per sample.
            with self._index_lock:
                stream = self._next_stream
                self._next_stream += 1
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self._seed,
                                       spawn_key=(stream,))
            )
            self._local.rng = rng
        return rng

    def sample_ms(self) -> float:
        raw = float(self._thread_rng().lognormal(self._mu, self._sigma))
        return min(max(raw, self._floor), self._ceil)


class Pipeline:
    """Queued ops executed as one batched round-trip on ``execute()``.

    A builder over the store's one batch entry point, ``execute_batch``:
    a plain :class:`InMemoryKVStore` runs the whole batch in one network
    trip; a :class:`~repro.kvstore.sharded.ShardedKVStore` groups ops per
    shard and overlaps the per-shard trips.  Results return in queueing
    order, identical to issuing the same ops sequentially.  Callers that
    already hold ``(op, args)`` pairs (the serving hot path) skip the
    builder and call ``execute_batch`` themselves.
    """

    def __init__(self, store: Any):
        self._store = store
        self._ops: List[Tuple[str, Tuple[Any, ...]]] = []

    def _queue(self, op: str, *args: Any) -> "Pipeline":
        self._ops.append((op, args))
        return self

    def set(self, key: str, value: Any) -> "Pipeline":
        return self._queue("set", key, value)

    def get(self, key: str) -> "Pipeline":
        return self._queue("get", key)

    def delete(self, key: str) -> "Pipeline":
        return self._queue("delete", key)

    def incr(self, key: str, amount: int = 1) -> "Pipeline":
        return self._queue("incr", key, amount)

    def decr(self, key: str, amount: int = 1) -> "Pipeline":
        return self._queue("incr", key, -amount)

    def hset(self, key: str, field: str, value: Any) -> "Pipeline":
        return self._queue("hset", key, field, value)

    def hget(self, key: str, field: str) -> "Pipeline":
        return self._queue("hget", key, field)

    def hgetall(self, key: str) -> "Pipeline":
        return self._queue("hgetall", key)

    def hincrby(self, key: str, field: str, amount: int = 1) -> "Pipeline":
        return self._queue("hincrby", key, field, amount)

    def htake(self, key: str, field: str) -> "Pipeline":
        return self._queue("htake", key, field)

    def execute(self) -> List[Any]:
        """Run all queued ops; returns results in queueing order.  An
        empty pipeline makes no call into the store."""
        ops, self._ops = self._ops, []
        return self._store.execute_batch(ops) if ops else []


class InMemoryKVStore:
    """Redis-semantics store: atomic ops, optional simulated latency."""

    def __init__(self, latency: Optional[LatencyProfile] = None):
        self._data: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self._latency = latency
        self._op_count = 0
        self._trip_count = 0
        self._op_latencies_ms: List[float] = []
        # Bound methods resolved once: op dispatch sits on the serving hot
        # path, where a per-op getattr on a formatted name is measurable.
        self._appliers: Dict[str, Any] = {
            name: getattr(self, f"_apply_{name}") for name in self._BATCH_OPS
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _simulate_network(self) -> float:
        """Block for a sampled round-trip; returns the latency in ms."""
        if self._latency is None:
            return 0.0
        delay_ms = self._latency.sample_ms()
        # Sleeping outside the data lock releases the GIL, so concurrent
        # clients overlap their waits exactly as real network I/O would.
        time.sleep(delay_ms / 1000.0)
        return delay_ms

    def sample_trip_ms(self) -> Optional[float]:
        """One round-trip's simulated latency, drawn but not slept
        (``None`` at zero latency).  A sharded store draws one per shard
        a batch touches and sleeps once, for the slowest."""
        return None if self._latency is None else self._latency.sample_ms()

    def _one(self, op: str, *args: Any) -> Any:
        """Issue a single op: one network trip, applier under the lock."""
        if self._latency is None:
            # Zero-latency mode: nothing to sample or record — every
            # sample would be 0.0 and the percentiles read zero anyway.
            with self._lock:
                result = self._appliers[op](*args)
                self._op_count += 1
                self._trip_count += 1
            return result
        latency = self._simulate_network()
        with self._lock:
            result = self._appliers[op](*args)
            self._op_count += 1
            self._trip_count += 1
            if len(self._op_latencies_ms) < 1_000_000:
                self._op_latencies_ms.append(latency)
        return result

    # ------------------------------------------------------------------
    # string ops
    # ------------------------------------------------------------------
    def set(self, key: str, value: Any) -> None:
        self._one("set", key, value)

    def get(self, key: str) -> Optional[Any]:
        return self._one("get", key)

    def delete(self, key: str) -> bool:
        return self._one("delete", key)

    def exists(self, key: str) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def incr(self, key: str, amount: int = 1) -> int:
        return self._one("incr", key, amount)

    def decr(self, key: str, amount: int = 1) -> int:
        return self.incr(key, -amount)

    # ------------------------------------------------------------------
    # hashes
    # ------------------------------------------------------------------
    def hset(self, key: str, field: str, value: Any) -> None:
        self._one("hset", key, field, value)

    def hget(self, key: str, field: str) -> Optional[Any]:
        return self._one("hget", key, field)

    def hgetall(self, key: str) -> Dict[str, Any]:
        return self._one("hgetall", key)

    def hincrby(self, key: str, field: str, amount: int = 1) -> int:
        return self._one("hincrby", key, field, amount)

    def htake(self, key: str, field: str) -> bool:
        """Decrement ``field`` iff it is > 0; True when one was taken.

        The compare-and-take a Redis Lua script does server-side: one
        trip, atomic, never negative, and a miss writes nothing — a
        missing key or field is neither created nor zeroed.
        """
        return self._one("htake", key, field)

    # ------------------------------------------------------------------
    # pipelined batches
    # ------------------------------------------------------------------
    #: Ops a batch may carry, mapped to the lock-held appliers below.
    _BATCH_OPS = ("set", "get", "delete", "incr", "hset", "hget",
                  "hgetall", "hincrby", "htake")

    def execute_batch(self, ops: Sequence[Tuple[str, Tuple[Any, ...]]]
                      ) -> List[Any]:
        """Apply a pipelined batch atomically, paying ONE network trip.

        The store's single batch entry point (:class:`Pipeline`, the
        serving client and the slot ledger all end here).  ``ops`` is a
        sequence of ``(op_name, args)`` pairs drawn from ``_BATCH_OPS``;
        results come back in op order, exactly as if each op had been
        issued sequentially.  Like a Redis pipeline, the whole batch
        crosses the network once and executes under the store's atomicity
        lock, so a batch costs one round-trip regardless of length.  Each
        op is counted individually; the shared round-trip is recorded once
        (it *was* one network event).

        Every op name is resolved before anything is applied, so a batch
        naming an unknown op writes nothing and costs nothing.  An op that
        fails mid-batch (WRONGTYPE) raises after the ops before it were
        applied; the trip and those ops are still counted.
        """
        appliers = self._appliers
        for name, _ in ops:
            if name not in appliers:
                raise KVStoreError(f"unsupported batch op {name!r}")
        latency = self._simulate_network() if self._latency is not None else None
        return self.apply_batch(ops, latency)

    def apply_batch(self, ops: Sequence[Tuple[str, Tuple[Any, ...]]],
                    latency_ms: Optional[float] = None) -> List[Any]:
        """The server side of :meth:`execute_batch`: apply validated ops
        under the lock and record one trip (with ``latency_ms`` as its
        sample, if any) — for a caller that already paid the network
        wait, as a sharded store does once for all shards of a batch."""
        appliers = self._appliers
        results: List[Any] = []
        with self._lock:
            try:
                # A plain loop: it measured faster here than resolving
                # into a list and applying with a comprehension.
                for name, args in ops:
                    results.append(appliers[name](*args))
            finally:
                self._op_count += len(results)
                self._trip_count += 1
                if (latency_ms is not None
                        and len(self._op_latencies_ms) < 1_000_000):
                    self._op_latencies_ms.append(latency_ms)
        return results

    def pipeline(self) -> Pipeline:
        return Pipeline(self)

    # Lock-held appliers: callers hold self._lock.
    def _apply_set(self, key: str, value: Any) -> None:
        self._data[key] = value

    def _apply_get(self, key: str) -> Optional[Any]:
        return self._data.get(key)

    def _apply_delete(self, key: str) -> bool:
        return self._data.pop(key, None) is not None

    def _apply_incr(self, key: str, amount: int = 1) -> int:
        current = self._data.get(key, 0)
        if not isinstance(current, int):
            raise KVStoreError(f"INCR on non-integer key {key!r}")
        current += amount
        self._data[key] = current
        return current

    def _apply_hset(self, key: str, field: str, value: Any) -> None:
        table = self._data.setdefault(key, {})
        if not isinstance(table, dict):
            raise KVStoreError(f"HSET on non-hash key {key!r}")
        table[field] = value

    def _apply_hget(self, key: str, field: str) -> Optional[Any]:
        table = self._data.get(key)
        if table is None:
            return None
        if not isinstance(table, dict):
            raise KVStoreError(f"HGET on non-hash key {key!r}")
        return table.get(field)

    def _apply_hgetall(self, key: str) -> Dict[str, Any]:
        table = self._data.get(key, {})
        if not isinstance(table, dict):
            raise KVStoreError(f"HGETALL on non-hash key {key!r}")
        return dict(table)

    def _apply_hincrby(self, key: str, field: str, amount: int = 1) -> int:
        table = self._data.setdefault(key, {})
        if not isinstance(table, dict):
            raise KVStoreError(f"HINCRBY on non-hash key {key!r}")
        current = table.get(field, 0)
        if not isinstance(current, int):
            raise KVStoreError(
                f"HINCRBY on non-integer field {key!r}.{field!r}")
        current += amount
        table[field] = current
        return current

    def _apply_htake(self, key: str, field: str) -> bool:
        table = self._data.get(key)
        if table is None:
            return False
        if not isinstance(table, dict):
            raise KVStoreError(f"HTAKE on non-hash key {key!r}")
        current = table.get(field, 0)
        if not isinstance(current, int):
            raise KVStoreError(
                f"HTAKE on non-integer field {key!r}.{field!r}")
        if current <= 0:
            return False
        table[field] = current - 1
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def op_count(self) -> int:
        with self._lock:
            return self._op_count

    @property
    def trip_count(self) -> int:
        """Store round-trips served: one per single op, one per batch —
        exact and independent of the simulated latency."""
        with self._lock:
            return self._trip_count

    @property
    def simulates_latency(self) -> bool:
        return self._latency is not None

    def latency_samples_ms(self) -> List[float]:
        """Raw recorded per-trip latencies (bounded; for aggregation)."""
        with self._lock:
            return list(self._op_latencies_ms)

    def latency_stats_ms(self) -> Tuple[float, float, float]:
        """(min, median, max) of simulated op latencies."""
        with self._lock:
            samples = list(self._op_latencies_ms)
        if not samples:
            return (0.0, 0.0, 0.0)
        samples.sort()
        return samples[0], samples[len(samples) // 2], samples[-1]

    def latency_percentiles_ms(
            self, percentiles: Sequence[float] = DEFAULT_PERCENTILES
    ) -> Dict[str, float]:
        """p50/p95/p99 (by default) of the simulated op latencies."""
        with self._lock:
            samples = list(self._op_latencies_ms)
        return percentiles_ms(samples, percentiles)

    def flush(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)
