"""A sharded kvstore: consistent-hash routing over in-memory shards.

One :class:`~repro.kvstore.store.InMemoryKVStore` stands in for one Azure
Redis instance (§6.6).  At service scale a single instance is the
bottleneck, so the online admission engine runs against this layer
instead: N independent shards behind a consistent-hash ring, so

* every key deterministically owns one shard (stable across processes —
  the ring hashes with MD5, never Python's randomized ``hash``);
* growing the ring from N to N+1 shards remaps only ~1/(N+1) of the
  keyspace (the consistent-hashing property the tests pin down);
* Redis-cluster-style ``{hash-tag}`` routing keeps chosen key families
  on one shard when callers need multi-key batches to stay local;
* batches (:meth:`ShardedKVStore.execute_batch`, the same entry point
  an unsharded store has) group ops by shard and pay **one simulated
  network round-trip per shard touched**, with shard batches issued
  concurrently — the multi-client overlap that makes admission
  throughput scale with worker threads (Fig 10's shape, served online).
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.kvstore.store import (
    InMemoryKVStore,
    KVStoreError,
    LatencyProfile,
    Pipeline,
)
from repro.obs.histogram import DEFAULT_PERCENTILES, percentiles_ms

#: Virtual nodes per shard: enough to keep the ring statistically smooth.
RING_REPLICAS = 64


def _ring_hash(value: str) -> int:
    """Stable 64-bit hash (independent of PYTHONHASHSEED)."""
    return int.from_bytes(hashlib.md5(value.encode("utf-8")).digest()[:8],
                          "big")


def routing_key(key: str) -> str:
    """The substring that routes ``key`` — its ``{hash tag}`` if present.

    Mirrors Redis cluster semantics: ``call:{c17}:spread`` routes by
    ``c17``, so every key of one call can be pinned to one shard.  A key
    without a (non-empty) tag routes by its full text.
    """
    start = key.find("{")
    if start != -1:
        end = key.find("}", start + 1)
        if end > start + 1:
            return key[start + 1:end]
    return key


class HashRing:
    """Consistent-hash ring over named shards."""

    def __init__(self, shard_ids: Sequence[str]):
        if not shard_ids:
            raise KVStoreError("hash ring needs at least one shard")
        points: List[Tuple[int, str]] = []
        for shard_id in shard_ids:
            for replica in range(RING_REPLICAS):
                points.append((_ring_hash(f"{shard_id}#{replica}"), shard_id))
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    def shard_for(self, key: str) -> str:
        """First ring point clockwise from the key's hash."""
        index = bisect.bisect_right(self._hashes, _ring_hash(routing_key(key)))
        return self._points[index % len(self._points)][1]


class ShardedKVStore:
    """N in-memory shards behind a consistent-hash ring.

    Exposes the same single-key op surface as
    :class:`~repro.kvstore.store.InMemoryKVStore` (so typed clients work
    against either) plus :meth:`pipeline` for batched round-trips.
    """

    def __init__(self, n_shards: int = 4,
                 latency_factory: Optional[
                     Callable[[int], Optional[LatencyProfile]]] = None):
        if n_shards < 1:
            raise KVStoreError("need at least one shard")
        self._shard_ids = [f"shard-{i}" for i in range(n_shards)]
        self._shards: Dict[str, InMemoryKVStore] = {
            shard_id: InMemoryKVStore(
                latency_factory(i) if latency_factory is not None else None
            )
            for i, shard_id in enumerate(self._shard_ids)
        }
        self._ring = HashRing(self._shard_ids)

    @classmethod
    def with_latency(cls, n_shards: int = 4, median_ms: float = 1.0,
                     sigma: float = 0.6, floor_ms: float = 0.3,
                     ceil_ms: float = 4.2, seed: int = 99
                     ) -> "ShardedKVStore":
        """Shards with independent, deterministic latency streams."""
        return cls(
            n_shards=n_shards,
            latency_factory=lambda i: LatencyProfile(
                median_ms=median_ms, sigma=sigma, floor_ms=floor_ms,
                ceil_ms=ceil_ms, seed=seed + i,
            ),
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shard_ids(self) -> List[str]:
        return list(self._shard_ids)

    def shard_of(self, key: str) -> str:
        """The shard id a key routes to (stable per key)."""
        return self._ring.shard_for(key)

    def shard(self, shard_id: str) -> InMemoryKVStore:
        return self._shards[shard_id]

    def _store_for(self, key: str) -> InMemoryKVStore:
        return self._shards[self._ring.shard_for(key)]

    # ------------------------------------------------------------------
    # single-key ops (same surface as InMemoryKVStore)
    # ------------------------------------------------------------------
    def set(self, key: str, value: Any) -> None:
        self._store_for(key).set(key, value)

    def get(self, key: str) -> Optional[Any]:
        return self._store_for(key).get(key)

    def delete(self, key: str) -> bool:
        return self._store_for(key).delete(key)

    def exists(self, key: str) -> bool:
        return self._store_for(key).exists(key)

    def incr(self, key: str, amount: int = 1) -> int:
        return self._store_for(key).incr(key, amount)

    def decr(self, key: str, amount: int = 1) -> int:
        return self._store_for(key).decr(key, amount)

    def hset(self, key: str, field: str, value: Any) -> None:
        self._store_for(key).hset(key, field, value)

    def hget(self, key: str, field: str) -> Optional[Any]:
        return self._store_for(key).hget(key, field)

    def hgetall(self, key: str) -> Dict[str, Any]:
        return self._store_for(key).hgetall(key)

    def hincrby(self, key: str, field: str, amount: int = 1) -> int:
        return self._store_for(key).hincrby(key, field, amount)

    def htake(self, key: str, field: str) -> bool:
        return self._store_for(key).htake(key, field)

    # ------------------------------------------------------------------
    # pipelined batches
    # ------------------------------------------------------------------
    def pipeline(self) -> Pipeline:
        """Queued ops executed as per-shard batches on ``execute()``.

        Results come back in op order and match issuing each op
        sequentially: same-key ops keep their relative order because a
        key always routes to one shard and each shard batch applies in
        order.
        """
        return Pipeline(self)

    def execute_batch(self, ops: Sequence[Tuple[str, Tuple[Any, ...]]]
                      ) -> List[Any]:
        """:meth:`InMemoryKVStore.execute_batch` over the ring: one trip
        per shard touched, results in op order, no shard applying
        anything when an op name is unknown."""
        if not ops:
            return []
        # Group by owning shard, remembering each op's global position.
        groups: Dict[str, List[Tuple[int, Tuple[str, Tuple[Any, ...]]]]] = {}
        for index, (name, args) in enumerate(ops):
            if name not in InMemoryKVStore._BATCH_OPS:
                raise KVStoreError(f"unsupported batch op {name!r}")
            shard_id = self._ring.shard_for(args[0])
            groups.setdefault(shard_id, []).append((index, (name, args)))

        results: List[Any] = [None] * len(ops)
        errors: List[BaseException] = []
        error_lock = threading.Lock()

        def run_group(shard_id: str,
                      group: List[Tuple[int, Tuple[str, Tuple[Any, ...]]]]
                      ) -> None:
            try:
                batch = [op for _, op in group]
                outputs = self._shards[shard_id].execute_batch(batch)
                for (index, _), output in zip(group, outputs):
                    results[index] = output
            except BaseException as exc:  # surface, don't swallow
                with error_lock:
                    errors.append(exc)

        items = list(groups.items())
        if len(items) == 1 or not self.simulates_latency:
            # Nothing to overlap (one shard, or no simulated round-trips):
            # issue batches inline, cheapest path.
            for shard_id, group in items:
                run_group(shard_id, group)
        else:
            # Fan shard batches out so their network trips overlap, like
            # a cluster client issuing to shards in parallel.
            threads = [
                threading.Thread(target=run_group, args=item, daemon=True)
                for item in items[1:]
            ]
            for thread in threads:
                thread.start()
            run_group(*items[0])
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        return results

    def mset(self, pairs: Dict[str, Any]) -> None:
        pipe = self.pipeline()
        for key, value in pairs.items():
            pipe.set(key, value)
        pipe.execute()

    def mget(self, keys: Sequence[str]) -> List[Optional[Any]]:
        pipe = self.pipeline()
        for key in keys:
            pipe.get(key)
        return pipe.execute()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def simulates_latency(self) -> bool:
        return any(shard.simulates_latency for shard in self._shards.values())

    @property
    def op_count(self) -> int:
        return sum(shard.op_count for shard in self._shards.values())

    @property
    def trip_count(self) -> int:
        """Round-trips summed over shards (one per shard batch)."""
        return sum(shard.trip_count for shard in self._shards.values())

    def shard_sizes(self) -> Dict[str, int]:
        return {shard_id: len(shard)
                for shard_id, shard in self._shards.items()}

    def latency_stats_ms(self) -> Tuple[float, float, float]:
        """(min, median, max) over all shards' simulated op latencies."""
        samples: List[float] = []
        for shard in self._shards.values():
            samples.extend(shard.latency_samples_ms())
        if not samples:
            return (0.0, 0.0, 0.0)
        samples.sort()
        return samples[0], samples[len(samples) // 2], samples[-1]

    def latency_percentiles_ms(
            self, percentiles: Sequence[float] = DEFAULT_PERCENTILES
    ) -> Dict[str, float]:
        samples: List[float] = []
        for shard in self._shards.values():
            samples.extend(shard.latency_samples_ms())
        return percentiles_ms(samples, percentiles)

    def flush(self) -> None:
        for shard in self._shards.values():
            shard.flush()

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards.values())
