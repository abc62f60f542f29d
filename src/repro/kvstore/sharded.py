"""A sharded kvstore: consistent-hash routing over in-memory shards.

One :class:`~repro.kvstore.store.InMemoryKVStore` stands in for one Azure
Redis instance (§6.6).  At service scale a single instance is the
bottleneck, so the online admission engine runs against this layer
instead: N independent shards behind a consistent-hash ring, so

* every key deterministically owns one shard (stable across processes —
  the ring hashes with MD5, never Python's randomized ``hash``), and the
  ring remembers each key's shard, so routing a key it has seen is a
  dict hit;
* growing the ring from N to N+1 shards remaps only ~1/(N+1) of the
  keyspace (the consistent-hashing property the tests pin down);
* Redis-cluster-style ``{hash-tag}`` routing keeps chosen key families
  on one shard when callers need multi-key batches to stay local;
* batches (:meth:`ShardedKVStore.execute_batch`, the same entry point
  an unsharded store has) group ops by shard and pay **one simulated
  network round-trip per shard touched**, issued concurrently the way a
  cluster client pipelines to every shard at once: the calling thread
  draws each touched shard's round-trip, sleeps once for the slowest,
  then applies each shard's group under that shard's lock.  A batch
  waits as long as its slowest shard, and different callers' batches
  overlap their waits — the multi-client overlap that makes admission
  throughput scale with worker threads (Fig 10's shape, served online).
"""

from __future__ import annotations

import bisect
import hashlib
import time
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
#: Keys whose shard a ring remembers (it forgets them all when full): far
#: more than one serving day's call, ledger and load keys, and a bound on
#: the memory a long-lived ring can hold.
ROUTE_MEMO_KEYS = 1 << 17


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
        self._memo: Dict[str, str] = {}

    def shard_for(self, key: str) -> str:
        """First ring point clockwise from the key's hash; each key is
        hashed once, then remembered (up to :data:`ROUTE_MEMO_KEYS`)."""
        shard_id = self._memo.get(key)
        if shard_id is None:
            index = bisect.bisect_right(self._hashes,
                                        _ring_hash(routing_key(key)))
            shard_id = self._points[index % len(self._points)][1]
            if len(self._memo) >= ROUTE_MEMO_KEYS:
                self._memo.clear()
            self._memo[key] = shard_id
        return shard_id


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
        self._position = {shard_id: i
                          for i, shard_id in enumerate(self._shard_ids)}
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

    def shard_index(self, key: str) -> int:
        """The position in :attr:`shard_ids` of the shard ``key`` routes to."""
        return self._position[self._ring.shard_for(key)]

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
        per shard touched, results in op order.

        The shard batches go out together: this thread draws each
        touched shard's round-trip from that shard's latency profile,
        sleeps once, for the slowest, and then applies each shard's
        group under that shard's own lock, recording that shard's own
        sample and trip.  An unknown op name applies nothing on any
        shard.  An op that fails on one shard (WRONGTYPE) stops only
        that shard's group: every other shard's group is still applied,
        and the first failure, in shard order of first touch, is raised.
        """
        if not ops:
            return []
        # Group by owning shard, remembering each op's global position.
        shard_for = self._ring.shard_for
        groups: Dict[str, List[int]] = {}
        for index, (name, args) in enumerate(ops):
            if name not in InMemoryKVStore._BATCH_OPS:
                raise KVStoreError(f"unsupported batch op {name!r}")
            groups.setdefault(shard_for(args[0]), []).append(index)
        if len(groups) == 1:
            # One shard: its own batch, in op order, is the whole answer.
            return self._shards[next(iter(groups))].execute_batch(ops)

        shards = [self._shards[shard_id] for shard_id in groups]
        samples = [shard.sample_trip_ms() for shard in shards]
        slowest = max((ms for ms in samples if ms is not None), default=0.0)
        if slowest > 0.0:
            time.sleep(slowest / 1000.0)
        results: List[Any] = [None] * len(ops)
        error: Optional[KVStoreError] = None
        for shard, indices, sample in zip(shards, groups.values(), samples):
            try:
                outputs = shard.apply_batch([ops[i] for i in indices],
                                            sample)
            except KVStoreError as exc:  # the other shards still apply
                error = error or exc
                continue
            for index, output in zip(indices, outputs):
                results[index] = output
        if error is not None:
            raise error
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
