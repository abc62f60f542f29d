"""Tests for the sharded kvstore: routing, rebalancing, pipelining."""

import threading
import time

import pytest

from repro.kvstore import sharded
from repro.kvstore import (
    HashRing,
    InMemoryKVStore,
    KVStoreError,
    ShardedKVStore,
    routing_key,
)


class TestRoutingKey:
    def test_plain_key_routes_on_itself(self):
        assert routing_key("calls:c17") == "calls:c17"

    def test_hash_tag_routes_on_tag(self):
        assert routing_key("call:{c17}:config") == "c17"
        assert routing_key("call:{c17}:dc") == "c17"

    def test_empty_tag_falls_back_to_full_key(self):
        assert routing_key("call:{}:config") == "call:{}:config"


class TestHashRing:
    def test_same_key_same_shard(self):
        ring = HashRing([f"shard-{i}" for i in range(4)])
        for key in ("a", "calls:c1", "slots:7:cfg"):
            assert ring.shard_for(key) == ring.shard_for(key)

    def test_stable_across_instances(self):
        """MD5-based ring placement does not depend on PYTHONHASHSEED or
        instance identity: two rings with the same shards agree on every
        key."""
        shards = [f"shard-{i}" for i in range(8)]
        a, b = HashRing(shards), HashRing(shards)
        for i in range(500):
            key = f"key-{i}"
            assert a.shard_for(key) == b.shard_for(key)

    def test_all_shards_receive_keys(self):
        ring = HashRing([f"shard-{i}" for i in range(4)])
        hit = {ring.shard_for(f"key-{i}") for i in range(2000)}
        assert hit == {f"shard-{i}" for i in range(4)}

    def test_distribution_is_roughly_uniform(self):
        n_shards, n_keys = 4, 4000
        ring = HashRing([f"shard-{i}" for i in range(n_shards)])
        counts = {}
        for i in range(n_keys):
            shard = ring.shard_for(f"key-{i}")
            counts[shard] = counts.get(shard, 0) + 1
        expected = n_keys / n_shards
        for count in counts.values():
            assert 0.5 * expected <= count <= 1.5 * expected

    def test_consistent_rebalance_bound(self):
        """Adding one shard to 8 moves only ~1/9 of keys — the consistent-
        hashing property that makes shard-count changes cheap (a modulo
        scheme would move ~8/9 of them)."""
        n_keys = 2000
        before = HashRing([f"shard-{i}" for i in range(8)])
        after = HashRing([f"shard-{i}" for i in range(9)])
        moved = sum(
            1 for i in range(n_keys)
            if before.shard_for(f"key-{i}") != after.shard_for(f"key-{i}")
        )
        assert 0 < moved <= 0.25 * n_keys

    def test_requires_shards(self):
        from repro.kvstore.store import KVStoreError
        with pytest.raises(KVStoreError):
            HashRing([])


class TestShardedKVStore:
    def test_single_key_ops_round_trip(self):
        store = ShardedKVStore(n_shards=4)
        store.set("k", "v")
        assert store.get("k") == "v"
        assert store.exists("k")
        assert store.incr("n", 5) == 5
        assert store.decr("n", 2) == 3
        store.hset("h", "f", 1)
        assert store.hget("h", "f") == 1
        assert store.hincrby("h", "f", 2) == 3
        assert store.hgetall("h") == {"f": 3}
        assert store.delete("k") is True
        assert store.get("k") is None

    def test_keys_spread_over_shards(self):
        store = ShardedKVStore(n_shards=4)
        for i in range(400):
            store.set(f"key-{i}", i)
        sizes = store.shard_sizes()
        assert sum(sizes.values()) == 400
        assert all(size > 0 for size in sizes.values())

    def test_same_key_always_same_shard(self):
        store = ShardedKVStore(n_shards=4)
        for i in range(50):
            key = f"key-{i}"
            assert store.shard_of(key) == store.shard_of(key)
            store.set(key, i)
            # The owning shard holds the key; no other shard does.
            owner = store.shard_of(key)
            assert store.shard(owner).get(key) == i

    def test_hash_tags_colocate_call_state(self):
        store = ShardedKVStore(n_shards=8)
        keys = ["call:{c9}:config", "call:{c9}:dc", "call:{c9}:load"]
        owners = {store.shard_of(key) for key in keys}
        assert len(owners) == 1

    def test_op_count_aggregates_shards(self):
        store = ShardedKVStore(n_shards=4)
        for i in range(40):
            store.set(f"key-{i}", i)
        assert store.op_count == 40
        assert len(store) == 40

    def test_mset_mget(self):
        store = ShardedKVStore(n_shards=4)
        store.mset({f"key-{i}": i for i in range(30)})
        assert store.mget([f"key-{i}" for i in range(30)]) == list(range(30))
        assert store.mget(["missing"]) == [None]

    def test_flush(self):
        store = ShardedKVStore(n_shards=4)
        store.set("a", 1)
        store.flush()
        assert len(store) == 0


class TestPipelines:
    def _fill_sequential(self, store):
        store.set("s", "v0")
        store.incr("n", 3)
        store.hset("h", "a", 1)
        store.hincrby("h", "a", 4)
        store.set("s", "v1")
        return [store.get("s"), store.get("n"), store.hgetall("h")]

    def _fill_pipelined(self, store):
        pipe = store.pipeline()
        pipe.set("s", "v0")
        pipe.incr("n", 3)
        pipe.hset("h", "a", 1)
        pipe.hincrby("h", "a", 4)
        pipe.set("s", "v1")
        pipe.execute()
        pipe = store.pipeline()
        pipe.get("s")
        pipe.get("n")
        pipe.hgetall("h")
        return pipe.execute()

    def test_pipeline_matches_sequential_on_plain_store(self):
        assert (self._fill_pipelined(InMemoryKVStore())
                == self._fill_sequential(InMemoryKVStore()))

    def test_pipeline_matches_sequential_on_sharded_store(self):
        assert (self._fill_pipelined(ShardedKVStore(n_shards=4))
                == self._fill_sequential(ShardedKVStore(n_shards=4)))

    def test_pipeline_results_in_submission_order(self):
        """Results come back in the order ops were queued even though
        execution groups them by shard."""
        store = ShardedKVStore(n_shards=4)
        for i in range(20):
            store.set(f"key-{i}", i)
        pipe = store.pipeline()
        for i in range(20):
            pipe.get(f"key-{i}")
        assert pipe.execute() == list(range(20))

    def test_pipeline_with_latency_pays_one_trip_per_shard(self):
        """A 40-op pipeline on a 4-shard latency store records at most
        one round-trip sample per touched shard, not 40."""
        store = ShardedKVStore.with_latency(n_shards=4, median_ms=0.1,
                                            floor_ms=0.05, ceil_ms=0.2,
                                            seed=3)
        pipe = store.pipeline()
        for i in range(40):
            pipe.set(f"key-{i}", i)
        pipe.execute()
        samples = sum(
            len(store.shard(s).latency_samples_ms())
            for s in store.shard_ids
        )
        assert samples <= 4
        assert store.op_count == 40

    def test_trip_count_is_one_per_shard_batch(self):
        """``trip_count`` sums the shards': a pipeline costs one trip per
        shard it touches, a single-key op exactly one."""
        store = ShardedKVStore(n_shards=4)
        keys = [f"key-{i}" for i in range(40)]
        pipe = store.pipeline()
        for key in keys:
            pipe.set(key, 1)
        pipe.execute()
        assert store.trip_count == len({store.shard_of(k) for k in keys})
        before = store.trip_count
        # Hash-tagged keys share a shard: one trip however many ops.
        (store.pipeline().hset("call:{c9}", "dc", "dc-a")
         .hincrby("call:{c9}:spread", "US", 1).execute())
        assert store.htake("call:{c9}:spread", "US") is True
        assert store.trip_count == before + 2

    def test_empty_pipeline(self):
        store = ShardedKVStore(n_shards=2)
        assert store.pipeline().execute() == []
        assert store.trip_count == 0

    def test_unknown_op_applies_nothing_on_any_shard(self):
        store = ShardedKVStore(n_shards=4)
        keys = [f"key-{i}" for i in range(12)]
        assert len({store.shard_of(key) for key in keys}) > 1
        with pytest.raises(KVStoreError):
            store.execute_batch([("set", (key, 1)) for key in keys]
                                + [("bogus", ("other",))])
        assert len(store) == 0 and store.trip_count == 0

    def test_sharded_latency_percentiles(self):
        store = ShardedKVStore.with_latency(n_shards=2, median_ms=0.1,
                                            floor_ms=0.05, ceil_ms=0.2,
                                            seed=3)
        for i in range(50):
            store.set(f"key-{i}", i)
        pcts = store.latency_percentiles_ms()
        assert set(pcts) == {"p50", "p95", "p99", "count"}
        assert pcts["count"] == 50
        assert 0.05 <= pcts["p50"] <= pcts["p95"] <= pcts["p99"] <= 0.2

    def test_per_shard_latency_profiles_are_independent(self):
        store = ShardedKVStore.with_latency(n_shards=2, median_ms=1.0, seed=3)
        profiles = [store.shard(s)._latency for s in store.shard_ids]
        assert profiles[0] is not profiles[1]


class TestFanOut:
    """A multi-shard batch's shard trips go out together, from the
    calling thread: no thread per shard, one sleep for the slowest."""

    @staticmethod
    def _one_key_per_shard(store):
        keys = {}
        for i in range(1000):
            keys.setdefault(store.shard_of(f"key-{i}"), f"key-{i}")
        assert len(keys) == store.n_shards
        return [keys[shard_id] for shard_id in store.shard_ids]

    def test_batch_sleeps_once_for_the_slowest_shard(self, monkeypatch):
        store = ShardedKVStore.with_latency(n_shards=4, median_ms=1.0,
                                            seed=3)
        keys = self._one_key_per_shard(store)
        sleeps, starts = [], []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: starts.append(thread))
        assert store.execute_batch(
            [("set", (key, i)) for i, key in enumerate(keys)]
            + [("get", (key,)) for key in keys]) == [None] * 4 + [0, 1, 2, 3]
        assert starts == []
        samples = [store.shard(s).latency_samples_ms()
                   for s in store.shard_ids]
        # One sample and one trip per touched shard, each its own draw.
        assert all(len(shard_samples) == 1 for shard_samples in samples)
        assert [store.shard(s).trip_count for s in store.shard_ids] == \
            [1, 1, 1, 1]
        assert sleeps == [max(s[0] for s in samples) / 1000.0]
        assert len({s[0] for s in samples}) == 4

    def test_one_rng_stream_per_shard_profile(self, monkeypatch):
        """Every draw is on the calling thread, so 200 four-shard batches
        open one stream per shard profile, not one per extra shard of
        every batch."""
        store = ShardedKVStore.with_latency(n_shards=4, median_ms=0.01,
                                            floor_ms=0.0, ceil_ms=0.01,
                                            seed=3)
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        keys = self._one_key_per_shard(store)
        for i in range(200):
            store.execute_batch([("incr", (key, 1)) for key in keys])
        assert [store.shard(s)._latency._next_stream
                for s in store.shard_ids] == [1, 1, 1, 1]
        assert store.trip_count == 800
        assert store.mget(keys) == [200] * 4

    def test_failed_shard_leaves_the_others_applied(self):
        """WRONGTYPE on one shard stops only that shard's group (after
        the ops before it, as a plain store does); every other shard's
        group is applied, and the first failure is raised."""
        store = ShardedKVStore(n_shards=4)
        a, b, c, d = self._one_key_per_shard(store)
        store.set(a, "text")
        store.set(c, "text")
        before = store.trip_count
        with pytest.raises(KVStoreError, match="HSET"):
            store.execute_batch([
                ("hset", (b, "f", 1)),
                ("hset", (a, "f", 1)),      # WRONGTYPE: the first failure
                ("incr", (d, 5)),
                ("incr", (c, 1)),           # WRONGTYPE, raised second
                ("hincrby", (b, "f", 2)),
                ("set", (a, "never")),      # after a's failure: not applied
            ])
        # Every touched shard paid its trip, failed or not.
        assert store.trip_count - before == 4
        assert store.get(a) == "text" and store.get(c) == "text"
        assert store.hgetall(b) == {"f": 3}
        assert store.get(d) == 5

    def test_unknown_op_with_latency_sends_nothing(self, monkeypatch):
        store = ShardedKVStore.with_latency(n_shards=4, seed=3)
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        keys = self._one_key_per_shard(store)
        with pytest.raises(KVStoreError):
            store.execute_batch([("set", (key, 1)) for key in keys]
                                + [("bogus", (keys[0],))])
        assert sleeps == [] and len(store) == 0 and store.trip_count == 0


class TestRouteMemo:
    def test_each_key_is_hashed_once(self, monkeypatch):
        ring = HashRing([f"shard-{i}" for i in range(4)])
        hashed = []
        ring_hash = sharded._ring_hash
        monkeypatch.setattr(sharded, "_ring_hash",
                            lambda value: hashed.append(value)
                            or ring_hash(value))
        first = [ring.shard_for(f"key-{i}") for i in range(50)]
        assert [ring.shard_for(f"key-{i}") for i in range(50)] == first
        assert len(hashed) == 50

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(sharded, "ROUTE_MEMO_KEYS", 8)
        ring = HashRing([f"shard-{i}" for i in range(4)])
        fresh = HashRing([f"shard-{i}" for i in range(4)])
        for i in range(100):
            assert ring.shard_for(f"key-{i}") == fresh.shard_for(f"key-{i}")
            assert len(ring._memo) <= 8


class TestConcurrentFanOut:
    def test_concurrent_batches_lose_no_update(self, monkeypatch):
        """More threads than cores issue four-shard batches at once, with
        a tiny route memo that keeps clearing and a short switch
        interval: every increment lands, once."""
        import sys
        monkeypatch.setattr(sharded, "ROUTE_MEMO_KEYS", 4)
        store = ShardedKVStore.with_latency(n_shards=4, median_ms=0.01,
                                            floor_ms=0.0, ceil_ms=0.02,
                                            seed=3)
        keys = [f"key-{i}" for i in range(16)]
        n_threads, n_batches = 8, 50

        def hammer():
            for _ in range(n_batches):
                store.execute_batch([("incr", (key, 1)) for key in keys])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer)
                       for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store.mget(keys) == [n_threads * n_batches] * len(keys)
