"""Tests for the sharded kvstore: routing, rebalancing, pipelining."""

import pytest

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
