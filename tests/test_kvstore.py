"""Tests for the Redis-like kvstore: semantics, concurrency, latency."""

import threading

import pytest

from repro.core.types import CallConfig, MediaType
from repro.kvstore.client import ControllerStateClient, PipelinedStateClient
from repro.kvstore.sharded import ShardedKVStore
from repro.kvstore.store import InMemoryKVStore, KVStoreError, LatencyProfile
from repro.obs.histogram import LatencyHistogram, percentiles_ms


class TestStringOps:
    def test_set_get(self):
        store = InMemoryKVStore()
        store.set("k", "v")
        assert store.get("k") == "v"
        assert store.get("missing") is None

    def test_delete(self):
        store = InMemoryKVStore()
        store.set("k", 1)
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert not store.exists("k")

    def test_len_and_flush(self):
        store = InMemoryKVStore()
        store.set("a", 1)
        store.set("b", 2)
        assert len(store) == 2
        store.flush()
        assert len(store) == 0


class TestCounters:
    def test_incr_decr(self):
        store = InMemoryKVStore()
        assert store.incr("n") == 1
        assert store.incr("n", 5) == 6
        assert store.decr("n", 2) == 4

    def test_incr_type_error(self):
        store = InMemoryKVStore()
        store.set("n", "text")
        with pytest.raises(KVStoreError):
            store.incr("n")

    def test_concurrent_incr_is_atomic(self):
        store = InMemoryKVStore()
        n_threads, per_thread = 8, 500

        def bump():
            for _ in range(per_thread):
                store.incr("n")

        threads = [threading.Thread(target=bump) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.get("n") == n_threads * per_thread


class TestHashes:
    def test_hset_hget(self):
        store = InMemoryKVStore()
        store.hset("h", "f", "v")
        assert store.hget("h", "f") == "v"
        assert store.hget("h", "missing") is None
        assert store.hget("missing", "f") is None

    def test_hgetall_returns_snapshot(self):
        store = InMemoryKVStore()
        store.hset("h", "a", 1)
        snapshot = store.hgetall("h")
        snapshot["b"] = 2
        assert store.hgetall("h") == {"a": 1}

    def test_hincrby(self):
        store = InMemoryKVStore()
        assert store.hincrby("h", "n") == 1
        assert store.hincrby("h", "n", -3) == -2

    def test_htake_decrements_only_while_positive(self):
        store = InMemoryKVStore()
        store.hset("h", "n", 2)
        assert store.htake("h", "n") is True
        assert store.htake("h", "n") is True
        assert store.htake("h", "n") is False
        assert store.hgetall("h") == {"n": 0}

    def test_htake_miss_writes_nothing(self):
        """A refused take creates neither the key nor the field."""
        store = InMemoryKVStore()
        assert store.htake("missing", "n") is False
        assert len(store) == 0
        store.hset("h", "other", 1)
        assert store.htake("h", "n") is False
        assert store.hgetall("h") == {"other": 1}

    def test_hash_type_errors(self):
        store = InMemoryKVStore()
        store.set("s", "scalar")
        store.hset("h", "text", "v")
        with pytest.raises(KVStoreError):
            store.hset("s", "f", 1)
        with pytest.raises(KVStoreError):
            store.hget("s", "f")
        with pytest.raises(KVStoreError):
            store.hincrby("s", "f")
        with pytest.raises(KVStoreError):
            store.htake("s", "f")
        with pytest.raises(KVStoreError):
            store.htake("h", "text")


class TestLatencyProfile:
    def test_samples_within_paper_range(self):
        profile = LatencyProfile()
        for _ in range(500):
            assert 0.3 <= profile.sample_ms() <= 4.2

    def test_invalid_bounds(self):
        with pytest.raises(KVStoreError):
            LatencyProfile(floor_ms=5.0, ceil_ms=1.0)

    def test_ops_record_latency(self):
        store = InMemoryKVStore(LatencyProfile(median_ms=0.5, floor_ms=0.3,
                                               ceil_ms=1.0))
        for i in range(20):
            store.set(f"k{i}", i)
        lo, median, hi = store.latency_stats_ms()
        assert 0.3 <= lo <= median <= hi <= 1.0
        assert store.op_count == 20


class TestControllerStateClient:
    def test_call_lifecycle(self):
        store = InMemoryKVStore()
        client = ControllerStateClient(store)
        client.open_call("c1", "dc-a", "US")
        client.record_join("c1", "US")
        client.record_join("c1", "CA")
        client.record_media("c1", MediaType.VIDEO)

        config = client.observed_config("c1")
        assert config == CallConfig.build({"US": 2, "CA": 1}, MediaType.VIDEO)
        assert client.call_dc("c1") == "dc-a"
        assert client.dc_load("dc-a") == 1

        client.close_call("c1")
        assert client.call_dc("c1") is None
        assert client.dc_load("dc-a") == 0

    def test_media_only_escalates(self):
        client = ControllerStateClient(InMemoryKVStore())
        client.open_call("c1", "dc-a", "US")
        client.record_media("c1", MediaType.SCREEN_SHARE)
        client.record_media("c1", MediaType.VIDEO)  # downgrade attempt
        assert client.observed_config("c1").media is MediaType.SCREEN_SHARE

    def test_migrate_call_moves_load(self):
        client = ControllerStateClient(InMemoryKVStore())
        client.open_call("c1", "dc-a", "US")
        client.migrate_call("c1", "dc-b")
        assert client.call_dc("c1") == "dc-b"
        assert client.dc_load("dc-a") == 0
        assert client.dc_load("dc-b") == 1

    def test_observed_config_unknown_call(self):
        client = ControllerStateClient(InMemoryKVStore())
        assert client.observed_config("nope") is None

    def test_pipelined_client_matches_plain_client(self):
        """The write-only pipelined client, told the DC and media its
        owner holds, must leave the store in the state the
        read-before-write client does (modulo the call-id hash tag) —
        in one trip per flush, however many steps it holds."""
        plain_store, piped_store = InMemoryKVStore(), InMemoryKVStore()
        plain = ControllerStateClient(plain_store)
        plain.open_call("c1", "dc-a", "US")
        plain.record_join("c1", "CA")
        plain.record_media("c1", MediaType.VIDEO)
        plain.migrate_call("c1", "dc-b")
        plain.open_call("c2", "dc-a", "US")
        plain.close_call("c2")

        piped = PipelinedStateClient(piped_store)
        spread, queue = piped.open("c1", "dc-a", "US")
        piped.flush()
        queue.append(("hincrby", (spread, "CA", 1)))
        piped.media(queue, "c1", MediaType.VIDEO)
        piped.migrate(queue, "c1", "dc-a", "dc-b")
        piped.flush()
        _, queue = piped.open("c2", "dc-a", "US")
        piped.close(queue, "c2", "dc-a")
        piped.flush()
        piped.flush()  # nothing queued: no trip
        assert piped_store.trip_count == 3

        assert set(piped_store._data) >= {"call:{c1}", "call:{c1}:spread"}
        untagged = {key.replace("{", "").replace("}", ""): value
                    for key, value in piped_store._data.items()}
        assert untagged == plain_store._data

    def test_pipelined_client_batches_round_trips(self):
        store = InMemoryKVStore(LatencyProfile(median_ms=0.1, floor_ms=0.05,
                                               ceil_ms=0.2))
        client = PipelinedStateClient(store)
        client.open("c1", "dc-a", "US")
        assert not store.latency_samples_ms()  # queueing writes sends none
        # A call's open is several writes; batched, they pay one trip.
        client.flush()
        assert len(store.latency_samples_ms()) == 1

    def test_pipelined_client_queues_per_shard(self):
        """On a sharded store each write joins its key's shard's queue —
        a call's keys one, each load counter's its own — and a flush is
        one store wait, one trip per shard with writes."""
        store = ShardedKVStore(n_shards=4)
        client = PipelinedStateClient(store)
        assert len(client.queues) == 4
        dcs = [f"dc-{i}" for i in range(8)]
        for i in range(40):
            spread, queue = client.open(f"c{i}", dcs[i % 8], "US")
            assert queue is client.queues[store.shard_index(spread)]
            client.close(queue, f"c{i}", dcs[i % 8])
        for index, queue in enumerate(client.queues):
            assert all(store.shard_index(args[0]) == index
                       for _, args in queue)
        waits = []
        execute_batch = store.execute_batch
        store.execute_batch = lambda ops: waits.append(ops) or \
            execute_batch(ops)
        client.flush()
        assert len(waits) == 1 and not any(client.queues)
        assert store.trip_count == 4
        assert store.op_count == 40 * 7
        assert len(store) == 8
        assert all(store.get(f"dcload:{dc}") == 0 for dc in dcs)


class TestPerThreadRNGStreams:
    def test_single_thread_is_deterministic(self):
        a, b = LatencyProfile(seed=7), LatencyProfile(seed=7)
        assert [a.sample_ms() for _ in range(50)] == \
            [b.sample_ms() for _ in range(50)]

    def test_streams_differ_across_threads(self):
        """Each sampling thread gets its own stream: no two threads draw
        the same sequence (which a naive per-thread reseed would)."""
        profile = LatencyProfile(seed=7)
        sequences = {}
        lock = threading.Lock()

        def draw(index):
            mine = tuple(profile.sample_ms() for _ in range(20))
            with lock:
                sequences[index] = mine

        threads = [threading.Thread(target=draw, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(sequences.values())) == 4

    def test_concurrent_sampling_stays_in_bounds(self):
        """The lock-free hot path never returns an out-of-range sample
        under heavy multi-thread hammering."""
        profile = LatencyProfile(median_ms=1.0, floor_ms=0.3, ceil_ms=4.2,
                                 seed=11)
        bad = []

        def hammer():
            for _ in range(2000):
                sample = profile.sample_ms()
                if not 0.3 <= sample <= 4.2:
                    bad.append(sample)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not bad


class TestPercentiles:
    def test_nearest_rank(self):
        samples = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0,
                   100.0]
        pcts = percentiles_ms(samples)
        assert pcts == {"p50": 50.0, "p95": 100.0, "p99": 100.0,
                        "count": 10}

    def test_even_count_uses_ceil_not_bankers_rounding(self):
        # n=6, p50 -> rank ceil(3)=3 -> 3rd smallest, NOT round(3.5)=4th.
        assert percentiles_ms([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])["p50"] == 3.0

    def test_empty_input(self):
        # None, not 0.0: an empty histogram must not read as a perfect
        # latency tail.  The count key makes emptiness explicit.
        assert percentiles_ms([]) == {"p50": None, "p95": None,
                                      "p99": None, "count": 0}

    def test_store_percentiles(self):
        store = InMemoryKVStore(LatencyProfile(median_ms=0.5, floor_ms=0.3,
                                               ceil_ms=1.0))
        for i in range(100):
            store.set(f"k{i}", i)
        pcts = store.latency_percentiles_ms()
        assert 0.3 <= pcts["p50"] <= pcts["p95"] <= pcts["p99"] <= 1.0

    def test_histogram_records_and_merges(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record_many([1.0, 2.0, 3.0])
        b.record(4.0)
        a.merge(b)
        assert a.count == 4
        assert a.mean_ms == pytest.approx(2.5)
        assert a.percentiles()["p99"] == 4.0

    def test_histogram_thread_safe(self):
        histogram = LatencyHistogram()

        def record():
            for i in range(1000):
                histogram.record(float(i))

        threads = [threading.Thread(target=record) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == 8000


class TestBatchedOps:
    def test_batch_matches_sequential(self):
        sequential, batched = InMemoryKVStore(), InMemoryKVStore()
        expected = [sequential.set("k", 1), sequential.incr("n", 2),
                    sequential.hincrby("h", "f", 3), sequential.get("k"),
                    sequential.htake("h", "f"), sequential.htake("h", "g"),
                    sequential.hgetall("h")]
        got = batched.execute_batch([
            ("set", ("k", 1)), ("incr", ("n", 2)),
            ("hincrby", ("h", "f", 3)), ("get", ("k",)),
            ("htake", ("h", "f")), ("htake", ("h", "g")),
            ("hgetall", ("h",)),
        ])
        assert got == expected
        assert batched._data == sequential._data
        # Seven single ops are seven trips; the batch is one.
        assert (sequential.trip_count, batched.trip_count) == (7, 1)
        assert sequential.op_count == batched.op_count == 7

    def test_batch_pays_one_round_trip(self):
        store = InMemoryKVStore(LatencyProfile(median_ms=0.1, floor_ms=0.05,
                                               ceil_ms=0.2))
        store.execute_batch([("set", (f"k{i}", i)) for i in range(30)])
        assert len(store.latency_samples_ms()) == 1
        assert store.op_count == 30

    def test_unknown_batch_op_rejected(self):
        with pytest.raises(KVStoreError):
            InMemoryKVStore().execute_batch([("flush", ())])

    def test_unknown_op_applies_nothing(self):
        """Every op name resolves before the first op applies."""
        store = InMemoryKVStore()
        with pytest.raises(KVStoreError):
            store.execute_batch([("hset", ("k", "f", 1)), ("bogus", ())])
        assert "k" not in store._data
        assert (store.op_count, store.trip_count) == (0, 0)

    def test_failed_batch_counts_its_trip_and_applied_ops(self):
        """A WRONGTYPE op mid-batch raises after the ops before it
        applied; the trip and those ops are counted."""
        store = InMemoryKVStore()
        store.set("s", "text")
        with pytest.raises(KVStoreError):
            store.execute_batch([("hset", ("h", "f", 1)), ("incr", ("s", 1)),
                                 ("set", ("z", 2))])
        assert store._data == {"s": "text", "h": {"f": 1}}
        assert (store.op_count, store.trip_count) == (2, 2)
