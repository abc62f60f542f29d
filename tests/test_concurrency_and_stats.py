"""Cross-cutting behavioural tests: concurrency overlap, workload stats.

These pin down properties the headline experiments rely on implicitly:
the kvstore's simulated latency must overlap across threads (otherwise
Fig 10's scaling would be an artifact), and the synthetic workload must
keep the distributional properties DESIGN.md promises.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.types import MediaType
from repro.kvstore.store import InMemoryKVStore, LatencyProfile


class TestLatencyOverlap:
    def test_two_threads_overlap_their_waits(self):
        """2 threads x N ops with ~fixed latency should take ~half the
        serial time — the property Fig 10's thread scaling rests on."""
        store = InMemoryKVStore(LatencyProfile(
            median_ms=5.0, sigma=0.01, floor_ms=4.9, ceil_ms=5.1
        ))
        n_ops = 20

        def worker(prefix):
            for i in range(n_ops):
                store.set(f"{prefix}{i}", i)

        serial_estimate = 2 * n_ops * 0.005
        threads = [threading.Thread(target=worker, args=(p,))
                   for p in ("a", "b")]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        assert wall < serial_estimate * 0.75  # substantially overlapped
        assert store.op_count == 2 * n_ops

    def test_no_latency_store_is_fast(self):
        store = InMemoryKVStore()
        start = time.perf_counter()
        for i in range(1000):
            store.incr("n")
        assert time.perf_counter() - start < 0.5


class TestWorkloadDistributions:
    def test_media_mix_tracks_configuration(self, population):
        """The generated media mix approximates the configured 35/55/10
        split (weighted by popularity)."""
        weights = population.normalized_weights()
        by_media = {media: 0.0 for media in MediaType}
        for entry, weight in zip(population.entries, weights):
            by_media[entry.config.media] += weight
        assert 0.15 <= by_media[MediaType.AUDIO] <= 0.55
        assert 0.35 <= by_media[MediaType.VIDEO] <= 0.75
        assert by_media[MediaType.SCREEN_SHARE] <= 0.3

    def test_intra_country_dominates(self, population):
        weights = population.normalized_weights()
        intra = sum(
            weight for entry, weight in zip(population.entries, weights)
            if entry.config.is_intra_country()
        )
        assert intra > 0.6  # ~80% of configs are intra-country

    def test_participant_counts_heavy_tailed(self, population):
        sizes = [entry.config.participant_count for entry in population]
        assert min(sizes) >= 1
        assert np.median(sizes) <= 8
        assert max(sizes) > np.median(sizes) * 2

    def test_demand_nonnegative_everywhere(self, expected_demand):
        assert (expected_demand.counts >= 0).all()
        assert np.isfinite(expected_demand.counts).all()

    def test_weekday_demand_exceeds_weekend(self, demand_model):
        """Aggregate Monday demand well above Sunday's."""
        from repro.core.types import make_slots

        slots = make_slots(7 * 86400.0)
        week = demand_model.expected(slots)
        daily = week.counts.sum(axis=1).reshape(7, 48).sum(axis=1)
        assert daily[0] > 2 * daily[6]  # Monday vs Sunday

    def test_trace_durations_positive(self, trace):
        assert all(call.duration_s > 0 for call in trace)

    def test_trace_call_ids_unique(self, trace):
        ids = [call.call_id for call in trace]
        assert len(ids) == len(set(ids))


class TestSelectorConcurrencySafety:
    def test_service_slot_debits_are_consistent_across_threads(self, topology):
        """Serving the same N identical calls over 4 worker threads must
        debit exactly N slots (no double-debit, no lost update) and feed
        the selector's statistics once per call."""
        from repro.core.types import Call, CallConfig, Participant, make_slots
        from repro.allocation.plan import AllocationPlan
        from repro.config import ServiceConfig
        from repro.controller.columnar import build_event_batch
        from repro.service import ServiceRuntime
        from repro.workload.columnar import ColumnarTrace
        from repro.workload.trace import CallTrace

        config = CallConfig.build({"JP": 2}, MediaType.AUDIO)
        n_calls = 40
        plan = AllocationPlan(
            slots=make_slots(3600.0, 1800.0),
            shares={(0, config): {"dc-tokyo": float(n_calls)}},
        )
        calls = [
            Call(f"c{i}", 10.0 + i * 0.01, 600.0, [
                Participant(f"c{i}-a", "JP", 0.0),
                Participant(f"c{i}-b", "JP", 5.0),
            ])
            for i in range(n_calls)
        ]
        runtime = ServiceRuntime.from_config(
            topology, plan, ServiceConfig(executor="thread", n_workers=4))
        runtime.run(build_event_batch(ColumnarTrace.from_trace(
            CallTrace(calls, make_slots(3600.0)))))
        snapshot = runtime.selector.ledger.snapshot(0, config)
        assert snapshot is not None
        assert snapshot["dc-tokyo"] == 0  # exactly n_calls debits
        assert runtime.selector.stats.calls == n_calls
        assert runtime.selector.stats.overflow == 0

    def test_selector_stats_survive_multithreaded_hammering(self):
        """Regression: SelectorStats.record() is one atomic fold — a
        torn read-modify-write under threads would lose counts here."""
        from repro.allocation.realtime import SelectorStats

        stats = SelectorStats()
        n_threads, per_thread = 8, 2000

        def hammer(index):
            for i in range(per_thread):
                stats.record(acl_ms=1.0, migrated=i % 2 == 0,
                             planned=i % 4 != 0, overflowed=i % 5 == 0)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = n_threads * per_thread
        assert stats.calls == total
        assert stats.migrations == n_threads * (per_thread // 2)
        assert stats.unplanned == n_threads * (per_thread // 4)
        assert stats.overflow == n_threads * (per_thread // 5)
        assert stats.acl_sum_ms == pytest.approx(float(total))
        assert stats.migration_rate == pytest.approx(0.5)
        assert stats.mean_acl_ms == pytest.approx(1.0)

    def test_latency_sampling_does_not_serialize_threads(self):
        """Per-thread RNG streams sample without a shared lock: many
        threads sampling concurrently should not take much longer than
        one thread doing the same share of work."""
        profile = LatencyProfile(seed=3)
        n_threads, per_thread = 8, 20_000

        def spin():
            for _ in range(per_thread):
                profile.sample_ms()

        start = time.perf_counter()
        for _ in range(per_thread):
            profile.sample_ms()
        single = time.perf_counter() - start

        threads = [threading.Thread(target=spin) for _ in range(n_threads)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        # Generous bound (GIL still serializes CPU work): the old global
        # RNG lock made this 8-thread run contend far worse than 8x the
        # single-thread time under load; mostly this guards deadlock and
        # pathological contention, not exact speedups.
        assert wall < max(5.0, 30 * single)
