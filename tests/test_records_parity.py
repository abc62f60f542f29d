"""The columnar records store against its object-path oracle.

``OracleDatabase`` / ``oracle_ingest_trace`` are the per-call
implementation ``repro.records`` had before it went columnar — one
``CallRecord`` + one ``CallLegRecord`` per leg, a scalar lognormal draw per
leg, dict indices — kept here as the reference.  The columnar store must
answer every query identically: same order, same bits.
"""

from __future__ import annotations

import statistics
import zlib
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config import PlannerConfig
from repro.core.errors import RecordError
from repro.core.types import Call, CallConfig, MediaType, Participant, make_slots
from repro.records import (
    CallLegRecord,
    CallRecord,
    CallRecordsDatabase,
    demand_from_database,
    estimate_latency_matrix,
    fabricate_leg_latency,
    ingest_trace,
)
from repro.switchboard import SwitchboardPipeline
from repro.workload.arrivals import DemandModel
from repro.workload.columnar import ColumnarTrace
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.trace import CallTrace, TraceGenerator


# ----------------------------------------------------------------------
# the oracle: the per-call object path
# ----------------------------------------------------------------------
class OracleDatabase:
    """The pre-columnar ``CallRecordsDatabase``: a record list and dict
    indices, one update per call and per leg."""

    def __init__(self, bucket_s: float = 1800.0):
        self.bucket_s = bucket_s
        self._records: List[CallRecord] = []
        self._leg_latencies: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        self._by_bucket_config: Dict[Tuple[int, CallConfig], int] = defaultdict(int)
        self._config_totals: Dict[CallConfig, int] = defaultdict(int)
        self._max_bucket = -1

    def ingest(self, record, leg_latencies=None) -> None:
        self._records.append(record)
        bucket = int(record.start_s // self.bucket_s)
        self._by_bucket_config[(bucket, record.config)] += 1
        self._config_totals[record.config] += 1
        self._max_bucket = max(self._max_bucket, bucket)
        for leg in leg_latencies or ():
            if leg.call_id != record.call_id:
                raise RecordError(
                    f"leg for call {leg.call_id} attached to {record.call_id}")
            self._leg_latencies[(leg.dc_id, leg.participant_country)].append(
                leg.latency_ms)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def n_buckets(self) -> int:
        return self._max_bucket + 1

    def configs(self):
        return sorted(
            self._config_totals,
            key=lambda config: (-self._config_totals[config], str(config)))

    def top_configs(self, fraction: float):
        ordered = self.configs()
        return ordered[:max(1, int(round(fraction * len(ordered))))]

    def call_count(self, config) -> int:
        return self._config_totals.get(config, 0)

    def coverage_of(self, configs) -> float:
        covered = sum(self._config_totals.get(config, 0) for config in configs)
        return covered / len(self._records)

    def config_timeseries(self, config, n_buckets=None) -> np.ndarray:
        buckets = n_buckets if n_buckets is not None else self.n_buckets
        series = np.zeros(buckets)
        for (bucket, recorded), count in self._by_bucket_config.items():
            if recorded == config and bucket < buckets:
                series[bucket] = count
        return series

    def all_timeseries(self, configs):
        out = {config: np.zeros(self.n_buckets) for config in configs}
        for (bucket, config), count in self._by_bucket_config.items():
            if config in out:
                out[config][bucket] = count
        return out

    def timeseries_matrix(self, configs) -> np.ndarray:
        series = self.all_timeseries(configs)
        return np.stack([series[config] for config in configs], axis=1)

    def slots(self):
        return make_slots((self._max_bucket + 1) * self.bucket_s, self.bucket_s)

    def leg_latency_samples(self, dc_id, country):
        return list(self._leg_latencies.get((dc_id, country), []))

    def leg_latency_medians(self, min_samples: int = 1):
        return {pair: float(statistics.median(samples))
                for pair, samples in self._leg_latencies.items()
                if len(samples) >= min_samples}

    def latency_pairs(self):
        return sorted(self._leg_latencies)

    def records(self):
        return list(self._records)


def oracle_ingest_trace(db, trace: CallTrace, topology, dc_of_call=None,
                        seed: int = 47, latency_jitter_frac: float = 0.25,
                        freeze_after_s: Optional[float] = None) -> None:
    """One record, ``participant_count`` leg objects and as many scalar
    lognormal draws per call."""
    if dc_of_call is None:
        dc_of_call = lambda call: topology.closest_dc(call.first_joiner.country)
    rng = np.random.default_rng(seed)
    for call in trace:
        config = call.config(freeze_after_s)
        dc_id = dc_of_call(call)
        record = CallRecord(call.call_id, config, dc_id, call.start_s,
                            call.duration_s, call.series_id)
        legs = [
            CallLegRecord(
                call.call_id, country, dc_id,
                fabricate_leg_latency(topology.latency, dc_id, country, rng,
                                      latency_jitter_frac),
                call.start_s)
            for country, count in config.spread for _ in range(count)
        ]
        db.ingest(record, legs)


# ----------------------------------------------------------------------
# parity
# ----------------------------------------------------------------------
def _columnar_day(topology, seed: int, n_configs: int, calls_per_slot: float,
                  n_slots: int) -> ColumnarTrace:
    population = generate_population(topology.world, n_configs=n_configs,
                                     seed=seed)
    model = DemandModel(topology.world, population, DiurnalModel(),
                        calls_per_slot_at_peak=calls_per_slot)
    sampled = model.sample(make_slots(n_slots * 1800.0), seed=seed + 1)
    return TraceGenerator(seed=seed + 2).generate_columnar(sampled)


def _assert_same_database(db: CallRecordsDatabase, oracle: OracleDatabase,
                          topology) -> None:
    assert len(db) == len(oracle)
    assert db.n_buckets == oracle.n_buckets
    configs = oracle.configs()
    assert db.configs() == configs
    assert db.slots() == oracle.slots()
    assert db.records() == oracle.records()

    asked = configs + [CallConfig.build({"ZZ": 7}, MediaType.VIDEO)]
    ours, theirs = db.all_timeseries(asked), oracle.all_timeseries(asked)
    assert list(ours) == list(theirs)
    for config in asked:
        np.testing.assert_array_equal(ours[config], theirs[config])
        assert db.call_count(config) == oracle.call_count(config)
        for n_buckets in (None, 1, oracle.n_buckets + 3):
            np.testing.assert_array_equal(
                db.config_timeseries(config, n_buckets=n_buckets),
                oracle.config_timeseries(config, n_buckets=n_buckets))
    for fraction in (0.04, 0.5, 1.0):
        top = oracle.top_configs(fraction)
        assert db.top_configs(fraction) == top
        assert db.coverage_of(top) == oracle.coverage_of(top)
    assert db.coverage_of(asked[-1:] + asked[:1] * 2) == \
        oracle.coverage_of(asked[-1:] + asked[:1] * 2)

    assert db.latency_pairs() == oracle.latency_pairs()
    for dc_id, country in oracle.latency_pairs() + [("dc-nowhere", "ZZ")]:
        # A list of floats compared with ==: bit for bit, and in order.
        assert db.leg_latency_samples(dc_id, country) == \
            oracle.leg_latency_samples(dc_id, country)
    for min_samples in (1, 3):
        ours_m = estimate_latency_matrix(db, topology, min_samples=min_samples)
        theirs_m = estimate_latency_matrix(oracle, topology,
                                           min_samples=min_samples)
        assert ours_m.pairs() == theirs_m.pairs()
        for pair in theirs_m.pairs():
            assert ours_m.latency_ms(*pair) == theirs_m.latency_ms(*pair)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 16),
    n_configs=st.integers(2, 10),
    calls_per_slot=st.floats(3.0, 12.0),
    freeze_after_s=st.sampled_from([None, 300.0]),
    bucket_s=st.sampled_from([600.0, 1000.0, 1800.0, 3600.0]),
    jitter=st.sampled_from([0.0, 0.1, 0.25, 0.6]),
    as_objects=st.lists(st.booleans(), min_size=1, max_size=3),
    custom_dc=st.booleans(),
)
def test_columnar_store_matches_object_oracle(
        small_topology, seed, n_configs, calls_per_slot, freeze_after_s,
        bucket_s, jitter, as_objects, custom_dc):
    dc_ids = small_topology.fleet.ids
    dc_of_call = None
    if custom_dc:
        # Works on a Call and on a CallView alike.
        dc_of_call = lambda call: dc_ids[
            (zlib.crc32(call.call_id.encode()) + len(call.participants))
            % len(dc_ids)]
    db, oracle = CallRecordsDatabase(bucket_s), OracleDatabase(bucket_s)
    for k, as_object in enumerate(as_objects):
        columnar = _columnar_day(small_topology, seed + 10 * k, n_configs,
                                 calls_per_slot, n_slots=3 + k)
        objects = columnar.to_trace()
        for i, call in enumerate(objects.calls):
            call.series_id = f"series-{i % 3}" if as_object and i % 2 else None
        kwargs = dict(dc_of_call=dc_of_call, seed=seed + k,
                      latency_jitter_frac=jitter, freeze_after_s=freeze_after_s)
        ingest_trace(db, objects if as_object else columnar, small_topology,
                     **kwargs)
        oracle_ingest_trace(oracle, objects, small_topology, **kwargs)
        # Queried between ingests too: caches must not go stale.
        assert db.configs() == oracle.configs()
    assume(len(oracle) > 0)
    _assert_same_database(db, oracle, small_topology)


def test_object_door_matches_oracle(small_topology):
    """``db.ingest(record, legs)`` rows interleaved with a trace ingest."""
    columnar = _columnar_day(small_topology, 5, 6, 8.0, n_slots=4)
    config = CallConfig.build({"JP": 2, "IN": 1}, MediaType.VIDEO)
    stray = [
        (CallRecord("x-1", config, "dc-tokyo", 10.0, 60.0, "s"),
         [CallLegRecord("x-1", "JP", "dc-tokyo", 12.5, 10.0),
          CallLegRecord("x-1", "IN", "dc-pune", 80.0, 10.0)]),
        (CallRecord("x-2", config, "dc-pune", 9000.0, 60.0), None),
    ]
    db, oracle = CallRecordsDatabase(), OracleDatabase()
    for target, ingest in ((db, ingest_trace), (oracle, oracle_ingest_trace)):
        target.ingest(*stray[0])
        ingest(target, columnar if target is db else columnar.to_trace(),
               small_topology, seed=2, freeze_after_s=300.0)
        target.ingest(*stray[1])
    _assert_same_database(db, oracle, small_topology)


def test_pipeline_cost_identical_from_either_store(small_topology):
    columnar = _columnar_day(small_topology, 3, 6, 10.0, n_slots=96)
    db, oracle = CallRecordsDatabase(), OracleDatabase()
    ingest_trace(db, columnar, small_topology, seed=9, freeze_after_s=300.0)
    oracle_ingest_trace(oracle, columnar.to_trace(), small_topology, seed=9,
                        freeze_after_s=300.0)
    ours_d, theirs_d = demand_from_database(db), demand_from_database(oracle)
    assert ours_d.configs == theirs_d.configs
    np.testing.assert_array_equal(ours_d.counts, theirs_d.counts)
    np.testing.assert_array_equal(
        demand_from_database(db, n_buckets=100).counts,
        demand_from_database(oracle, n_buckets=100).counts)

    pipeline = SwitchboardPipeline(
        small_topology, top_config_fraction=0.5,
        config=PlannerConfig(max_link_scenarios=0))
    costs = [pipeline.run(store, horizon_slots=8, with_backup=True)
             .capacity.cost(small_topology) for store in (db, oracle)]
    assert costs[0] == costs[1]


# ----------------------------------------------------------------------
# the two bugfix doors
# ----------------------------------------------------------------------
class TestNegativeStartRejected:
    def test_record_door(self):
        config = CallConfig.build({"US": 1}, MediaType.AUDIO)
        with pytest.raises(RecordError):
            CallRecord("c", config, "dc-a", -5.0, 60.0)

    def test_column_door(self, small_topology):
        columnar = _columnar_day(small_topology, 1, 4, 5.0, n_slots=2)
        start = columnar.start_s.copy()
        start[-1] = -5.0
        db = CallRecordsDatabase()
        with pytest.raises(RecordError):
            ingest_trace(db, columnar.replace(start_s=start), small_topology)
        assert len(db) == 0

    def test_negative_jitter_rejected(self, small_topology):
        columnar = _columnar_day(small_topology, 1, 4, 5.0, n_slots=2)
        with pytest.raises(RecordError):
            ingest_trace(CallRecordsDatabase(), columnar, small_topology,
                         latency_jitter_frac=-0.1)


# ----------------------------------------------------------------------
# config_table: vectorised interning == the loop it replaced
# ----------------------------------------------------------------------
def _config_table_loop(trace: ColumnarTrace, freeze_after_s):
    """``ColumnarTrace.config_table``'s per-call interning loop, as it
    was: bytes keys over each call's (country code, count) run."""
    part_call = trace.participant_call()
    mask = (np.ones(trace.n_participants, dtype=bool) if freeze_after_s is None
            else trace.join_offset_s <= freeze_after_s)
    masked_media = np.where(mask, trace.media_code, 0).astype(np.int8)
    call_media = np.maximum.reduceat(masked_media, trace.part_offsets[:-1])
    n_countries = max(len(trace.countries), 1)
    pair = part_call[mask] * n_countries + trace.country_code[mask].astype(np.int64)
    upair, ucount = np.unique(pair, return_counts=True)
    ucall = upair // n_countries
    uctry = (upair % n_countries).astype(np.int32)
    lo = np.searchsorted(ucall, np.arange(trace.n_calls))
    hi = np.searchsorted(ucall, np.arange(trace.n_calls), side="right")
    configs, interned = [], {}
    codes = np.empty(trace.n_calls, dtype=np.int64)
    for i in range(trace.n_calls):
        s, e = lo[i], hi[i]
        key = (uctry[s:e].tobytes(), ucount[s:e].tobytes(), int(call_media[i]))
        idx = interned.get(key)
        if idx is None:
            spread = {trace.countries.value(int(c)): int(k)
                      for c, k in zip(uctry[s:e], ucount[s:e])}
            idx = interned[key] = len(configs)
            configs.append(CallConfig.build(
                spread, MediaType.from_code(int(call_media[i]))))
        codes[i] = idx
    return configs, codes


def _hand_built_trace() -> CallTrace:
    """Foreign call/participant ids, join-offset ties, late joiners that a
    300 s freeze drops, repeated configs out of sorted order."""
    def call(call_id, start, parts):
        return Call(call_id, start, 900.0, [
            Participant(pid, country, offset, media)
            for pid, country, offset, media in parts])
    audio, video = MediaType.AUDIO, MediaType.VIDEO
    return CallTrace([
        call("meeting/zeta", 5.0, [("zoe", "US", 0.0, audio),
                                   ("yan", "JP", 0.0, audio),
                                   ("xi", "JP", 400.0, video)]),
        call("call-00000007", 6.0, [("call-00000007-p0", "IN", 0.0, audio)]),
        call("meeting/alpha", 7.0, [("b", "JP", 0.0, audio),
                                    ("a", "US", 0.0, audio)]),
        call("call-00000003", 8.0, [("call-00000003-p0", "US", 0.0, video),
                                    ("call-00000003-p1", "JP", 300.0, audio)]),
        call("tie", 9.0, [("q", "IN", 0.0, audio), ("p", "IN", 0.0, audio)]),
        call("call-00000001", 9.5, [("call-00000001-p0", "IN", 0.0, audio)]),
    ], make_slots(1800.0))


@pytest.mark.parametrize("freeze_after_s", [None, 300.0, 0.0])
def test_config_table_matches_replaced_loop(small_topology, freeze_after_s):
    traces = [ColumnarTrace.from_trace(_hand_built_trace()),
              _columnar_day(small_topology, 11, 12, 20.0, n_slots=6)]
    for trace in traces:
        configs, codes = trace.config_table(freeze_after_s)
        ref_configs, ref_codes = _config_table_loop(trace, freeze_after_s)
        assert configs == ref_configs
        np.testing.assert_array_equal(codes, ref_codes)
        assert codes.dtype == ref_codes.dtype
        assert [configs[c] for c in codes] == \
            [call.config(freeze_after_s) for call in trace.to_trace()]
