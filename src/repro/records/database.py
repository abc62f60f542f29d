"""In-memory, columnar Call Records Database.

This is the substrate Switchboard's forecasting and provisioning read
from: it stores one row per call and one row per call leg as parallel
numpy columns, and answers the two queries the paper needs —
per-config call-count timeseries (§5.2), sliced from one cached
``(n_buckets, n_configs)`` count matrix, and pooled per-(DC, country)
leg latencies (§6.2), read off one stable grouping of the leg column.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import RecordError
from repro.core.types import CallConfig, TimeSlot, make_slots
from repro.records.record import CallLegRecord, CallRecord


def _intern(index: Dict[Hashable, int], values: Iterable[Hashable]) -> np.ndarray:
    """Codes of ``values`` in the append-only table ``index`` (a dict in
    code order), interning the ones it has not seen."""
    return np.array([index.setdefault(value, len(index)) for value in values],
                    dtype=np.int64)


class CallRecordsDatabase:
    """Stores call records as columns and answers aggregate queries.

    Call columns (one row per call, ingest order): ``call_id``,
    ``series_id``, ``start_s``, ``duration_s``, ``config_code``,
    ``dc_code``.  Leg columns (one row per leg, ingest order):
    ``leg_pair_code`` into the interned (DC, country) pairs and
    ``leg_latency_ms``.  Codes index append-only interning tables, so
    they stay valid across ingests.
    """

    def __init__(self, bucket_s: float = 1800.0):
        if bucket_s <= 0:
            raise RecordError("bucket width must be positive")
        self.bucket_s = bucket_s
        self._config_index: Dict[CallConfig, int] = {}
        self._dc_index: Dict[str, int] = {}
        self._pair_index: Dict[Tuple[str, str], int] = {}
        self._call_ids: List[str] = []
        self._series_ids: List[Optional[str]] = []
        self._start_s = np.zeros(0, dtype=np.float64)
        self._duration_s = np.zeros(0, dtype=np.float64)
        self._config_code = np.zeros(0, dtype=np.int64)
        self._dc_code = np.zeros(0, dtype=np.int64)
        self._leg_pair_code = np.zeros(0, dtype=np.int64)
        self._leg_latency_ms = np.zeros(0, dtype=np.float64)
        # Rows from the object door, appended as one chunk by the next query.
        self._pending: List[Tuple[CallRecord, Sequence[CallLegRecord]]] = []
        # Derived from the columns; dropped by every append.
        self._counts: Optional[np.ndarray] = None
        self._leg_groups: Optional[Dict[Tuple[str, str], np.ndarray]] = None

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, record: CallRecord,
               leg_latencies: Optional[Sequence[CallLegRecord]] = None) -> None:
        """Store one call record and, optionally, its per-leg latencies."""
        legs = leg_latencies or ()
        for leg in legs:
            if leg.call_id != record.call_id:
                raise RecordError(
                    f"leg for call {leg.call_id} attached to {record.call_id}"
                )
        self._pending.append((record, legs))

    def append(self, *, call_ids: Sequence[str],
               series_ids: Sequence[Optional[str]],
               start_s: np.ndarray, duration_s: np.ndarray,
               configs: Sequence[CallConfig], config_code: np.ndarray,
               dcs: Sequence[str], dc_code: np.ndarray,
               pairs: Sequence[Tuple[str, str]], leg_pair_code: np.ndarray,
               leg_latency_ms: np.ndarray) -> None:
        """Append a chunk of calls and legs given as columns.

        The chunk is dictionary-encoded against its *own* tables
        (``config_code`` indexes ``configs``, ``dc_code`` indexes ``dcs``,
        ``leg_pair_code`` indexes ``pairs``; a table may repeat a value)
        and re-coded into the database's tables here.  Every entry of
        ``pairs`` must be used by at least one leg.
        """
        self._flush()
        if not (len(call_ids) == len(series_ids) == len(start_s)
                == len(duration_s) == len(config_code) == len(dc_code)
                and len(leg_pair_code) == len(leg_latency_ms)):
            raise RecordError("columns differ in length")
        for name, column in (("call start time", start_s),
                             ("call duration", duration_s),
                             ("leg latency", leg_latency_ms)):
            if len(column) and np.min(column) < 0:
                raise RecordError(f"negative {name}")
        self._call_ids.extend(call_ids)
        self._series_ids.extend(series_ids)
        self._start_s = np.concatenate([self._start_s, start_s])
        self._duration_s = np.concatenate([self._duration_s, duration_s])
        self._config_code = np.concatenate(
            [self._config_code, _intern(self._config_index, configs)[config_code]])
        self._dc_code = np.concatenate(
            [self._dc_code, _intern(self._dc_index, dcs)[dc_code]])
        self._leg_pair_code = np.concatenate(
            [self._leg_pair_code, _intern(self._pair_index, pairs)[leg_pair_code]])
        self._leg_latency_ms = np.concatenate(
            [self._leg_latency_ms, leg_latency_ms])
        self._counts = self._leg_groups = None

    def _flush(self) -> None:
        """Append the pending object rows as one chunk (each row its own
        table entry: the re-coding in :meth:`append` interns them)."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        records = [record for record, _ in pending]
        legs = [leg for _, call_legs in pending for leg in call_legs]
        self.append(
            call_ids=[r.call_id for r in records],
            series_ids=[r.series_id for r in records],
            start_s=np.array([r.start_s for r in records], dtype=np.float64),
            duration_s=np.array([r.duration_s for r in records], dtype=np.float64),
            configs=[r.config for r in records], config_code=np.arange(len(records)),
            dcs=[r.dc_id for r in records], dc_code=np.arange(len(records)),
            pairs=[(leg.dc_id, leg.participant_country) for leg in legs],
            leg_pair_code=np.arange(len(legs)),
            leg_latency_ms=np.array([leg.latency_ms for leg in legs],
                                    dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._call_ids) + len(self._pending)

    def _count_matrix(self) -> np.ndarray:
        """Calls per (bucket, config code), plus one all-zero last column
        that code ``-1`` (a config never seen) selects.  Every count query
        slices this."""
        self._flush()
        if self._counts is None:
            width = len(self._config_index) + 1
            bucket = (self._start_s // self.bucket_s).astype(np.int64)
            n_buckets = int(bucket.max()) + 1 if bucket.size else 0
            self._counts = np.bincount(
                bucket * width + self._config_code, minlength=n_buckets * width,
            ).reshape(n_buckets, width).astype(np.float64)
        return self._counts

    @property
    def n_buckets(self) -> int:
        return self._count_matrix().shape[0]

    def configs(self) -> List[CallConfig]:
        """All configs observed, most frequent first (ties by repr)."""
        totals = self._count_matrix().sum(axis=0).tolist()
        ranked = sorted(zip(self._config_index, totals),
                        key=lambda item: (-item[1], str(item[0])))
        return [config for config, _ in ranked]

    def top_configs(self, fraction: float) -> List[CallConfig]:
        """The most frequent ``fraction`` of configs (at least one, §5.2)."""
        if not 0 < fraction <= 1:
            raise RecordError(f"fraction must be in (0, 1], got {fraction}")
        ordered = self.configs()
        if not ordered:
            raise RecordError("database is empty")
        count = max(1, int(round(fraction * len(ordered))))
        return ordered[:count]

    def timeseries_matrix(self, configs: Sequence[CallConfig]) -> np.ndarray:
        """``(n_buckets, len(configs))`` calls per bucket, one column per
        requested config (zeros for a config never seen)."""
        counts = self._count_matrix()
        return counts[:, [self._config_index.get(config, -1) for config in configs]]

    def call_count(self, config: CallConfig) -> int:
        return int(self.timeseries_matrix([config]).sum())

    def coverage_of(self, configs: Sequence[CallConfig]) -> float:
        """Fraction of all calls covered by ``configs`` (Fig 7c check)."""
        if not len(self):
            raise RecordError("database is empty")
        return int(self.timeseries_matrix(configs).sum()) / len(self)

    def config_timeseries(self, config: CallConfig,
                          n_buckets: Optional[int] = None) -> np.ndarray:
        """Calls per bucket for one config — the §5.2 forecasting input."""
        buckets = n_buckets if n_buckets is not None else self.n_buckets
        if buckets <= 0:
            raise RecordError("no buckets ingested yet")
        column = self.timeseries_matrix([config])[:buckets, 0]
        series = np.zeros(buckets)
        series[:column.shape[0]] = column
        return series

    def all_timeseries(self, configs: Sequence[CallConfig]) -> Dict[CallConfig, np.ndarray]:
        """Timeseries for many configs: columns of the count matrix."""
        return dict(zip(configs, self.timeseries_matrix(configs).T.copy()))

    def slots(self) -> List[TimeSlot]:
        """The bucket grid as TimeSlots."""
        if not self.n_buckets:
            raise RecordError("database is empty")
        return make_slots(self.n_buckets * self.bucket_s, self.bucket_s)

    def _legs_by_pair(self) -> Dict[Tuple[str, str], np.ndarray]:
        """Leg latencies of each (dc_id, country) pair, in ingest order:
        one stable sort of the leg column by pair code, cut per code."""
        self._flush()
        if self._leg_groups is None:
            order = np.argsort(self._leg_pair_code, kind="stable")
            cuts = np.searchsorted(self._leg_pair_code[order],
                                   np.arange(1, len(self._pair_index)))
            self._leg_groups = dict(zip(
                self._pair_index, np.split(self._leg_latency_ms[order], cuts)))
        return self._leg_groups

    def leg_latency_samples(self, dc_id: str, country: str) -> List[float]:
        return self._legs_by_pair().get((dc_id, country), np.zeros(0)).tolist()

    def leg_latency_medians(self, min_samples: int = 1
                            ) -> Dict[Tuple[str, str], float]:
        """Median leg latency of every (dc_id, country) pair with at least
        ``min_samples`` samples — the §6.2 pooling."""
        return {pair: float(np.median(samples))
                for pair, samples in self._legs_by_pair().items()
                if len(samples) >= min_samples}

    def latency_pairs(self) -> List[Tuple[str, str]]:
        """(dc_id, country) pairs with at least one leg latency sample."""
        return sorted(self._legs_by_pair())

    def records(self) -> List[CallRecord]:
        """The call rows, materialized as :class:`CallRecord` objects."""
        self._flush()
        configs = list(self._config_index)
        dcs = list(self._dc_index)
        return [
            CallRecord(call_id, configs[config], dcs[dc], start, duration, series)
            for call_id, config, dc, start, duration, series in zip(
                self._call_ids, self._config_code.tolist(), self._dc_code.tolist(),
                self._start_s.tolist(), self._duration_s.tolist(),
                self._series_ids)
        ]
