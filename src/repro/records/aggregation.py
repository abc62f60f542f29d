"""Bridging traces, records, and demand matrices.

Utilities to (a) pour a synthetic :class:`CallTrace` into the records
database — fabricating noisy leg latencies on the way, as real telemetry
would — and (b) turn database contents back into the ``Demand`` matrices
the provisioning LP consumes, restricted to the top-N configs with an
inflation *cushion* for the uncovered tail (§5.2).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.errors import RecordError
from repro.core.types import CallConfig, make_slots
from repro.records.database import CallRecordsDatabase
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand
from repro.workload.columnar import ColumnarTrace
from repro.workload.trace import CallTrace


def ingest_trace(db: CallRecordsDatabase,
                 trace: "CallTrace | ColumnarTrace", topology: Topology,
                 dc_of_call=None, seed: int = 47,
                 latency_jitter_frac: float = 0.25,
                 freeze_after_s: Optional[float] = None) -> None:
    """Ingest every call of a trace, fabricating leg telemetry.

    ``dc_of_call`` maps a call to the DC that hosted it; the default hosts
    each call at the DC closest to its first joiner, which is what the
    pre-Switchboard production system would have recorded.

    ``freeze_after_s`` records the config as observed at the §5.4 freeze
    point instead of the final config — pass the controller's A (300 s)
    when the records feed plans the real-time selector will reconcile
    against, so the plan's config keys match what the selector sees.

    The whole trace is appended as one chunk of columns: an object
    :class:`CallTrace` is columnarized first (its ``series_id`` carried
    along).  Each leg's latency is the ground-truth path latency times a
    lognormal jitter, drawn for all legs at once in call-major,
    ``config.spread`` order — the same stream, bit for bit, as one
    :func:`~repro.records.latency_est.fabricate_leg_latency` call per leg.
    """
    if latency_jitter_frac < 0:
        raise RecordError("jitter fraction must be non-negative")
    if isinstance(trace, ColumnarTrace):
        columnar = trace
        series_ids = [None] * trace.n_calls
    else:
        columnar = ColumnarTrace.from_trace(trace)
        series_ids = [call.series_id for call in trace]
    configs, config_code = columnar.config_table(freeze_after_s)
    countries = columnar.countries.values

    if dc_of_call is None:
        # closest_dc is a pure country -> DC map: a table with one entry
        # per country, coded by the first joiner's country.
        dcs = [topology.closest_dc(country) for country in countries]
        dc_code = columnar.first_country_codes()
    else:
        hosts: dict = {}
        dc_code = np.array([hosts.setdefault(dc_of_call(call), len(hosts))
                            for call in trace], dtype=np.int64)
        dcs = list(hosts)

    # Per-config leg layout: one country code per participant in
    # config.spread order, config k at layout[layout_start[k]:...].
    country_code = {country: code for code, country in enumerate(countries)}
    layout = np.array([country_code[country] for config in configs
                       for country in config.participants()], dtype=np.int64)
    legs_per_config = np.array([c.participant_count for c in configs],
                               dtype=np.int64)
    layout_start = np.cumsum(legs_per_config) - legs_per_config
    legs_per_call = legs_per_config[config_code]
    call_start = np.cumsum(legs_per_call) - legs_per_call
    n_legs = int(legs_per_call.sum())
    leg_country = layout[np.repeat(layout_start[config_code] - call_start,
                                   legs_per_call) + np.arange(n_legs)]

    # Dense (dc code, country) key per leg -> the keys that occur, coded
    # in key order, and the ground-truth latency of each.
    leg_key = np.repeat(dc_code, legs_per_call) * len(countries) + leg_country
    used = np.flatnonzero(np.bincount(leg_key, minlength=len(dcs) * len(countries)))
    pairs = [(dcs[key // len(countries)], countries[key % len(countries)])
             for key in used.tolist()]
    truth_ms = np.array([topology.latency.latency_ms(dc_id, country)
                         for dc_id, country in pairs], dtype=np.float64)
    leg_pair_code = np.searchsorted(used, leg_key)
    jitter = np.random.default_rng(seed).lognormal(
        mean=0.0, sigma=latency_jitter_frac, size=n_legs)

    db.append(
        call_ids=columnar.call_ids(), series_ids=series_ids,
        start_s=columnar.start_s, duration_s=columnar.duration_s,
        configs=configs, config_code=config_code, dcs=dcs, dc_code=dc_code,
        pairs=pairs, leg_pair_code=leg_pair_code,
        leg_latency_ms=truth_ms[leg_pair_code] * jitter,
    )


def demand_from_database(db: CallRecordsDatabase,
                         configs: Optional[Sequence[CallConfig]] = None,
                         n_buckets: Optional[int] = None) -> Demand:
    """``D_tc`` over the database's bucket grid for the given configs.

    ``n_buckets`` pads (or truncates) the grid to a fixed length — useful
    to keep the grid aligned to whole days even when the final buckets of
    the history saw no calls.
    """
    chosen = list(configs) if configs is not None else db.configs()
    if not chosen:
        raise RecordError("no configs to aggregate")
    counts = db.timeseries_matrix(chosen)
    if n_buckets is not None:
        if n_buckets < 1:
            raise RecordError("n_buckets must be >= 1")
        if n_buckets > counts.shape[0]:
            pad = np.zeros((n_buckets - counts.shape[0], counts.shape[1]))
            counts = np.vstack([counts, pad])
        else:
            counts = counts[:n_buckets]
        slots = make_slots(n_buckets * db.bucket_s, db.bucket_s)
    else:
        slots = db.slots()
    return Demand(slots, chosen, counts)


def cushion_factor(db: CallRecordsDatabase, configs: Sequence[CallConfig]) -> float:
    """Inflation factor compensating for configs outside the top-N (§5.2).

    The paper provisions only for the top ~1% of configs, then inflates by
    a cushion "estimated by comparing forecast-based projections with the
    ground truth in a validation dataset".  The first-order cushion is the
    inverse of the call-count coverage of the chosen configs: if the top-N
    cover 93% of calls, provision 1/0.93 of their resources.
    """
    coverage = db.coverage_of(configs)
    if coverage <= 0:
        raise RecordError("chosen configs cover no calls")
    return 1.0 / coverage
