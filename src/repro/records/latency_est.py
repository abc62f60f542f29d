"""Counterfactual latency estimation from call records (§6.2).

The logs only contain the latency for the MP location a call *actually*
used.  To evaluate a different placement, the paper pools leg latencies
across all calls and estimates ``Lat(x, u)`` as the **median** of recorded
latencies for each (DC, country) pair.  This module implements exactly
that, including a fallback for pairs with no telemetry (fill from a
reference physical model), and fabrication of noisy leg measurements from
a ground-truth model so the whole measure -> pool -> estimate loop can be
exercised synthetically.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.errors import RecordError
from repro.records.database import CallRecordsDatabase
from repro.topology.builder import Topology
from repro.topology.latency import LatencyModel, MatrixLatencyModel


def estimate_latency_matrix(db: CallRecordsDatabase,
                            topology: Topology,
                            fallback: Optional[LatencyModel] = None,
                            min_samples: int = 3) -> MatrixLatencyModel:
    """Median-pool leg latencies into a full (DC, country) matrix.

    Pairs with fewer than ``min_samples`` measurements fall back to the
    reference model (default: the topology's own latency model) — in
    production this corresponds to using a network measurement service for
    paths the service has never exercised.
    """
    if min_samples < 1:
        raise RecordError("min_samples must be >= 1")
    reference = fallback if fallback is not None else topology.latency
    medians = db.leg_latency_medians(min_samples)
    matrix: Dict[Tuple[str, str], float] = {}
    for dc_id in topology.fleet.ids:
        for country in topology.world.codes:
            median = medians.get((dc_id, country))
            matrix[(dc_id, country)] = (
                median if median is not None
                else reference.latency_ms(dc_id, country))
    return MatrixLatencyModel(matrix)


def fabricate_leg_latency(truth: LatencyModel, dc_id: str, country: str,
                          rng: np.random.Generator,
                          jitter_frac: float = 0.25) -> float:
    """One noisy leg measurement around the ground-truth latency.

    Real leg latencies scatter around the path latency because of access
    networks and queueing; a lognormal multiplicative jitter keeps the
    median at truth (so median pooling is a consistent estimator — the
    property the paper's §6.2 methodology relies on).
    """
    if jitter_frac < 0:
        raise RecordError("jitter fraction must be non-negative")
    base = truth.latency_ms(dc_id, country)
    noise = float(rng.lognormal(mean=0.0, sigma=jitter_frac))
    return base * noise


def estimation_error_ms(estimated: MatrixLatencyModel,
                        truth: LatencyModel) -> Dict[Tuple[str, str], float]:
    """Absolute per-pair error of the estimate vs ground truth (for tests
    and the data-quality report)."""
    errors = {}
    for dc_id, country in estimated.pairs():
        errors[(dc_id, country)] = abs(
            estimated.latency_ms(dc_id, country) - truth.latency_ms(dc_id, country)
        )
    return errors
