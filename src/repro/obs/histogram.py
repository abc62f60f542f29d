"""Thread-safe latency histograms with percentile summaries.

The online admission engine and the kvstore both need the same thing the
paper reports for its Redis writes (§6.6): not just a mean, but the
tail — p50/p95/p99.  :class:`LatencyHistogram` is a bounded, thread-safe
sample collector with nearest-rank percentiles; :func:`percentiles_ms`
is the bare helper for code that already holds a sample list.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence

#: The percentile set every report in this repo shows by default.
DEFAULT_PERCENTILES: Sequence[float] = (50.0, 95.0, 99.0)

#: Samples a :class:`LatencyHistogram` retains; later ones count toward
#: ``count`` and ``mean_ms`` only.
MAX_SAMPLES = 1_000_000


def percentiles_ms(samples: Sequence[float],
                   percentiles: Sequence[float] = DEFAULT_PERCENTILES
                   ) -> Dict[str, Optional[float]]:
    """Nearest-rank percentiles as a ``{"p50": .., "count": ..}`` mapping.

    A service that served no traffic has no tail: empty input yields
    ``None`` per percentile (rendered "n/a" downstream), never ``0.0`` —
    an all-zero tail is indistinguishable from genuinely perfect latency
    and has misled consumers before.  ``count`` carries the sample count
    so readers can tell a thin tail from a deep one.
    """
    result: Dict[str, Optional[float]] = {}
    ordered = sorted(samples)
    for p in percentiles:
        label = f"p{p:g}"
        if not ordered:
            result[label] = None
            continue
        rank = max(0, min(len(ordered) - 1,
                          math.ceil(p / 100.0 * len(ordered)) - 1))
        result[label] = float(ordered[rank])
    result["count"] = len(ordered)
    return result


class LatencyHistogram:
    """Append-only bounded sample set, safe to record from any thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._samples: List[float] = []
        self._count = 0
        self._sum = 0.0

    def record(self, latency_ms: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += latency_ms
            if len(self._samples) < MAX_SAMPLES:
                self._samples.append(latency_ms)

    def record_many(self, latencies_ms: Iterable[float]) -> None:
        for value in latencies_ms:
            self.record(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean_ms(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def samples(self) -> List[float]:
        with self._lock:
            return list(self._samples)

    def percentiles(self, percentiles: Sequence[float] = DEFAULT_PERCENTILES
                    ) -> Dict[str, Optional[float]]:
        return percentiles_ms(self.samples(), percentiles)

    def tail_since(self, start_index: int,
                   percentiles: Sequence[float] = DEFAULT_PERCENTILES
                   ) -> Dict[str, Optional[float]]:
        """Percentiles of the samples recorded after ``start_index``.

        The windowed view the autoscaler reads: pair with ``len(self)``
        taken at the previous window boundary.  Only retained samples
        participate (recording stops at :data:`MAX_SAMPLES`)."""
        with self._lock:
            window = self._samples[max(0, start_index):]
        return percentiles_ms(window, percentiles)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one."""
        for value in other.samples():
            self.record(value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)
