"""Unit conventions and small numeric helpers.

The library uses the following base units everywhere:

* compute: **cores** (the paper provisions MP servers in units of cores);
* network: **Mbps** for per-leg media bitrates, **Gbps** for link capacity;
* server capacity accounting: integer **microcores** — cores quantized
  at the admission boundary (:func:`to_microcores`), so arbitrarily long
  allocate/release sequences can never leak or mint fractional capacity
  the way accumulated float sums do;
* latency: **milliseconds**, one-way (the paper's 120 ms ACL bound is
  one-way, §5.3);
* money: abstract **$ per unit-time**; only relative costs matter because
  every reported number is normalized to the RR baseline.
"""

from __future__ import annotations

MBPS_PER_GBPS = 1000.0

#: Microcores per core: the integer quantum of all capacity accounting.
#: 1e-6 cores is far below any real per-participant load (the smallest in
#: the repo is 0.25 cores), so quantization never changes a decision —
#: it only removes float drift.
MICROCORES_PER_CORE = 1_000_000

#: One-way latency bound on the average call latency (§5.3).
DEFAULT_LATENCY_THRESHOLD_MS = 120.0

#: The config-freeze horizon A of the real-time selector (§6.4): 300 s.
DEFAULT_FREEZE_WINDOW_S = 300.0

#: Provisioning time-slot width used throughout the paper (§5.2).
DEFAULT_SLOT_S = 1800.0


def to_microcores(cores: float) -> int:
    """Quantize a core amount to integer microcores (round-half-even)."""
    return int(round(cores * MICROCORES_PER_CORE))


def from_microcores(mc: int) -> float:
    """The float core value of an integer microcore amount."""
    return mc / MICROCORES_PER_CORE


def mbps_to_gbps(mbps: float) -> float:
    """Convert megabits/s to gigabits/s."""
    return mbps / MBPS_PER_GBPS


def gbps_to_mbps(gbps: float) -> float:
    """Convert gigabits/s to megabits/s."""
    return gbps * MBPS_PER_GBPS


def normalize(values, baseline: float):
    """Normalize a sequence of values by ``baseline``.

    Used to report results "normalized to RR" as in Tables 3 and 4.  A zero
    baseline would silently blow up downstream, so it is rejected.
    """
    if baseline == 0:
        raise ZeroDivisionError("cannot normalize by a zero baseline")
    return [value / baseline for value in values]


def approx_equal(a: float, b: float, rel: float = 1e-6, abs_tol: float = 1e-9) -> bool:
    """Symmetric float comparison used by internal consistency checks."""
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))
