"""What one admission-engine run reports.

The accounting is deliberately exact: every generated call must end up
in exactly one of ``admitted`` (stayed at its initial DC with a plan
slot, or was never reconciled because it legitimately ended early —
still settled at its freeze point), ``migrated`` (moved at the freeze),
or ``overflowed`` (plan slots exhausted; served at the initial DC
anyway).  ``accounting_exact`` is the invariant the ``drills`` CI job's
``service`` entries enforce — a dropped or unsettled call is a serving
bug, not noise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.errors import SwitchboardError

#: Version of the ``ServiceReport.to_dict()`` wire format.  Bump when a
#: key is added, removed, or changes meaning — the CI artifacts and any
#: downstream consumer key their parsing off this field.
#:
#: History:
#:   1 — unversioned dict (pre-ServiceRuntime).
#:   2 — adds ``schema_version`` and ``executor``; keys are emitted in
#:       stable sorted order (nested dicts included) so artifacts diff
#:       cleanly across runs.
#:   3 — adds the live-migration block: ``live_migrated_calls``,
#:       ``disrupted_calls``, ``migration_batches``,
#:       ``migration_latency_ms``, and the nested ``migration`` metrics
#:       dict (``repro.migrate``); the packing block gains
#:       ``live_moves``.
REPORT_SCHEMA_VERSION = 3


def _fmt_tail(tail: Dict[str, Optional[float]],
              keys=("p50", "p95", "p99")) -> str:
    """Render a percentile dict, showing ``n/a`` for empty samples.

    ``percentiles_ms`` reports ``None`` per percentile (plus a ``count``
    key) when no samples were recorded — rendering that as 0.00 would
    read as a perfect latency tail.
    """
    return " ".join(
        f"{key}={tail[key]:.2f}" if tail.get(key) is not None
        else f"{key}=n/a"
        for key in keys
    )


@dataclass
class ServiceReport:
    """Counters + latency tails of one :class:`AdmissionEngine` run."""

    n_workers: int
    n_shards: int
    executor: str = "thread"

    # Event counters.
    events_total: int = 0
    events_processed: int = 0
    dropped_events: int = 0
    joins: int = 0
    media_changes: int = 0

    # Call accounting (the exact partition).
    generated_calls: int = 0
    admitted_calls: int = 0
    migrated_calls: int = 0
    overflowed_calls: int = 0
    unplanned_calls: int = 0   # subset tag: fallback-placed (may overlap)
    early_ended_calls: int = 0  # ended before their freeze point
    ended_calls: int = 0
    unsettled_calls: int = 0

    # Server-level packing (zeroes when admission runs at DC granularity).
    # Defrag moves are *within-DC server* moves of already-settled calls:
    # a distinct accounting category that must never be folded into
    # ``migrated_calls`` — it is not part of the call partition at all.
    defrag_migrated_calls: int = 0
    defrag_rounds: int = 0
    frag_slots_lost: int = 0   # allocatable-slots-lost at end of run
    packing: Dict[str, object] = field(default_factory=dict)

    # Closed-loop autoscaling (zeroes/empty when no rescaler was bound).
    rescale_events: int = 0
    autoscale: Dict[str, object] = field(default_factory=dict)

    # Live cross-DC migration (zeroes/empty when no migrator was bound).
    # Like defrag moves, these are *placement* events on already-settled
    # calls — a separate category never folded into ``migrated_calls``,
    # so the exact-accounting partition is untouched.  ``disrupted``
    # counts calls a drain could find no feasible destination for; they
    # are recorded, never silently dropped.
    live_migrated_calls: int = 0
    disrupted_calls: int = 0
    migration_batches: int = 0
    migration_latency_ms: Dict[str, Optional[float]] = field(
        default_factory=dict)
    migration: Dict[str, object] = field(default_factory=dict)

    # Throughput.
    wall_time_s: float = 0.0
    events_per_s: float = 0.0

    # Latency tails (ms): admission = CALL_START handling, which is the
    # initial-DC decision (START's store writes queue behind the next
    # settle, so it waits on no store trip); settle = CONFIG_FREEZE
    # reconciliation, including any queued call-side writes its store
    # trip carries; kv = simulated store round-trips.
    # Values are None (rendered "n/a") when no samples were recorded;
    # the "count" key always carries the sample count.
    admission_latency_ms: Dict[str, Optional[float]] = field(
        default_factory=dict)
    settle_latency_ms: Dict[str, Optional[float]] = field(
        default_factory=dict)
    kv_latency_ms: Dict[str, Optional[float]] = field(default_factory=dict)
    kv_op_count: int = 0

    # Selector-level quality (same semantics as the day replay).
    migration_rate: float = 0.0
    mean_acl_ms: float = 0.0

    @property
    def settled_calls(self) -> int:
        return self.admitted_calls + self.migrated_calls + self.overflowed_calls

    @property
    def accounting_exact(self) -> bool:
        """admitted + migrated + overflowed == generated, nothing lost."""
        return (self.settled_calls == self.generated_calls
                and self.unsettled_calls == 0
                and self.dropped_events == 0)

    def require_exact_accounting(self) -> None:
        """Raise with a diagnosis when any call went unaccounted."""
        if not self.accounting_exact:
            raise SwitchboardError(
                f"service accounting broken: generated={self.generated_calls} "
                f"!= admitted={self.admitted_calls} + "
                f"migrated={self.migrated_calls} + "
                f"overflowed={self.overflowed_calls} "
                f"(unsettled={self.unsettled_calls}, "
                f"dropped={self.dropped_events})"
            )

    def summary(self) -> str:
        if self.settled_calls > 0:
            quality = (f"  migration rate {self.migration_rate:.2%}, "
                       f"mean ACL {self.mean_acl_ms:.1f} ms")
        else:
            quality = "  migration rate n/a, mean ACL n/a (no settled calls)"
        lines = [
            f"admission service: {self.n_workers} workers over "
            f"{self.n_shards} kv shards",
            f"  events: {self.events_processed}/{self.events_total} "
            f"processed ({self.dropped_events} dropped) in "
            f"{self.wall_time_s:.2f}s -> {self.events_per_s:,.0f} events/s",
            f"  calls: {self.generated_calls} generated = "
            f"{self.admitted_calls} admitted + {self.migrated_calls} "
            f"migrated + {self.overflowed_calls} overflowed "
            f"({self.unplanned_calls} unplanned, "
            f"{self.early_ended_calls} ended pre-freeze)",
            f"  admission latency ms: {_fmt_tail(self.admission_latency_ms)}",
            f"  kv: {self.kv_op_count} ops, trip ms "
            f"{_fmt_tail(self.kv_latency_ms)}",
            quality,
            f"  accounting exact: {self.accounting_exact}",
        ]
        if self.packing:
            lines.append(
                f"  packing[{self.packing.get('policy', '?')}]: "
                f"{self.packing.get('servers_used_peak', 0)} peak servers, "
                f"{self.defrag_migrated_calls} defrag moves over "
                f"{self.defrag_rounds} rounds, "
                f"{self.frag_slots_lost} frag slots lost"
            )
        if self.autoscale:
            lines.append(
                f"  autoscale: {self.rescale_events} rescales "
                f"({self.autoscale.get('scale_ups', 0)} up / "
                f"{self.autoscale.get('scale_downs', 0)} down) -> "
                f"{self.autoscale.get('final_scale', 1.0)}x, "
                f"{self.autoscale.get('capacity_core_hours', 0.0)} "
                f"core-hours provisioned"
            )
        if self.migration:
            drained = ", ".join(self.migration.get("drained_dcs", [])) or "-"
            lines.append(
                f"  migration: {self.live_migrated_calls} live moves + "
                f"{self.disrupted_calls} disrupted over "
                f"{self.migration_batches} batches (drained {drained}), "
                f"move ms {_fmt_tail(self.migration_latency_ms)}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly dump (the CI artifact), schema-versioned.

        Keys are emitted in sorted order — nested dicts too — so two
        artifacts from different runs (or executors) diff line by line.
        ``schema_version`` always comes first; see
        :data:`REPORT_SCHEMA_VERSION` for the change history.
        """
        payload = dataclasses.asdict(self)
        payload["accounting_exact"] = self.accounting_exact
        if self.settled_calls == 0:
            # None, not 0.0, when nothing settled: a 0.0 migration rate
            # over zero calls would read as a perfect day.
            payload["migration_rate"] = payload["mean_acl_ms"] = None

        def stable(value):
            if isinstance(value, dict):
                return {key: stable(value[key]) for key in sorted(value)}
            return value

        out = {"schema_version": REPORT_SCHEMA_VERSION}
        out.update(stable(payload))
        return out
