"""The unified planner configuration: one frozen object, every knob.

:class:`Switchboard` historically grew one keyword per feature
(``latency_threshold_ms``, ``max_link_scenarios``, ``backup_method``,
``background``, ``dc_core_limits``) — sprawl that
:class:`~repro.switchboard.SwitchboardPipeline` could not even pass
through.  :class:`PlannerConfig` consolidates them, adds the resilience
knobs (timeouts, retries, backoff, fault injection), and travels as a
single immutable value:

>>> from repro import PlannerConfig, Switchboard, Topology
>>> config = PlannerConfig(backup_method="max", solve_timeout_s=30.0)
>>> controller = Switchboard(Topology.default(), config=config)

``dataclasses.replace`` (or :meth:`PlannerConfig.but`) derives variants::

    fast = config.but(backup_method="incremental", solve_retries=0)
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from repro.core.errors import SwitchboardError
from repro.core.units import DEFAULT_LATENCY_THRESHOLD_MS

if TYPE_CHECKING:
    # Annotation-only: importing the faults module at runtime would pull
    # in the whole resilience package, which itself needs this module.
    from repro.provisioning.background import BackgroundTraffic
    from repro.resilience.faults import FaultPlan

#: Methods plan_with_backup understands, i.e. valid non-terminal rungs.
BACKUP_METHODS = ("joint", "incremental", "max")

#: The degradation ladder, most faithful first.  ``locality`` is the
#: LP-free terminal rung that can always produce *a* plan.  The order is
#: a design decision, not a knob: provisioning enters it at
#: ``backup_method`` and only ever walks down.
DEFAULT_LADDER: Tuple[str, ...] = ("joint", "max", "incremental", "locality")


#: Arms the solver portfolio can race, in the canonical cheap-first order.
PORTFOLIO_ARMS = ("locality", "exact")


def _require_finite(**values: Optional[float]) -> None:
    """Refuse NaN and +-inf in a config float (``None`` means "off" and
    passes).  NaN slips through every ``<``/``<=`` range check, so each
    float field that needs a finite value goes through here first."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise SwitchboardError(f"{name} must be finite, got {value!r}")


def checked_core_limits(limits: Optional[Mapping[str, float]],
                        error: type = SwitchboardError) -> Dict[str, float]:
    """``limits`` as a plain dict, refusing any cap that is negative or
    not finite (raised as ``error``).

    Such a cap is no capacity at all: an LP would read it as "DC unusable"
    or as an infeasible scenario depending on how the cap meets its base,
    and the degradation ladder would hide either behind a fallback rung.
    The configuration and the provisioning LP both reject it up front.
    """
    caps = dict(limits) if limits else {}
    for dc_id, cap in caps.items():
        if not math.isfinite(cap) or cap < 0:
            raise error(f"dc_core_limits[{dc_id!r}] = {cap!r}: a core cap "
                        f"must be finite and >= 0")
    return caps


@dataclass(frozen=True)
class PortfolioConfig:
    """Knobs of the raced scenario sweep.

    * ``arms`` — race lineup for each empty-base scenario solve, run in
      the given order (cheapest bound first).  A plan is accepted the
      moment an arm's upper bound is within ``gap`` of the best known
      lower bound; the ``exact`` arm always satisfies that (gap 0), so
      lineups ending in ``exact`` return plans within ``gap`` of the
      optimum on *every* scenario.
    * ``gap`` — the relative optimality gap the race accepts.

    Structurally identical failure scenarios (same surviving-option
    sets) are always collapsed before the sweep and fanned back out.
    Warm starts are not a portfolio knob: every solve goes through the
    warm cache the planner is handed (one per
    :class:`~repro.switchboard.Switchboard`), whose duals also tighten
    the race's lower bounds.
    """

    arms: Tuple[str, ...] = PORTFOLIO_ARMS
    gap: float = 0.02

    def __post_init__(self):
        _require_finite(gap=self.gap)
        if not self.arms:
            raise SwitchboardError("portfolio arms cannot be empty")
        for arm in self.arms:
            if arm not in PORTFOLIO_ARMS:
                raise SwitchboardError(
                    f"unknown portfolio arm {arm!r}; "
                    f"expected one of {PORTFOLIO_ARMS}"
                )
        if self.gap < 0:
            raise SwitchboardError("portfolio gap must be >= 0")

    def but(self, **overrides: Any) -> "PortfolioConfig":
        """A copy with the given fields replaced (frozen-friendly)."""
        return dataclasses.replace(self, **overrides)


#: Execution models the admission service supports.
SERVICE_EXECUTORS = ("thread", "process")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the online admission service (``repro.service``).

    * ``n_shards`` — kvstore shards behind the consistent-hash ring.
    * ``n_workers`` — admission worker threads (calls shard over them by
      call id; per-call event order is preserved).  With one worker the
      engine is fully deterministic and matches
      ``RealTimeSelector.process_trace`` over the same calls.
    * ``kv_latency_median_ms`` — median simulated per-trip store latency
      (``None`` disables latency simulation; the paper measures
      0.3–4.2 ms per write, §6.6).
    * ``kv_latency_seed`` — seeds the per-shard latency streams.
    * ``executor`` — how admission workers run: ``"thread"`` (the
      in-process engine; deterministic oracle at ``n_workers=1``) or
      ``"process"`` (``repro.service.mp``: one OS process per worker fed
      call partitions over shared-memory columnar segments, so serving
      scales past the GIL).  Selected by
      :meth:`repro.service.ServiceRuntime.from_config`.
    """

    n_shards: int = 4
    n_workers: int = 1
    kv_latency_median_ms: Optional[float] = None
    kv_latency_seed: int = 99
    executor: str = "thread"

    def __post_init__(self):
        _require_finite(kv_latency_median_ms=self.kv_latency_median_ms)
        if self.n_shards < 1:
            raise SwitchboardError("n_shards must be >= 1")
        if self.n_workers < 1:
            raise SwitchboardError("n_workers must be >= 1")
        if self.executor not in SERVICE_EXECUTORS:
            raise SwitchboardError(
                f"unknown service executor {self.executor!r}; "
                f"expected one of {SERVICE_EXECUTORS}"
            )
        if (self.kv_latency_median_ms is not None
                and self.kv_latency_median_ms <= 0):
            raise SwitchboardError("kv_latency_median_ms must be positive")

    def but(self, **overrides: Any) -> "ServiceConfig":
        """A copy with the given fields replaced (frozen-friendly)."""
        return dataclasses.replace(self, **overrides)


#: Server-selection policies ``repro.packing`` registers.
PACKING_POLICIES = ("first_fit", "predictive")


@dataclass(frozen=True)
class PackingConfig:
    """Knobs of intra-DC server-level call packing (``repro.packing``).

    * ``policy`` — server-selection/sizing policy: ``first_fit`` |
      ``predictive`` (Tetris-style predicted-peak sizing, best-fit
      selection).
    * ``utilization_target`` — the fraction of each MP server
      (:data:`~repro.packing.ledger.DEFAULT_SERVER_CORES`) placement may
      commit; the rest absorbs post-freeze growth.
    * ``defrag_interval_s`` — run a defrag round between event batches of
      this width; ``None`` disables online defragmentation.

    A call that outgrows its server is always moved to one that fits;
    the defrag round budget and donor threshold are the
    :class:`~repro.packing.defrag.Defragmenter` defaults.
    """

    policy: str = "predictive"
    utilization_target: float = 0.9
    defrag_interval_s: Optional[float] = 3600.0

    def __post_init__(self):
        _require_finite(defrag_interval_s=self.defrag_interval_s)
        if self.policy not in PACKING_POLICIES:
            raise SwitchboardError(
                f"unknown packing policy {self.policy!r}; "
                f"expected one of {PACKING_POLICIES}"
            )
        if not 0 < self.utilization_target <= 1:
            raise SwitchboardError("utilization_target must be in (0, 1]")
        if (self.defrag_interval_s is not None
                and self.defrag_interval_s <= 0):
            raise SwitchboardError("defrag_interval_s must be positive")

    def but(self, **overrides: Any) -> "PackingConfig":
        """A copy with the given fields replaced (frozen-friendly)."""
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class AutoscaleConfig:
    """Knobs of the closed-loop autoscaler (``repro.autoscale``).

    * ``interval_s`` — telemetry window width; the engine reports serving
      state at this cadence and every window yields one scale decision
      plus a rolling capacity refresh.
    * ``headroom`` — fractional cushion added on top of the estimated
      demand ratio when sizing a scale target.
    * ``scale_down_patience`` — consecutive below-band windows required
      before scaling down (scale-out is never delayed).

    The hysteresis band, cooldown, scale clamp and overflow trigger are
    constants of :mod:`repro.autoscale.policy`; the rolling refresh
    horizon is one of :mod:`repro.autoscale.controller`.
    """

    interval_s: float = 1800.0
    headroom: float = 0.10
    scale_down_patience: int = 2

    def __post_init__(self):
        _require_finite(interval_s=self.interval_s, headroom=self.headroom)
        if self.interval_s <= 0:
            raise SwitchboardError("interval_s must be positive")
        if self.headroom < 0:
            raise SwitchboardError("headroom must be >= 0")
        if self.scale_down_patience < 1:
            raise SwitchboardError("scale_down_patience must be >= 1")

    def but(self, **overrides: Any) -> "AutoscaleConfig":
        """A copy with the given fields replaced (frozen-friendly)."""
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class MigrationConfig:
    """Knobs of live cross-DC call migration (``repro.migrate``).

    * ``interval_s`` — the migration batch window: the executor drains
      affected calls at this cadence on the engine's window barrier
      (the same quiescent point defrag and rescale use).
    * ``max_moves_per_window`` — move budget per batch window; bounding
      the batch keeps a drain from monopolizing the barrier.
    * ``disruption_ceiling`` — declared invariant for drills: the
      disrupted/generated fraction a DC-loss experiment may not exceed.
    """

    interval_s: float = 900.0
    max_moves_per_window: int = 64
    disruption_ceiling: float = 0.25

    def __post_init__(self):
        _require_finite(interval_s=self.interval_s)
        if self.interval_s <= 0:
            raise SwitchboardError("interval_s must be positive")
        if self.max_moves_per_window < 1:
            raise SwitchboardError("max_moves_per_window must be >= 1")
        if not 0 <= self.disruption_ceiling <= 1:
            raise SwitchboardError("disruption_ceiling must be in [0, 1]")

    def but(self, **overrides: Any) -> "MigrationConfig":
        """A copy with the given fields replaced (frozen-friendly)."""
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class PlannerConfig:
    """Every provisioning/allocation/resilience knob in one frozen value.

    Provisioning:

    * ``latency_threshold_ms`` — Eq 4's ACL ceiling for placement options.
    * ``max_link_scenarios`` — cap on WAN-link failure scenarios
      (``None`` = all non-bridge links, ``0`` = DC failures only).  The
      ``None`` default is expensive: on the default experiment scenario
      (``build_scenario("default")``) all links make 93 scenarios and
      one 375,398 × 662,948 joint LP, solved in 28.5 s on a 2-vCPU VM
      against 4.6 s at 3 links; on the test-fixture day it is a 180 s
      solve.  Every caller in this repository passes 0, 2 or 3.
    * ``backup_method`` — the rung of :data:`DEFAULT_LADDER`
      provisioning *starts* at (``joint`` | ``incremental`` | ``max``).
    * ``background`` — non-conferencing link traffic folded into peaks.
    * ``dc_core_limits`` — per-DC core caps (regional exhaustion).

    The ``max`` sweep solves on one thread per usable CPU; that is not a
    knob (:func:`~repro.provisioning.planner.usable_cpus`).

    Resilience:

    * ``solve_timeout_s`` — wall-clock budget per supervised solve
      attempt, shared by its HiGHS calls; assembly uses it up but falls
      outside HiGHS's limit (``None`` = none); a deployment setting.
    * ``solve_retries`` — additional attempts after the first failure.
    * ``retry_backoff_s`` — base delay before a retry, doubled per retry
      and jittered by :mod:`repro.resilience.supervisor`; a deployment
      setting.
    * ``fault_plan`` — injected faults for drills/tests (``None`` = none).

    Persistent failure walks :data:`DEFAULT_LADDER` down from
    ``backup_method``'s rung (:meth:`provisioning_ladder`).

    Serving:

    * ``service`` — online admission service knobs
      (:class:`ServiceConfig`); ``None`` means the service-backed paths
      use :class:`ServiceConfig`'s defaults.
    * ``autoscale`` — the :class:`AutoscaleConfig` that
      :meth:`~repro.switchboard.SwitchboardPipeline.autoscaler` builds
      its autoscaler with (``None`` = the defaults); the storm drills
      pass their own to :class:`~repro.autoscale.Autoscaler`.
    """

    latency_threshold_ms: float = DEFAULT_LATENCY_THRESHOLD_MS
    max_link_scenarios: Optional[int] = None
    backup_method: str = "joint"
    background: Optional["BackgroundTraffic"] = None
    dc_core_limits: Optional[Mapping[str, float]] = None
    solve_timeout_s: Optional[float] = None
    solve_retries: int = 2
    retry_backoff_s: float = 0.05
    fault_plan: Optional[FaultPlan] = None
    service: Optional[ServiceConfig] = None
    autoscale: Optional[AutoscaleConfig] = None
    #: Arm-racing / dedup knobs (:class:`PortfolioConfig`); ``None``
    #: solves every scenario with the exact LP.
    portfolio: Optional[PortfolioConfig] = None

    def __post_init__(self):
        _require_finite(latency_threshold_ms=self.latency_threshold_ms,
                        solve_timeout_s=self.solve_timeout_s,
                        retry_backoff_s=self.retry_backoff_s)
        if self.backup_method not in BACKUP_METHODS:
            raise SwitchboardError(
                f"unknown backup_method {self.backup_method!r}; "
                f"expected one of {BACKUP_METHODS}"
            )
        if self.solve_retries < 0:
            raise SwitchboardError("solve_retries must be >= 0")
        if self.solve_timeout_s is not None and self.solve_timeout_s <= 0:
            raise SwitchboardError("solve_timeout_s must be positive")
        if self.retry_backoff_s < 0:
            raise SwitchboardError("retry_backoff_s must be non-negative")
        checked_core_limits(self.dc_core_limits)

    def but(self, **overrides: Any) -> "PlannerConfig":
        """A copy with the given fields replaced (frozen-friendly)."""
        return dataclasses.replace(self, **overrides)

    def provisioning_ladder(self) -> Tuple[str, ...]:
        """The rungs provisioning walks: :data:`DEFAULT_LADDER` from
        ``backup_method`` down (never escalating back *up* to a more
        expensive method)."""
        return DEFAULT_LADDER[DEFAULT_LADDER.index(self.backup_method):]
