"""Scale decisions from telemetry windows.

The policy is a small hysteresis controller over the demand-ratio
estimate — the cumulative observed/forecast ratio since the horizon
start:

* **Reactive scale-out** — overflow pressure above
  :data:`OVERFLOW_PRESSURE_THRESHOLD` forces an immediate scale-out,
  sized to the worse of the estimate and the window's own instantaneous
  demand ratio.  Overflow means real calls on best-effort capacity
  *now*; no deadband applies.
* **Estimate scale-out** — the estimate (plus headroom) exceeding the
  current scale by more than :data:`DEADBAND` triggers a scale-out.
* **Scale-down** — requires the estimate to sit below the deadband for
  ``scale_down_patience`` consecutive windows before shrinking, so a
  single quiet window never thrashes the plan.

Every committed decision starts a cooldown of :data:`COOLDOWN_INTERVALS`
windows during which the policy holds, bounding oscillation frequency
by construction.  Targets are clamped to
[:data:`MIN_SCALE`, :data:`MAX_SCALE`].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import AutoscaleConfig

#: Reactive trigger: a window whose overflowed/generated fraction
#: exceeds this scales out immediately.
OVERFLOW_PRESSURE_THRESHOLD = 0.05

#: Hysteresis: a target must leave ``current_scale * (1 ± DEADBAND)``
#: before a rescale fires.
DEADBAND = 0.15

#: Windows the policy holds after any committed rescale.
COOLDOWN_INTERVALS = 1

#: Clamp on the scale factor: a cold estimate from a near-empty first
#: window must neither zero the plan nor demand a runaway fleet.
MIN_SCALE = 0.25
MAX_SCALE = 8.0


@dataclass(frozen=True)
class ScaleDecision:
    """One policy verdict for one telemetry window."""

    action: str  # "hold" | "scale_out" | "scale_down"
    target_scale: float
    reason: str

    def to_dict(self) -> dict:
        return {"action": self.action,
                "target_scale": round(self.target_scale, 4),
                "reason": self.reason}


class AutoscalePolicy:
    """Turns :class:`~repro.autoscale.telemetry.TelemetryWindow` streams
    into :class:`ScaleDecision` streams, with hysteresis."""

    def __init__(self, config: Optional[AutoscaleConfig] = None):
        self.config = config or AutoscaleConfig()
        #: Demand multiplier the plan is currently provisioned for
        #: (1.0 == the planner's original forecast).
        self.current_scale = 1.0
        self._cooldown = 0
        self._down_streak = 0

    @staticmethod
    def _clamp(scale: float) -> float:
        return min(MAX_SCALE, max(MIN_SCALE, scale))

    def _commit(self, action: str, target: float,
                reason: str) -> ScaleDecision:
        self.current_scale = target
        self._cooldown = COOLDOWN_INTERVALS
        self._down_streak = 0
        return ScaleDecision(action, target, reason)

    def estimate(self, window) -> float:
        """Best available demand-ratio estimate for the road ahead."""
        if window.cumulative_ratio is not None:
            return window.cumulative_ratio
        return self.current_scale

    def decide(self, window) -> ScaleDecision:
        cfg = self.config
        est = self.estimate(window)

        if self._cooldown > 0:
            self._cooldown -= 1
            return ScaleDecision("hold", self.current_scale,
                                 "cooldown after rescale")

        pressure = window.overflow_pressure
        if pressure is not None and pressure > OVERFLOW_PRESSURE_THRESHOLD:
            instantaneous = window.demand_ratio
            sizing = max(est, instantaneous) if instantaneous is not None \
                else est
            target = self._clamp(sizing * (1.0 + cfg.headroom))
            if target > self.current_scale:
                return self._commit(
                    "scale_out", target,
                    f"overflow pressure {pressure:.1%} > "
                    f"{OVERFLOW_PRESSURE_THRESHOLD:.1%}")

        target = self._clamp(est * (1.0 + cfg.headroom))
        if target > self.current_scale * (1.0 + DEADBAND):
            return self._commit(
                "scale_out", target,
                f"demand-ratio estimate {est:.2f} above deadband")
        if target < self.current_scale * (1.0 - DEADBAND):
            self._down_streak += 1
            if self._down_streak >= cfg.scale_down_patience:
                return self._commit(
                    "scale_down", target,
                    f"estimate {est:.2f} below deadband for "
                    f"{cfg.scale_down_patience} windows")
            return ScaleDecision(
                "hold", self.current_scale,
                f"below deadband, patience "
                f"{self._down_streak}/{cfg.scale_down_patience}")
        self._down_streak = 0
        return ScaleDecision("hold", self.current_scale, "within deadband")
