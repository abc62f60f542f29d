"""Peak-participant prediction from the frozen call config.

The §5.4 config freeze counts only the participants who joined within
the first ``A`` seconds; late joiners keep arriving after it (Fig 8's
join CDF has a long tail).  A packer that sizes a call by its *frozen*
config therefore under-reserves, and the shortfall surfaces as server
overload exactly when the fleet is tight.  Tetris-style packing instead
sizes calls by their **predicted peak** participant count.

The predictor here inverts the empirical join curve: if, for media type
``m``, a fraction ``F_m(A)`` of a call's eventual participants have
joined by the freeze point, then a call frozen at ``k`` participants has
an expected peak of ``k / F_m(A)``.  ``F_m`` is fitted per media type
from a training trace (the same logistic-growth view of attendance the
MOMC/LR predictor takes per member, collapsed to the call level), with a
pseudocount prior so thin training slices degrade gracefully toward the
global curve instead of exploding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.core.errors import ForecastError
from repro.core.types import Call, CallConfig, MediaType
from repro.core.units import DEFAULT_FREEZE_WINDOW_S

#: Prior pseudo-observations pulling a thin per-media estimate toward the
#: global join fraction (Bayesian shrinkage; irrelevant once a media type
#: has a few hundred training participants).
_PRIOR_STRENGTH = 50.0


@dataclass
class PeakParticipantPredictor:
    """Predicts a call's peak participant count from its frozen config.

    ``fit`` learns the per-media joined-by-freeze fraction from complete
    historical calls; ``predict_peak`` inverts it.  An unfitted predictor
    (or an unseen media type) falls back to ``default_fraction`` — a
    conservative global prior — so the packing path never fails on a
    cold start.
    """

    freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S
    default_fraction: float = 0.9
    _fraction: Dict[MediaType, float] = field(default_factory=dict)
    _n_calls: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.default_fraction <= 1:
            raise ForecastError("default_fraction must be in (0, 1]")
        if self.freeze_window_s <= 0:
            raise ForecastError("freeze window must be positive")

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, calls: Iterable[Call]) -> "PeakParticipantPredictor":
        """Fit per-media join fractions from complete historical calls."""
        frozen: Dict[MediaType, float] = {}
        total: Dict[MediaType, float] = {}
        n_calls = 0
        all_frozen = 0.0
        all_total = 0.0
        for call in calls:
            if not call.participants:
                continue
            media = call.media
            k = sum(1 for p in call.participants
                    if p.join_offset_s <= self.freeze_window_s)
            n = len(call.participants)
            frozen[media] = frozen.get(media, 0.0) + k
            total[media] = total.get(media, 0.0) + n
            all_frozen += k
            all_total += n
            n_calls += 1
        if n_calls == 0:
            raise ForecastError("no training calls with participants")
        global_fraction = all_frozen / all_total
        self._fraction = {
            media: ((frozen[media] + _PRIOR_STRENGTH * global_fraction)
                    / (total[media] + _PRIOR_STRENGTH))
            for media in total
        }
        self._n_calls = n_calls
        return self

    @property
    def fitted(self) -> bool:
        return bool(self._fraction)

    def joined_fraction(self, media: MediaType) -> float:
        """F_m(A): expected fraction of peak present at the freeze."""
        fraction = self._fraction.get(media, self.default_fraction)
        # A fraction can never exceed 1 (nobody un-joins before freeze in
        # the peak sense used here) nor reach 0.
        return min(1.0, max(1e-3, fraction))

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict_peak(self, config: CallConfig) -> int:
        """Predicted peak participant count for a call frozen at
        ``config``; never below the frozen count itself."""
        frozen_count = config.participant_count
        fraction = self.joined_fraction(config.media)
        peak = frozen_count / fraction
        return max(frozen_count, int(math.ceil(peak - 1e-9)))


def fit_peak_predictor(calls: Iterable[Call],
                       freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S,
                       ) -> PeakParticipantPredictor:
    """Convenience: a fitted predictor in one call."""
    predictor = PeakParticipantPredictor(freeze_window_s=freeze_window_s)
    return predictor.fit(calls)


def peak_predictor_or_default(
        calls: Optional[Iterable[Call]] = None,
        freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S,
        ) -> PeakParticipantPredictor:
    """A fitted predictor when history exists, the prior otherwise."""
    if calls is not None:
        try:
            return fit_peak_predictor(calls, freeze_window_s)
        except ForecastError:
            pass
    return PeakParticipantPredictor(freeze_window_s=freeze_window_s)
