"""Server-selection policies for intra-DC call packing.

A policy answers two questions for every incoming call:

* **sizing** — how many cores to reserve (``size_mc``); classic policies
  reserve the frozen config's observed load, the Tetris-style
  :class:`PredictivePack` reserves the *predicted peak* load so the call
  never outgrows its server;
* **selection** — which server hosts it (``select``), scored over the
  whole fleet's free-capacity vector in one numpy pass (the admission
  hot path runs this per call, so no Python-level loop over servers).

All capacity amounts are integer microcores
(:func:`repro.core.units.to_microcores`), so scoring and the ledgers'
compare-and-take debits agree exactly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.core.errors import CapacityError
from repro.core.types import CallConfig
from repro.core.units import to_microcores
from repro.prediction.peak import PeakParticipantPredictor
from repro.workload.media import MediaLoadModel


class PackingPolicy(ABC):
    """Sizing + server selection for one DC's fleet."""

    #: Registry name (PlannerConfig's ``packing.policy`` knob).
    name: str = "abstract"

    def __init__(self, load_model: Optional[MediaLoadModel] = None):
        self.load_model = (load_model if load_model is not None
                           else MediaLoadModel())

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def size_mc(self, config: CallConfig) -> int:
        """Microcores to reserve for a call frozen at ``config``.

        The default is the observed load of the frozen config; policies
        with foresight override this.
        """
        return to_microcores(self.load_model.call_cores(config))

    def growth_mc_of(self, media) -> int:
        """Microcores one *additional* (post-freeze) participant of
        ``media`` adds (the ledger tracks media per call)."""
        return to_microcores(self.load_model.compute_load(media))

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    @abstractmethod
    def select(self, free_mc: np.ndarray, need_mc: int) -> int:
        """Index of the chosen server, or ``-1`` when nothing fits.

        ``free_mc`` is the fleet's free-capacity vector (int64, one entry
        per server, in stable server order).
        """


class FirstFit(PackingPolicy):
    """Lowest-indexed server with room — the classic baseline.

    Sizes by the observed frozen config; late joiners can therefore
    overload a tightly packed server.
    """

    name = "first_fit"

    def select(self, free_mc: np.ndarray, need_mc: int) -> int:
        fits = free_mc >= need_mc
        if not fits.any():
            return -1
        return int(np.argmax(fits))


class PredictivePack(PackingPolicy):
    """Tetris-style packing: best-fit selection, *predicted-peak* sizing.

    Each call is reserved at the peak participant count the
    :class:`~repro.prediction.peak.PeakParticipantPredictor` expects, so
    post-freeze joiners land in capacity that was already set aside —
    no overload, no reactive rebalance churn, and therefore less
    fragmentation than reserving the frozen size and repairing later.
    """

    name = "predictive"

    def __init__(self, load_model: Optional[MediaLoadModel] = None,
                 predictor: Optional[PeakParticipantPredictor] = None):
        super().__init__(load_model)
        self.predictor = (predictor if predictor is not None
                          else PeakParticipantPredictor())

    def size_mc(self, config: CallConfig) -> int:
        peak = self.predictor.predict_peak(config)
        per_participant = self.load_model.compute_load(config.media)
        return to_microcores(per_participant * peak)

    def select(self, free_mc: np.ndarray, need_mc: int) -> int:
        """Fitting server with the least residual capacity (tightest
        fill), which leaves the smallest free-capacity sliver behind."""
        residual = free_mc - need_mc
        residual = np.where(residual >= 0, residual, np.iinfo(np.int64).max)
        best = int(np.argmin(residual))
        if residual[best] == np.iinfo(np.int64).max:
            return -1
        return best


#: name -> policy class, for config-driven construction.
POLICIES = {cls.name: cls for cls in (FirstFit, PredictivePack)}


def make_policy(name: str,
                load_model: Optional[MediaLoadModel] = None,
                predictor: Optional[PeakParticipantPredictor] = None,
                ) -> PackingPolicy:
    """Build a policy by registry name (``PlannerConfig`` packing knob)."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise CapacityError(
            f"unknown packing policy {name!r}; "
            f"choose from {tuple(POLICIES)}"
        ) from None
    if cls is PredictivePack:
        return PredictivePack(load_model, predictor)
    return cls(load_model)
