"""Intra-DC server-level call packing (Tetris-style, §5.4 substrate).

Turns each DC from an opaque slot counter into a packed fleet of MP
servers: a :class:`PackingPolicy` sizes and places calls, a
:class:`FleetLedger` keeps the authoritative per-server capacity
(implementing the :class:`~repro.allocation.realtime.SlotLedger`
contract so the selector and admission engine route through server-level
placement unchanged), and a :class:`Defragmenter` reclaims stranded
capacity between event batches.
"""

from typing import Optional, Tuple

from repro.config import PackingConfig
from repro.core.units import (
    MICROCORES_PER_CORE,
    from_microcores,
    to_microcores,
)
from repro.obs.events import Observability
from repro.packing.defrag import Defragmenter, DefragMove, DefragRound
from repro.packing.ledger import (
    DEFAULT_SERVER_CORES,
    FleetLedger,
    FleetStats,
    servers_for_cores,
)
from repro.packing.policy import (
    FirstFit,
    POLICIES,
    PackingPolicy,
    PredictivePack,
    make_policy,
)
from repro.prediction.peak import peak_predictor_or_default


def build_packing(capacity, config: Optional[PackingConfig] = None,
                  training_calls=None, load_model=None,
                  obs: Optional[Observability] = None,
                  ) -> Tuple[FleetLedger, Optional[Defragmenter]]:
    """Construct the packing stack a :class:`PackingConfig` describes.

    ``capacity`` is a CapacityPlan (or ``{dc: cores}`` mapping);
    ``training_calls`` (historical complete calls) fit the predictive
    policy's peak predictor — without them it falls back to its
    conservative prior.
    Returns ``(ledger, defragmenter)``; the defragmenter is ``None``
    when ``config.defrag_interval_s`` is.
    """
    if config is None:
        config = PackingConfig()
    predictor = None
    if config.policy == "predictive":
        predictor = peak_predictor_or_default(training_calls)
    policy = make_policy(config.policy, load_model=load_model,
                         predictor=predictor)
    ledger = FleetLedger(
        capacity, policy,
        utilization_target=config.utilization_target, obs=obs)
    defragmenter = None
    if config.defrag_interval_s is not None:
        defragmenter = Defragmenter(ledger, obs=obs)
    return ledger, defragmenter


__all__ = [
    "DEFAULT_SERVER_CORES",
    "Defragmenter",
    "DefragMove",
    "DefragRound",
    "FirstFit",
    "FleetLedger",
    "FleetStats",
    "MICROCORES_PER_CORE",
    "POLICIES",
    "PackingConfig",
    "PackingPolicy",
    "PredictivePack",
    "build_packing",
    "from_microcores",
    "make_policy",
    "servers_for_cores",
    "to_microcores",
]
