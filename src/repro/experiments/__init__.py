"""Experiment harness: one module per table/figure of the paper.

================  =============================================
module            reproduces
================  =============================================
``fig3``          time-shifted demand peaks (JP/HK/IN)
``fig4``          peak-aware backup planning toy example
``table1``        relative media loads
``fig7``          forecast overlay, growth spread, top-N coverage
``table3``        cores/WAN/cost/ACL for RR, LF, SB (headline)
``table4``        forecast-vs-truth provisioning deltas
``fig8``          participant join CDF
``fig9``          forecast error CDFs
``migration``     §6.4 inter-DC migration frequency
``fig10``         controller throughput vs writer threads
``prediction``    §8 MOMC+LR call-config prediction
``predictive``    §8 applied: prediction-assisted selection vs §5.4
``app_aware``     §4.4: app-aware vs resource-log provisioning (surge)
``fig_packing``   server-level packing policies at matched quality
``fig_autoscale``  closed-loop autoscaling vs static plan (surprise)
``fig_storms``    chaos harness over the named scenario storms
``fig_migration``  live cross-DC migration when a DC is lost mid-day
``threshold_sweep``  ablation: cost vs the 120 ms ACL threshold
================  =============================================
"""

from repro.experiments import (  # noqa: F401
    app_aware,
    fig3,
    fig4,
    fig7,
    fig8,
    fig9,
    fig10,
    fig_autoscale,
    fig_packing,
    fig_storms,
    migration,
    prediction,
    predictive,
    table1,
    table3,
    table4,
    threshold_sweep,
)
from repro.experiments.common import Scenario, build_scenario

__all__ = [
    "Scenario",
    "app_aware",
    "build_scenario",
    "fig3",
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig_autoscale",
    "fig_packing",
    "fig_storms",
    "migration",
    "prediction",
    "predictive",
    "table1",
    "table3",
    "table4",
    "threshold_sweep",
]
