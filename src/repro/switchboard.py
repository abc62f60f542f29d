"""The Switchboard controller: the paper's primary contribution, assembled.

Two entry points:

* :class:`Switchboard` — the provisioning/allocation strategy: peak-aware,
  joint compute+network, joint serving+backup LP provisioning (§5.3) plus
  the latency-minimizing daily allocation (Eq 10).  Implements the same
  :class:`~repro.baselines.base.ProvisioningStrategy` interface as the RR
  and LF baselines so Table 3 can sweep all three.
* :class:`SwitchboardPipeline` — the full production loop of Fig 6: call
  records -> top-config selection -> per-config Holt-Winters forecasts ->
  capacity provisioning -> daily allocation plan -> real-time MP selector.

Both are configured by one frozen :class:`~repro.config.PlannerConfig`
(``Switchboard(topology, config=...)``).  Every LP solve runs under a
:class:`~repro.resilience.supervisor.SolveSupervisor` (timeouts, retries,
fault handling) and provisioning walks the degradation ladder of
:mod:`repro.resilience.ladder`, so ``provision()`` and ``run()`` return a
usable — possibly degraded, always tagged — plan even when solves fail
persistently.  The full event trail lives on ``controller.obs`` and on
the returned plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import SwitchboardError
from repro.core.types import CallConfig
from repro.core.units import DEFAULT_FREEZE_WINDOW_S
from repro.allocation.offline import AllocationLP, AllocationOutcome
from repro.allocation.plan import AllocationPlan
from repro.allocation.realtime import RealTimeSelector
from repro.autoscale import Autoscaler
from repro.baselines.base import ProvisioningStrategy
from repro.config import AutoscaleConfig, PlannerConfig
from repro.forecasting.forecaster import CallCountForecaster
from repro.obs.events import Event, Observability
from repro.provisioning.demand import PlacementData
from repro.provisioning.failures import FailureScenario
from repro.provisioning.formulation import ScenarioLP
from repro.provisioning.lp import WarmStartCache
from repro.provisioning.planner import CapacityPlan
from repro.records.aggregation import cushion_factor, demand_from_database
from repro.records.database import CallRecordsDatabase
from repro.records.latency_est import estimate_latency_matrix
from repro.resilience.ladder import (
    locality_allocation_outcome,
    locality_allocation_plan,
    provision_with_ladder,
)
from repro.resilience.supervisor import SolveSupervisor
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand
from repro.workload.media import MediaLoadModel

class Switchboard(ProvisioningStrategy):
    """Peak-aware joint provisioning + latency-optimal allocation.

    Configure with ``Switchboard(topology, config=PlannerConfig(...))``.
    """

    name = "switchboard"

    def __init__(self, topology: Topology,
                 load_model: Optional[MediaLoadModel] = None,
                 config: Optional[PlannerConfig] = None):
        super().__init__(topology, load_model)
        self.config = config if config is not None else PlannerConfig()
        #: The controller's complete attempt/retry/fallback event trail.
        self.obs = Observability()
        self._supervisor = SolveSupervisor(self.config, self.obs)
        self._placement_cache: Dict[Tuple[CallConfig, ...], PlacementData] = {}
        #: Scenario LPs, bases and duals shared by every scenario solve of
        #: this controller, keyed by LP signature: day N's re-price day
        #: N+1, each autoscaler refresh re-solves from the last one's
        #: basis, and a recurring rescale horizon hits its earlier LP.
        #: Holds the placement solved last only (:meth:`_warm_cache_for`)
        #: and at most ``WarmStartCache.max_bytes``.
        self._warm_placement: Optional[PlacementData] = None
        self._warm_cache = WarmStartCache()

    # ------------------------------------------------------------------
    # provisioning (§5.3)
    # ------------------------------------------------------------------
    def placement_for(self, configs: Sequence[CallConfig]) -> PlacementData:
        """PlacementData for a config set, cached by the set itself."""
        key = tuple(configs)
        placement = self._placement_cache.get(key)
        if placement is None:
            placement = PlacementData(
                self.topology, configs,
                load_model=self.usage.load_model,
                latency_threshold_ms=self.config.latency_threshold_ms,
            )
            self._placement_cache[key] = placement
        return placement

    def provision(self, demand: Demand, with_backup: bool = True) -> CapacityPlan:
        """The LP provisioning of §5.3, run down the degradation ladder.

        Always returns a plan: on persistent solve failure the walk
        degrades (``joint → max → incremental → locality``) and the
        result records ``method`` / ``degradation_level``.
        """
        return self._provision(demand, self.config, with_backup)

    def _provision(self, demand: Demand, config: PlannerConfig,
                   with_backup: bool) -> CapacityPlan:
        placement = self.placement_for(demand.configs)
        return provision_with_ladder(
            placement, demand, config,
            with_backup=with_backup, supervisor=self._supervisor,
            warm_cache=self._warm_cache_for(placement),
        )

    def _warm_cache_for(self, placement: PlacementData) -> WarmStartCache:
        """The warm cache, emptied first when ``placement`` is not the one
        it was last used for: every LP signature starts with the
        placement, so an old placement's entries can no longer hit."""
        if placement is not self._warm_placement:
            self._warm_cache.clear()
            self._warm_placement = placement
        return self._warm_cache

    def warmstart_stats(self) -> Dict[str, int]:
        """The warm-start cache's counters (:meth:`WarmStartCache.stats`)."""
        return self._warm_cache.stats()

    def plan_without_backup(self, demand: Demand) -> CapacityPlan:
        return self.provision(demand, with_backup=False)

    def plan_with_backup(self, demand: Demand,
                         max_link_scenarios: Optional[int] = None) -> CapacityPlan:
        config = self.config
        if max_link_scenarios is not None:
            config = config.but(max_link_scenarios=max_link_scenarios)
        return self._provision(demand, config, with_backup=True)

    # ------------------------------------------------------------------
    # allocation (§5.3 "Allocation plan" + §5.4)
    # ------------------------------------------------------------------
    def allocate(self, demand: Demand, capacity: CapacityPlan) -> AllocationOutcome:
        """The daily allocation LP (Eq 10) against fixed capacity: the
        ``k = 0`` slice of :meth:`allocation_lp` (:meth:`allocate_tail`)."""
        return self.allocate_tail(self.allocation_lp(demand), capacity)

    def allocation_lp(self, demand: Demand) -> AllocationLP:
        """Eq 10 over ``demand``, to be solved slice by slice."""
        return AllocationLP(self.placement_for(demand.configs), demand)

    def allocate_tail(self, allocation: AllocationLP, capacity: CapacityPlan,
                      k: int = 0, scale: float = 1.0) -> AllocationOutcome:
        """Eq 10 over ``allocation``'s slots from ``k`` on at ``scale``
        times its demand, against fixed capacity; slot indices in the
        plan count from ``k``.

        Supervised like every other solve; if the LP fails persistently
        the min-ACL locality heuristic produces the plan instead, tagged
        ``method="locality"`` / ``degradation_level=1``.
        """
        try:
            return self._supervisor.run(
                "allocation", lambda: allocation.allocate(capacity, k, scale)
            )
        except SwitchboardError as exc:
            self.obs.record("ladder.fallback", label="allocation",
                            error=str(exc), next_rung="locality")
            outcome = locality_allocation_outcome(
                allocation.placement, capacity, allocation.tail(k, scale))
            self.obs.record("ladder.selected", label="allocation.locality",
                            level=1)
            self.obs.counters.increment("ladder.degraded")
            return outcome

    def allocation_plan(self, demand: Demand,
                        failed_dc: Optional[str] = None,
                        failed_link: Optional[str] = None) -> AllocationPlan:
        """Strategy-interface allocation: allocate within own capacity.

        Under a DC or WAN-link failure, allocation re-runs for the
        corresponding scenario: surviving placement options only, with
        the backup capacity elsewhere absorbing the displaced calls
        (§4.2).  The failure-scenario solve is supervised and degrades to
        the locality heuristic rather than raising.
        """
        placement = self.placement_for(demand.configs)
        if failed_dc is not None or failed_link is not None:
            parts = ([f"dc:{failed_dc}"] if failed_dc else []) + \
                    ([f"link:{failed_link}"] if failed_link else [])
            scenario = FailureScenario(
                name="F_" + "+".join(parts),
                failed_dcs=(failed_dc,) if failed_dc else (),
                failed_links=(failed_link,) if failed_link else (),
            )
            lp = ScenarioLP(placement, demand, scenario)
            cache = self._warm_cache_for(placement)
            try:
                result = self._supervisor.run(
                    f"allocation[{scenario.name}]",
                    lambda: lp.solve(warm_cache=cache))
            except SwitchboardError as exc:
                self.obs.record("ladder.fallback",
                                label=f"allocation[{scenario.name}]",
                                error=str(exc), next_rung="locality")
                self.obs.counters.increment("ladder.degraded")
                return locality_allocation_plan(
                    placement, demand,
                    failed_dc=failed_dc, failed_link=failed_link,
                )
            return AllocationPlan(slots=list(demand.slots), shares=result.shares)
        capacity = self.provision(demand, with_backup=False)
        outcome = self.allocate(demand, capacity)
        return outcome.plan

    def mean_acl_with_capacity(self, demand: Demand, capacity: CapacityPlan) -> float:
        """Mean ACL of the latency-optimal allocation inside ``capacity``."""
        outcome = self.allocate(demand, capacity)
        return outcome.plan.mean_acl_ms(
            lambda dc, config: self.topology.acl_ms(dc, config)
        )

    def realtime_selector(self, plan: AllocationPlan,
                          freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S
                          ) -> RealTimeSelector:
        """The §5.4 real-time selector seeded with a daily plan."""
        return RealTimeSelector(self.topology, plan, freeze_window_s)


@dataclass
class PipelineResult:
    """Everything the end-to-end pipeline produced."""

    top_configs: List[CallConfig]
    cushion: float
    forecast_demand: Demand
    capacity: CapacityPlan
    allocation: AllocationOutcome
    obs: Optional[Observability] = field(default=None, repr=False, compare=False)

    @property
    def degradation_level(self) -> int:
        """How far any stage degraded (0 = both stages at full fidelity)."""
        return max(self.capacity.degradation_level,
                   self.allocation.degradation_level)

    @property
    def degraded(self) -> bool:
        return self.degradation_level > 0

    def events(self, kind: Optional[str] = None,
               label_contains: Optional[str] = None) -> List[Event]:
        """The run's event trail, filtered like :meth:`EventLog.events`."""
        if self.obs is None:
            return []
        return self.obs.events(kind=kind, label_contains=label_contains)

    def counter(self, name: str) -> int:
        return 0 if self.obs is None else self.obs.counters.get(name)


class SwitchboardPipeline:
    """Fig 6 end to end: records -> forecast -> provision -> allocate.

    ``config`` carries every provisioning/resilience knob to the inner
    :class:`Switchboard`; the default keeps the pipeline's historical
    behaviour (``max_link_scenarios=0`` — DC-failure scenarios only).
    """

    def __init__(self, topology: Topology,
                 top_config_fraction: float = 0.01,
                 season_length: int = 48,
                 load_model: Optional[MediaLoadModel] = None,
                 use_estimated_latency: bool = True,
                 config: Optional[PlannerConfig] = None):
        self.topology = topology
        self.top_config_fraction = top_config_fraction
        self.season_length = season_length
        self.load_model = load_model if load_model is not None else MediaLoadModel()
        self.use_estimated_latency = use_estimated_latency
        self.config = (config if config is not None
                       else PlannerConfig(max_link_scenarios=0))

    def run(self, db: CallRecordsDatabase, horizon_slots: int,
            with_backup: bool = True) -> PipelineResult:
        """Run the full loop from a populated records database."""
        if len(db) == 0:
            raise SwitchboardError("records database is empty")

        # 1. Counterfactual latency from telemetry (§6.2).
        topology = self.topology
        if self.use_estimated_latency:
            matrix = estimate_latency_matrix(db, topology)
            topology = topology.with_latency(matrix)

        # 2. Top-config selection + cushion (§5.2).
        top = db.top_configs(self.top_config_fraction)
        cushion = cushion_factor(db, top)
        history = demand_from_database(db, top)

        # 3. Per-config Holt-Winters forecast (§5.2).
        forecaster = CallCountForecaster(
            season_length=self.season_length, cushion=cushion
        )
        forecast = forecaster.forecast_demand(history, horizon_slots)

        # 4. LP capacity provisioning (§5.3) down the degradation ladder.
        controller = Switchboard(
            topology, load_model=self.load_model, config=self.config
        )
        capacity = controller.provision(forecast, with_backup=with_backup)

        # 5. Daily allocation plan (Eq 10).
        allocation = controller.allocate(forecast, capacity)

        return PipelineResult(
            top_configs=top,
            cushion=cushion,
            forecast_demand=forecast,
            capacity=capacity,
            allocation=allocation,
            obs=controller.obs,
        )

    def autoscaler(self, result: PipelineResult,
                   config: Optional[AutoscaleConfig] = None) -> Autoscaler:
        """A closed-loop autoscaler wired to this pipeline's output.

        Pass the returned object as ``rescaler=`` to an
        :class:`~repro.service.engine.AdmissionEngine` serving
        ``result``'s plan and the loop runs itself: telemetry windows →
        scale decisions → ``provision()`` re-runs and allocation-LP
        slices over the remaining horizon, applied through the ledger.
        ``config`` overrides ``PlannerConfig.autoscale`` (either may be
        None; the defaults then apply).
        """
        autoscale = config if config is not None else self.config.autoscale
        controller = Switchboard(
            self.topology, load_model=self.load_model, config=self.config
        )
        return Autoscaler(
            controller, result.forecast_demand, result.allocation.plan,
            config=autoscale, capacity=result.capacity, obs=result.obs,
        )
