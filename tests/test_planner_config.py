"""The unified PlannerConfig API, its read-through attribute views, and
the census of every config dataclass's fields."""

import dataclasses
import math

import numpy as np
import pytest

from repro.config import (
    DEFAULT_LADDER,
    AutoscaleConfig,
    MigrationConfig,
    PackingConfig,
    PlannerConfig,
    PortfolioConfig,
    ServiceConfig,
)
from repro.core.errors import SwitchboardError
from repro.core.types import CallConfig, MediaType, make_slots
from repro.switchboard import Switchboard, SwitchboardPipeline
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand


@pytest.fixture(scope="module")
def small_world():
    topo = Topology.small()
    configs = [
        CallConfig.build({"JP": 2}, MediaType.AUDIO),
        CallConfig.build({"JP": 1, "IN": 1}, MediaType.VIDEO),
    ]
    demand = Demand(make_slots(2 * 1800.0, 1800.0), configs,
                    np.array([[20.0, 5.0], [12.0, 8.0]]))
    return topo, demand


class TestPlannerConfig:
    def test_defaults_match_legacy_switchboard_defaults(self):
        config = PlannerConfig()
        assert config.backup_method == "joint"
        assert config.max_link_scenarios is None

    def test_frozen(self):
        with pytest.raises(Exception):
            PlannerConfig().backup_method = "max"

    def test_but_overrides_without_mutating(self):
        base = PlannerConfig()
        fast = base.but(backup_method="incremental", solve_retries=0)
        assert fast.backup_method == "incremental"
        assert fast.solve_retries == 0
        assert base.backup_method == "joint"

    def test_unknown_backup_method_rejected(self):
        with pytest.raises(SwitchboardError):
            PlannerConfig(backup_method="psychic")

    def test_negative_knobs_rejected(self):
        with pytest.raises(SwitchboardError):
            PlannerConfig(solve_retries=-1)
        with pytest.raises(SwitchboardError):
            PlannerConfig(solve_timeout_s=0.0)
        with pytest.raises(SwitchboardError):
            PlannerConfig(retry_backoff_s=-0.1)

    @pytest.mark.parametrize("cap", [-5.0, float("nan"), float("inf")])
    def test_unusable_core_limit_rejected(self, cap):
        """A negative or non-finite cap fails at construction, instead of
        silently degrading the joint rung down the ladder."""
        with pytest.raises(SwitchboardError, match="dc-pune"):
            PlannerConfig(max_link_scenarios=0,
                          dc_core_limits={"dc-pune": cap})
        assert PlannerConfig(dc_core_limits={"dc-pune": 0.0})

    def test_provisioning_ladder_starts_at_backup_method(self):
        assert PlannerConfig().provisioning_ladder() == DEFAULT_LADDER
        assert PlannerConfig(backup_method="max").provisioning_ladder() == (
            "max", "incremental", "locality"
        )
        assert PlannerConfig(
            backup_method="incremental"
        ).provisioning_ladder() == ("incremental", "locality")


class TestDeprecatedShims:
    def test_attribute_shims_read_through_to_config(self, small_world):
        topo, _ = small_world
        sb = Switchboard(topo, config=PlannerConfig(
            max_link_scenarios=3, backup_method="max",
        ))
        assert not hasattr(sb, "workers")

    def test_pipeline_default_keeps_historical_scenario_cap(self, small_world):
        topo, _ = small_world
        assert SwitchboardPipeline(topo).config.max_link_scenarios == 0

    def test_pipeline_forwards_full_config(self, small_world):
        topo, _ = small_world
        config = PlannerConfig(max_link_scenarios=0, backup_method="max",
                               solve_retries=5)
        assert SwitchboardPipeline(topo, config=config).config is config


class TestPlacementCache:
    def test_cache_keyed_by_config_tuple(self, small_world):
        topo, demand = small_world
        sb = Switchboard(topo, config=PlannerConfig(max_link_scenarios=0))
        first = sb.placement_for(demand.configs)
        assert sb.placement_for(list(demand.configs)) is first
        other = sb.placement_for(demand.configs[:1])
        assert other is not first
        assert sb.placement_for(demand.configs[:1]) is other


class TestKnobCensus:
    def test_field_names_are_pinned(self):
        """Every field is an option tests and benchmarks must cover: a new
        knob edits this list on purpose, with a caller that needs it."""
        census = {
            cls.__name__: tuple(f.name for f in dataclasses.fields(cls))
            for cls in (PortfolioConfig, ServiceConfig, PackingConfig,
                        AutoscaleConfig, MigrationConfig, PlannerConfig)
        }
        assert census == {
            "PortfolioConfig": ("arms", "gap"),
            "ServiceConfig": ("n_shards", "n_workers", "kv_latency_median_ms",
                              "kv_latency_seed", "executor"),
            "PackingConfig": ("policy", "utilization_target",
                              "defrag_interval_s"),
            "AutoscaleConfig": ("interval_s", "headroom",
                                "scale_down_patience"),
            "MigrationConfig": ("interval_s", "max_moves_per_window",
                                "disruption_ceiling"),
            "PlannerConfig": ("latency_threshold_ms", "max_link_scenarios",
                              "backup_method", "background", "dc_core_limits",
                              "solve_timeout_s", "solve_retries",
                              "retry_backoff_s", "fault_plan",
                              "service", "autoscale", "portfolio"),
        }
        assert sum(map(len, census.values())) == 28

    @pytest.mark.parametrize("cls, field", [
        (AutoscaleConfig, "interval_s"),
        (AutoscaleConfig, "headroom"),
        (PortfolioConfig, "gap"),
        (ServiceConfig, "kv_latency_median_ms"),
        (PackingConfig, "defrag_interval_s"),
        (MigrationConfig, "interval_s"),
        (PlannerConfig, "solve_timeout_s"),
        (PlannerConfig, "retry_backoff_s"),
        (PlannerConfig, "latency_threshold_ms"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_float_rejected(self, cls, field, value):
        """NaN passes every ``<``/``<=`` range check, so it used to
        construct; +inf is no budget, interval or threshold either."""
        with pytest.raises(SwitchboardError, match=field):
            cls(**{field: value})
