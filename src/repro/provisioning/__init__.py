"""MP capacity provisioning: the Switchboard LP framework (§5.3)."""

from repro.provisioning.background import BackgroundTraffic, diurnal_background
from repro.provisioning.backup_lp import solve_backup_lp, total_backup
from repro.provisioning.demand import PlacementData, PlacementOption
from repro.provisioning.failures import (
    NO_FAILURE,
    FailureScenario,
    dedupe_scenarios,
    enumerate_compound_scenarios,
    enumerate_scenarios,
    scenario_structure_signature,
)
from repro.provisioning.formulation import ScenarioLP, ScenarioResult
from repro.provisioning.lp import (
    ConstraintSet,
    LinearProgram,
    LPInstance,
    LPSolution,
    SolveStats,
    VariableRegistry,
    WarmStartCache,
)
from repro.provisioning.planner import CapacityPlan, CapacityPlanner
from repro.provisioning.portfolio import (
    ArmOutcome,
    build_arms,
    run_race,
    scenario_lower_bound,
)

__all__ = [
    "ArmOutcome",
    "BackgroundTraffic",
    "CapacityPlan",
    "CapacityPlanner",
    "ConstraintSet",
    "FailureScenario",
    "LPInstance",
    "LPSolution",
    "LinearProgram",
    "NO_FAILURE",
    "PlacementData",
    "PlacementOption",
    "ScenarioLP",
    "ScenarioResult",
    "SolveStats",
    "VariableRegistry",
    "WarmStartCache",
    "build_arms",
    "dedupe_scenarios",
    "diurnal_background",
    "enumerate_compound_scenarios",
    "enumerate_scenarios",
    "run_race",
    "scenario_lower_bound",
    "scenario_structure_signature",
    "solve_backup_lp",
    "total_backup",
]
