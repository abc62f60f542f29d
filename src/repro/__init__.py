"""Switchboard: efficient resource management for conferencing services.

A from-scratch reproduction of Bothra et al., ACM SIGCOMM 2023.  The
top-level names cover the common path:

>>> from repro import Topology, Switchboard, generate_population
>>> from repro.workload import DemandModel
>>> from repro.core import make_slots
>>> topo = Topology.default()
>>> population = generate_population(topo.world, n_configs=100)
>>> demand = DemandModel(topo.world, population).expected(make_slots(86400))
>>> capacity = Switchboard(topo).provision(demand, with_backup=False)

See README.md for the architecture overview and examples/ for runnable
end-to-end scenarios.
"""

from repro.core.errors import SwitchboardError
from repro.core.types import Call, CallConfig, MediaType
from repro.autoscale import Autoscaler
from repro.config import (AutoscaleConfig, MigrationConfig, PlannerConfig,
                          PortfolioConfig, ServiceConfig)
from repro.kvstore import ShardedKVStore
from repro.migrate import MigrationExecutor, MigrationPlanner
from repro.obs import Observability
from repro.resilience import FaultPlan, SolveSupervisor
from repro.service import AdmissionEngine, ServiceReport
from repro.simulation import ServiceSimulator, SimulationReport
from repro.switchboard import PipelineResult, Switchboard, SwitchboardPipeline
from repro.topology.builder import Topology
from repro.workload.configs import generate_population

__version__ = "1.0.0"

__all__ = [
    "AdmissionEngine",
    "AutoscaleConfig",
    "Autoscaler",
    "Call",
    "CallConfig",
    "FaultPlan",
    "MediaType",
    "MigrationConfig",
    "MigrationExecutor",
    "MigrationPlanner",
    "Observability",
    "PipelineResult",
    "PlannerConfig",
    "PortfolioConfig",
    "ServiceConfig",
    "ServiceReport",
    "ServiceSimulator",
    "ShardedKVStore",
    "SimulationReport",
    "SolveSupervisor",
    "Switchboard",
    "SwitchboardError",
    "SwitchboardPipeline",
    "Topology",
    "generate_population",
    "__version__",
]
