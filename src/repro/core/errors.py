"""Exception hierarchy for the Switchboard reproduction.

All library errors derive from :class:`SwitchboardError` so that callers can
catch everything coming out of the library with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class SwitchboardError(Exception):
    """Base class for every error raised by this library."""


class TopologyError(SwitchboardError):
    """The world model is inconsistent (unknown country, DC, or link)."""


class WorkloadError(SwitchboardError):
    """A workload/trace generation parameter is invalid."""


class InfeasibleError(SwitchboardError):
    """An optimization problem has no feasible solution.

    Raised when the LP solver reports infeasibility, e.g. when a capacity
    bound handed to the allocation planner is too small to host the demand.
    ``diagnosis`` (when the raiser could work one out) names the constraint
    family and scenario responsible — see
    :func:`repro.provisioning.formulation.diagnose_infeasibility`.
    """

    def __init__(self, message: str = "", diagnosis: dict = None):
        super().__init__(message)
        self.diagnosis = diagnosis


class SolverError(SwitchboardError):
    """The LP solver failed for a reason other than infeasibility."""


class SolveTimeoutError(SolverError):
    """A supervised LP solve exceeded its configured wall-clock budget."""


class CapacityError(SwitchboardError):
    """A runtime allocation could not find capacity for a call."""


class ForecastError(SwitchboardError):
    """A forecasting model received an unusable timeseries."""


class RecordError(SwitchboardError):
    """The call-records database was queried or fed inconsistently."""
