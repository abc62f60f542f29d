"""One binding to HiGHS for every LP the library solves.

:func:`solve` loads an :class:`~repro.provisioning.lp.LPInstance` into
scipy's bundled HiGHS (``scipy.optimize._highspy._core``, private API)
with one array ``passModel`` of its stacked CSC matrix, under the options
``linprog(method="highs")`` sets: a cold solve returns ``linprog``'s
vertex, objective and marginals without its input checks and wrapping.
A basis kept from an earlier solve of the same matrix starts the dual
simplex near the new optimum.

``_core`` is loaded from its file, not imported: importing it runs
``scipy.optimize``'s ``__init__``, which loads all of ``scipy.optimize``
for one extension module (22 MB and 0.37 s more than the extension
alone, measured on a 2-vCPU VM).  The file is found through scipy's
import spec, so not even scipy's own ``__init__`` runs: the extension is
the only scipy code a solve loads.  Without the file (scipy < 1.15 has
no ``_core``), ``linprog`` solves cold.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from types import ModuleType
from typing import TYPE_CHECKING, Any, Iterator, Optional, Tuple

import numpy as np

from repro.core.errors import InfeasibleError, SolverError, SolveTimeoutError
from repro.provisioning.lp import LPSolution, SolveStats

if TYPE_CHECKING:
    from repro.provisioning.lp import LPInstance

#: The extension's name in scipy, under which :func:`_load_core` registers it.
CORE_MODULE = "scipy.optimize._highspy._core"


def _load_core(directory: Path) -> Optional[ModuleType]:
    """HiGHS's extension module from its file in ``directory``, put in
    ``sys.modules`` under :data:`CORE_MODULE` so that a later ``import
    scipy.optimize`` reuses it; ``None`` without the file."""
    module = sys.modules.get(CORE_MODULE)
    if module is not None:
        return module
    for suffix in EXTENSION_SUFFIXES:
        location = directory / f"_core{suffix}"
        if location.is_file():
            spec = importlib.util.spec_from_file_location(CORE_MODULE,
                                                          location)
            module = importlib.util.module_from_spec(spec)
            sys.modules[CORE_MODULE] = module
            spec.loader.exec_module(module)
            return module
    return None


_core = _load_core(
    Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
    / "optimize" / "_highspy")

#: The ``_Highs`` methods :func:`solve` calls (a test pins that they exist).
HIGHS_METHODS = ("setOptionValue", "passModel", "setBasis", "run",
                 "getModelStatus", "modelStatusToString", "getInfo",
                 "getSolution", "getBasis")

#: What ``linprog(method="highs")`` sets; everything else stays default.
_OPTIONS = (("presolve", "on"), ("output_flag", False),
            ("log_to_console", False), ("highs_debug_level", 0),
            ("simplex_strategy", 1))  # 1 = dual simplex

#: ``linprog``'s feasibility check on a reported optimum (``10·√1e-9``).
_TOLERANCE = 10 * np.sqrt(1e-9)

#: Monotonic deadline of the enclosing :func:`time_limit` (inf: none).
_DEADLINE: ContextVar[float] = ContextVar("deadline", default=np.inf)


@contextmanager
def time_limit(seconds: Optional[float]) -> Iterator[None]:
    """Every :func:`solve` in the block gets what is left of one
    ``seconds`` budget (``None``: unbounded) as HiGHS's ``time_limit``;
    the deadline is a context variable, so each thread sets its own."""
    token = _DEADLINE.set(
        np.inf if seconds is None else time.monotonic() + seconds)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def _status_code(model_status) -> int:
    """``linprog``'s status for a HiGHS model status: 0 optimal, 1
    iteration limit, 2 infeasible, 3 unbounded, 4 anything else."""
    statuses = _core.HighsModelStatus
    return {statuses.kOptimal: 0, statuses.kIterationLimit: 1,
            statuses.kInfeasible: 2, statuses.kModelError: 2,
            statuses.kUnbounded: 3,
            }.get(model_status, 4)


def _raise_for(status: int, message: str, description: str) -> None:
    if status == 2:
        raise InfeasibleError(f"{description}: infeasible")
    if status != 0:
        raise SolverError(f"{description}: solver status {status}: {message}")


def _solution(instance: "LPInstance", x: np.ndarray, fun: float,
              row_dual: Optional[np.ndarray], seconds: float) -> LPSolution:
    n_ub, n_rows = instance.n_ub, instance.n_rows
    has_duals = row_dual is not None
    return LPSolution(
        objective=float(fun), x=x, keys=instance.keys,
        stats=SolveStats(n_rows=n_rows, n_cols=instance.n_cols,
                         nnz=instance.nnz, solver_seconds=seconds,
                         assembly_seconds=instance.assembly_seconds),
        dual_ineq=row_dual[:n_ub] if has_duals and n_ub else None,
        dual_eq=row_dual[n_ub:] if has_duals and n_rows > n_ub else None)


def _solve_linprog(instance: "LPInstance", seconds_left: float,
                   description: str) -> LPSolution:
    from scipy.optimize import linprog

    t0 = time.perf_counter()
    result = linprog(c=instance.c, A_ub=instance.a_ub, b_ub=instance.b_ub,
                     A_eq=instance.a_eq, b_eq=instance.b_eq,
                     bounds=instance.bounds, method="highs",
                     options={"time_limit": seconds_left})
    seconds = time.perf_counter() - t0
    if result.status == 1 and seconds_left < np.inf:  # time or iteration limit
        raise SolveTimeoutError(f"{description}: out of time budget")
    _raise_for(result.status, result.message, description)
    marginals = [result.ineqlin.marginals, result.eqlin.marginals]
    row_dual = (np.concatenate(marginals)
                if all(m is not None for m in marginals) else None)
    return _solution(instance, result.x, result.fun, row_dual, seconds)


def solve(instance: "LPInstance", basis: Any = None,
          description: str = "LP") -> Tuple[LPSolution, Any]:
    """Solve ``instance``, from ``basis`` when given (an earlier solve's,
    same matrix); returns ``(solution, final basis)`` — the basis is
    ``None`` on the ``linprog`` fallback.  Raises
    :class:`SolveTimeoutError` past the :func:`time_limit` budget (at
    once, before any model is built, when none of it is left), and
    :class:`InfeasibleError` / :class:`SolverError` where ``linprog``
    reports status 2 / any other non-zero status."""
    seconds_left = _DEADLINE.get() - time.monotonic()
    if seconds_left <= 0.0:
        raise SolveTimeoutError(f"{description}: out of time budget")
    if _core is None:
        return _solve_linprog(instance, seconds_left, description), None
    matrix, n_ub, n_cols = instance.matrix, instance.n_ub, instance.n_cols
    row_lower = np.concatenate([np.full(n_ub, -np.inf), instance.b_eq])
    row_upper = np.concatenate([instance.b_ub, instance.b_eq])
    t0 = time.perf_counter()
    highs = _core._Highs()
    for name, value in _OPTIONS:
        highs.setOptionValue(name, value)
    highs.setOptionValue("time_limit", seconds_left)
    # The array overload: pybind hands HiGHS each array whole, where
    # setting ``HighsLp`` fields copies them element by element.
    status = highs.passModel(
        n_cols, instance.n_rows, instance.nnz,
        int(_core.MatrixFormat.kColwise), int(_core.ObjSense.kMinimize),
        0.0, instance.c, instance.lower, instance.upper, row_lower,
        row_upper, matrix.indptr.astype(np.int32, copy=False),
        matrix.indices.astype(np.int32, copy=False), matrix.data,
        np.zeros(n_cols, dtype=np.int32))  # all continuous; [] is kError
    # kWarning (e.g. dropped tiny coefficients) still loads the model.
    if status == _core.HighsStatus.kError:
        raise SolverError(f"{description}: HiGHS refused the model "
                          f"({status.name})")
    if basis is not None:
        highs.setBasis(basis)
    highs.run()
    model_status = highs.getModelStatus()
    if model_status == _core.HighsModelStatus.kTimeLimit:
        raise SolveTimeoutError(f"{description}: out of time budget")
    _raise_for(_status_code(model_status),
               highs.modelStatusToString(model_status), description)
    fun = highs.getInfo().objective_function_value
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    seconds = time.perf_counter() - t0
    # linprog's post-check: an "optimal" point outside the constraints by
    # more than its tolerance is reported as numerical trouble.
    slack = row_upper - np.array(solution.row_value)
    if (np.isnan(x).any() or np.isnan(fun)
            or (slack[:n_ub] < -_TOLERANCE).any()
            or (np.abs(slack[n_ub:]) > _TOLERANCE).any()
            or (x < instance.lower - _TOLERANCE).any()
            or (x > instance.upper + _TOLERANCE).any()):
        _raise_for(4, "the solution does not satisfy the constraints "
                   f"within {_TOLERANCE:.2e}", description)
    return (_solution(instance, x, fun, np.array(solution.row_dual), seconds),
            highs.getBasis())
