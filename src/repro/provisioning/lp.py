"""Thin sparse-LP scaffolding over ``scipy.optimize.linprog`` (HiGHS).

Every optimization in the library — the Switchboard provisioning LP, the
allocation-plan LP, the §3.2 backup LP — is assembled through this layer:
a variable registry that hands out column indices by name, a constraint
accumulator that collects COO triplets, and a ``solve`` wrapper that maps
solver statuses onto the library's exception types.

Two things make the layer fast enough for the planner's many-scenario
sweeps:

* **batched assembly** — ``VariableRegistry.add_batch`` and
  ``ConstraintSet.new_rows``/``add_terms`` accept whole numpy arrays of
  rows/columns/values, so formulations append one array per (config,
  option) instead of one Python triplet per call;
* **instrumentation** — every solve returns a :class:`SolveStats` record
  (problem size, nnz, assembly and solver seconds, HiGHS status) so
  benchmarks and the planner can report where wall-clock time goes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.core.errors import InfeasibleError, SolverError


#: Largest magnitude conditioning aims to leave in the problem data.
#: HiGHS treats finite bounds beyond its ``infinite_bound`` threshold
#: (~1e20) as infinite, and empirically starts returning status
#: "unknown" (model_status Unknown / primal Infeasible) on RHS values
#: around 1e12 when the matrix also spans many decades — observed on the
#: backup LP with servings spanning 1e-156..1e4.  1e9 keeps every
#: conditioned value comfortably inside HiGHS's working range while
#: still leaving 10+ orders of headroom over its ~1e-7 absolute
#: feasibility tolerance.
_MAX_CONDITIONED_VALUE = 1e9


def conditioning_scale(*value_groups) -> float:
    """Divisor that centers the inputs' positive dynamic range on 1.

    HiGHS applies *absolute* feasibility tolerances (~1e-7): rows whose
    right-hand side sits below that scale are silently zeroed in presolve.
    Dividing every absolute input by the geometric mean of its smallest
    and largest positive entries maps the range ``[lo, hi]`` onto the
    symmetric window ``[sqrt(lo/hi), sqrt(hi/lo)]`` — both ends as far
    from the tolerance cliff as the data's dynamic range allows.  (A plain
    max-normalization fails on wide-range inputs: dividing ``[611, 6e-5]``
    by 611 pushes the small entry to 1e-7, straight into presolve's
    zeroing band.)

    When the dynamic range is so wide that no divisor can hold both ends
    (ratio beyond ~1e24), the scale is clamped so the *largest* value
    lands at :data:`_MAX_CONDITIONED_VALUE`: exceeding HiGHS's
    infinite-bound threshold makes the whole problem infeasible, whereas
    entries 24 orders of magnitude below the largest are beneath any
    meaningful tolerance whether conditioned or not.

    Callers must apply the scale by *division*.  Multiplying by the
    reciprocal overflows for subnormal inputs (``1.0 / 2.2e-313 == inf``),
    while ``x / scale`` stays finite and exact at the extremes.

    Each ``value_groups`` entry is array-like (arrays, dict-value lists,
    scalars).  Non-finite and non-positive entries are ignored; with no
    positive finite entry at all the scale is 1.0 (nothing to condition).
    """
    lo = np.inf
    hi = 0.0
    for group in value_groups:
        values = np.asarray(group, dtype=float).ravel()
        positive = values[(values > 0) & np.isfinite(values)]
        if positive.size:
            lo = min(lo, float(positive.min()))
            hi = max(hi, float(positive.max()))
    if hi <= 0.0:
        return 1.0
    scale = float(np.sqrt(lo) * np.sqrt(hi))
    scale = max(scale, hi / _MAX_CONDITIONED_VALUE)
    if not np.isfinite(scale) or scale <= 0.0:
        return 1.0
    return scale


@dataclass
class SolveStats:
    """Observability record for one (or several merged) LP solves.

    ``assembly_seconds`` covers formulation build plus COO→CSR conversion;
    ``solver_seconds`` is the HiGHS call itself.  ``arm`` attributes the
    record to the portfolio arm that produced it (``"exact"``, ``"warm"``,
    ``"locality"``, ``"dedup"``; ``None`` for plain
    unraced solves).  ``merge`` is how
    :class:`~repro.provisioning.planner.CapacityPlan` aggregates a whole
    scenario sweep: times, nnz, and solve counts *sum* (total work), while
    ``n_rows``/``n_cols`` take the *max* — "how big was the largest LP",
    not a meaningless sum of unrelated problem shapes.
    """

    n_rows: int = 0
    n_cols: int = 0
    nnz: int = 0
    assembly_seconds: float = 0.0
    solver_seconds: float = 0.0
    status: int = 0
    n_solves: int = 1
    arm: Optional[str] = None

    @property
    def total_seconds(self) -> float:
        return self.assembly_seconds + self.solver_seconds

    def merge(self, other: "SolveStats") -> "SolveStats":
        """Merge two records: times/nnz/counts sum, sizes take the max.

        The merged ``arm`` survives only when both records agree (so a
        per-arm aggregate keeps its attribution and a mixed aggregate
        reports ``None`` rather than whichever record merged last).
        """
        return SolveStats(
            n_rows=max(self.n_rows, other.n_rows),
            n_cols=max(self.n_cols, other.n_cols),
            nnz=self.nnz + other.nnz,
            assembly_seconds=self.assembly_seconds + other.assembly_seconds,
            solver_seconds=self.solver_seconds + other.solver_seconds,
            status=max(self.status, other.status),
            n_solves=self.n_solves + other.n_solves,
            arm=self.arm if self.arm == other.arm else None,
        )

    @classmethod
    def combine(cls, records: Iterable["SolveStats"]) -> "SolveStats":
        """Merge many records; the empty iterable gives a zero record.

        Seeded from the first record (not a zero record) so a combine of
        same-arm records keeps its ``arm`` attribution.
        """
        total: Optional["SolveStats"] = None
        for record in records:
            total = record if total is None else total.merge(record)
        return total if total is not None else cls(n_solves=0)


class VariableRegistry:
    """Hands out one column index per unique variable key."""

    def __init__(self):
        self._index: Dict[Hashable, int] = {}
        self._lower: List[float] = []
        self._upper: List[Optional[float]] = []
        self._objective: List[float] = []

    def add(self, key: Hashable, objective: float = 0.0,
            lower: float = 0.0, upper: Optional[float] = None) -> int:
        """Register a variable; re-adding an existing key is an error."""
        if key in self._index:
            raise SolverError(f"variable {key!r} registered twice")
        index = len(self._index)
        self._index[key] = index
        self._lower.append(lower)
        self._upper.append(upper)
        self._objective.append(objective)
        return index

    def add_batch(self, keys: Sequence[Hashable],
                  objective: Union[float, Sequence[float]] = 0.0,
                  lower: float = 0.0,
                  upper: Optional[float] = None) -> int:
        """Register a block of variables at consecutive indices.

        Returns the index of the first variable; key *i* of the block gets
        index ``start + i``.  ``objective`` may be a scalar (shared) or a
        per-key sequence.  Duplicate keys — within the batch or against
        already-registered variables — are an error.
        """
        n = len(keys)
        if n == 0:
            return len(self._index)
        start = len(self._index)
        index = self._index
        for offset, key in enumerate(keys):
            if key in index:
                raise SolverError(f"variable {key!r} registered twice")
            index[key] = start + offset
        if len(index) != start + n:
            raise SolverError("duplicate keys inside add_batch block")
        if np.isscalar(objective):
            self._objective.extend([float(objective)] * n)
        else:
            coeffs = np.asarray(objective, dtype=float)
            if coeffs.shape != (n,):
                raise SolverError(
                    f"objective batch has shape {coeffs.shape}, expected ({n},)"
                )
            self._objective.extend(coeffs.tolist())
        self._lower.extend([lower] * n)
        self._upper.extend([upper] * n)
        return start

    def __getitem__(self, key: Hashable) -> int:
        try:
            return self._index[key]
        except KeyError:
            raise SolverError(f"unknown variable {key!r}") from None

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def add_objective(self, key: Hashable, coefficient: float) -> None:
        """Accumulate onto a variable's objective coefficient."""
        self._objective[self[key]] += coefficient

    @property
    def objective(self) -> np.ndarray:
        return np.array(self._objective)

    @property
    def bounds(self) -> List[Tuple[float, Optional[float]]]:
        return list(zip(self._lower, self._upper))

    def keys(self) -> List[Hashable]:
        return list(self._index)


class ConstraintSet:
    """COO accumulator for one family (<= or ==) of linear constraints.

    Scalar appends (``new_row``/``add_term``/``add_row``) and batched
    numpy appends (``new_rows``/``add_terms``) can be mixed freely; the
    matrix is materialized once in :meth:`matrix`.
    """

    def __init__(self):
        self._rows: List[int] = []
        self._cols: List[int] = []
        self._vals: List[float] = []
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._rhs: List[float] = []

    def new_row(self, rhs: float) -> int:
        self._rhs.append(rhs)
        return len(self._rhs) - 1

    def new_rows(self, rhs: Sequence[float]) -> int:
        """Append a block of rows; returns the first row's index."""
        values = np.asarray(rhs, dtype=float).ravel()
        start = len(self._rhs)
        self._rhs.extend(values.tolist())
        return start

    def add_term(self, row: int, col: int, value: float) -> None:
        if not 0 <= row < len(self._rhs):
            raise SolverError(f"constraint row {row} does not exist")
        self._rows.append(row)
        self._cols.append(col)
        self._vals.append(value)

    def add_terms(self, rows, cols, values) -> None:
        """Append a batch of COO triplets; scalars broadcast.

        ``rows``/``cols``/``values`` are broadcast against each other, so
        e.g. a whole column of identical coefficients is
        ``add_terms(row_block, col_block, 1.0)``.
        """
        rows, cols, values = np.broadcast_arrays(
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(values, dtype=float),
        )
        if rows.size == 0:
            return
        if rows.min() < 0 or rows.max() >= len(self._rhs):
            raise SolverError(
                f"constraint rows [{rows.min()}, {rows.max()}] out of range "
                f"(have {len(self._rhs)} rows)"
            )
        self._chunks.append((
            rows.ravel().copy(), cols.ravel().copy(), values.ravel().copy()
        ))

    def add_row(self, terms: Sequence[Tuple[int, float]], rhs: float) -> int:
        row = self.new_row(rhs)
        for col, value in terms:
            self.add_term(row, col, value)
        return row

    def _triplets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = [np.asarray(self._rows, dtype=np.int64)]
        cols = [np.asarray(self._cols, dtype=np.int64)]
        vals = [np.asarray(self._vals, dtype=float)]
        for chunk_rows, chunk_cols, chunk_vals in self._chunks:
            rows.append(chunk_rows)
            cols.append(chunk_cols)
            vals.append(chunk_vals)
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    def matrix(self, n_cols: int) -> Optional[sparse.csr_matrix]:
        if not self._rhs:
            return None
        rows, cols, vals = self._triplets()
        return sparse.coo_matrix(
            (vals, (rows, cols)), shape=(len(self._rhs), n_cols)
        ).tocsr()

    @property
    def nnz(self) -> int:
        return len(self._rows) + sum(chunk[0].size for chunk in self._chunks)

    @property
    def rhs(self) -> np.ndarray:
        return np.array(self._rhs)

    def __len__(self) -> int:
        return len(self._rhs)


@dataclass
class LPSolution:
    """A solved LP: objective value, per-variable values, and solve stats.

    ``dual_ineq``/``dual_eq`` carry the constraint marginals HiGHS
    returned (when it did): a dual-feasible point of this instance.
    Dual feasibility depends only on the matrix and objective — not the
    right-hand side — so a structurally identical re-solve (same
    signature, perturbed demand) can price its own RHS against these
    duals for a valid lower bound without solving anything
    (:meth:`LPInstance.dual_bound`).
    """

    objective: float
    values: Dict[Hashable, float]
    stats: SolveStats = field(default_factory=SolveStats)
    dual_ineq: Optional[Tuple[float, ...]] = field(default=None, repr=False)
    dual_eq: Optional[Tuple[float, ...]] = field(default=None, repr=False)

    def value(self, key: Hashable, default: float = 0.0) -> float:
        return self.values.get(key, default)


class LinearProgram:
    """A minimization LP assembled from a registry and constraint sets."""

    def __init__(self):
        self.variables = VariableRegistry()
        self.less_equal = ConstraintSet()
        self.equal = ConstraintSet()

    def snapshot(self, assembly_seconds: float = 0.0) -> "LPInstance":
        """Materialize the assembled problem into a reusable
        :class:`LPInstance` (CSR matrices, bounds, objective, key map).

        The snapshot is what warm-started re-solves operate on: it can be
        solved cold, solved restricted to a seed support, and priced for
        optimality — all without touching the accumulators again.
        """
        n = len(self.variables)
        if n == 0:
            raise SolverError("LP snapshot: no variables")
        t0 = time.perf_counter()
        a_ub = self.less_equal.matrix(n)
        a_eq = self.equal.matrix(n)
        instance = LPInstance(
            c=self.variables.objective,
            bounds=self.variables.bounds,
            a_ub=a_ub,
            b_ub=self.less_equal.rhs if a_ub is not None else None,
            a_eq=a_eq,
            b_eq=self.equal.rhs if a_eq is not None else None,
            keys=self.variables.keys(),
            assembly_seconds=assembly_seconds + (time.perf_counter() - t0),
        )
        return instance

    def solve(self, description: str = "LP",
              assembly_seconds: float = 0.0) -> LPSolution:
        """Solve with HiGHS; raise typed errors on failure.

        ``assembly_seconds`` lets callers fold their formulation-build
        time into the returned :class:`SolveStats` (the matrix conversion
        done here is added on top).
        """
        return self.snapshot(assembly_seconds=assembly_seconds).solve(
            description=description
        )


class LPInstance:
    """A materialized LP snapshot: solve cold, or warm-start from a seed.

    The instance owns the final CSR matrices, bounds, objective, and the
    variable-key map of one assembled problem.  Day-N's solution support
    can seed day-N+1's solve (:meth:`solve_seeded`): only the seed's
    columns enter the restricted problem, the solution is then *priced*
    against every excluded column (the simplex optimality test, using the
    duals HiGHS returns), and columns that price negative are pulled in
    for bounded re-solve rounds.  A seeded solve therefore either returns
    a **certified optimal** solution of the full LP or ``None`` — the
    caller falls back to a cold solve, never to a silently suboptimal
    answer.
    """

    def __init__(self, c: np.ndarray,
                 bounds: List[Tuple[float, Optional[float]]],
                 a_ub: Optional[sparse.csr_matrix],
                 b_ub: Optional[np.ndarray],
                 a_eq: Optional[sparse.csr_matrix],
                 b_eq: Optional[np.ndarray],
                 keys: List[Hashable],
                 assembly_seconds: float = 0.0):
        self.c = np.asarray(c, dtype=float)
        self.bounds = list(bounds)
        self.a_ub = a_ub
        self.b_ub = b_ub
        self.a_eq = a_eq
        self.b_eq = b_eq
        self.keys = list(keys)
        self.index: Dict[Hashable, int] = {
            key: i for i, key in enumerate(self.keys)
        }
        self.assembly_seconds = assembly_seconds

    @property
    def n_rows(self) -> int:
        return ((self.a_ub.shape[0] if self.a_ub is not None else 0)
                + (self.a_eq.shape[0] if self.a_eq is not None else 0))

    @property
    def n_cols(self) -> int:
        return len(self.keys)

    @property
    def nnz(self) -> int:
        return ((self.a_ub.nnz if self.a_ub is not None else 0)
                + (self.a_eq.nnz if self.a_eq is not None else 0))

    # ------------------------------------------------------------------
    def solve(self, description: str = "LP") -> LPSolution:
        """Cold solve of the full instance (the historical behaviour)."""
        t1 = time.perf_counter()
        result = linprog(
            c=self.c,
            A_ub=self.a_ub,
            b_ub=self.b_ub,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=self.bounds,
            method="highs",
        )
        t2 = time.perf_counter()
        if result.status == 2:
            raise InfeasibleError(f"{description}: infeasible")
        if result.status != 0:
            raise SolverError(
                f"{description}: solver status {result.status}: {result.message}"
            )
        values = {
            key: float(result.x[i]) for i, key in enumerate(self.keys)
        }
        stats = SolveStats(
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            nnz=self.nnz,
            assembly_seconds=self.assembly_seconds,
            solver_seconds=t2 - t1,
            status=int(result.status),
        )
        dual_ineq, dual_eq = self._marginals_of(result)
        return LPSolution(objective=float(result.fun), values=values,
                          stats=stats, dual_ineq=dual_ineq, dual_eq=dual_eq)

    def _marginals_of(self, result) -> Tuple[Optional[Tuple[float, ...]],
                                             Optional[Tuple[float, ...]]]:
        """Constraint marginals as picklable tuples (None when absent)."""
        dual_ineq = dual_eq = None
        if self.a_ub is not None:
            marginals = getattr(getattr(result, "ineqlin", None),
                                "marginals", None)
            if marginals is not None:
                dual_ineq = tuple(float(v) for v in marginals)
        if self.a_eq is not None:
            marginals = getattr(getattr(result, "eqlin", None),
                                "marginals", None)
            if marginals is not None:
                dual_eq = tuple(float(v) for v in marginals)
        return dual_ineq, dual_eq

    # ------------------------------------------------------------------
    def support(self, solution: LPSolution,
                threshold: float = 1e-12) -> Tuple[Hashable, ...]:
        """The solution's support: keys of meaningfully nonzero values."""
        return tuple(
            key for key in self.keys
            if abs(solution.values.get(key, 0.0)) > threshold
        )

    def _forced_columns(self) -> np.ndarray:
        """Columns that must enter every restricted problem: pricing can
        only certify excluded columns sitting feasibly at a zero lower
        bound, so anything with a nonzero lower bound or a finite upper
        bound is kept in."""
        forced = np.zeros(self.n_cols, dtype=bool)
        for i, (lower, upper) in enumerate(self.bounds):
            if lower != 0.0 or upper is not None:
                forced[i] = True
        return forced

    def solve_seeded(self, seed: Iterable[Hashable],
                     description: str = "LP",
                     tolerance: float = 1e-6,
                     max_pricing_rounds: int = 2) -> Optional[LPSolution]:
        """Warm-started solve: restrict to the seed support, then price.

        Returns ``None`` whenever the warm path cannot *certify* the full
        LP's optimum — restricted infeasibility, missing duals, or columns
        still pricing negative after ``max_pricing_rounds`` of pulling
        violators in.  Callers treat ``None`` as "cold-solve instead".
        A non-``None`` result is the exact optimum of the full instance
        (within HiGHS tolerances), with ``stats.arm == "warm"``.
        """
        t0 = time.perf_counter()
        selected = self._forced_columns()
        hit = False
        for key in seed:
            i = self.index.get(key)
            if i is not None:
                selected[i] = True
                hit = True
        if not hit or bool(selected.all()):
            return None  # nothing to restrict — cold solve is the same work
        a_ub_c = self.a_ub.tocsc() if self.a_ub is not None else None
        a_eq_c = self.a_eq.tocsc() if self.a_eq is not None else None

        for _ in range(max(1, max_pricing_rounds)):
            cols = np.nonzero(selected)[0]
            result = linprog(
                c=self.c[cols],
                A_ub=a_ub_c[:, cols] if a_ub_c is not None else None,
                b_ub=self.b_ub,
                A_eq=a_eq_c[:, cols] if a_eq_c is not None else None,
                b_eq=self.b_eq,
                bounds=[self.bounds[i] for i in cols],
                method="highs",
            )
            if result.status != 0:
                return None  # restricted problem unusable; fall back cold
            violating = self._price_excluded(
                result, selected, a_ub_c, a_eq_c, tolerance
            )
            if violating is None:
                return None  # no duals available — cannot certify
            if violating.size == 0:
                values = {key: 0.0 for key in self.keys}
                for local, i in enumerate(cols):
                    values[self.keys[i]] = float(result.x[local])
                stats = SolveStats(
                    n_rows=self.n_rows,
                    n_cols=int(cols.size),
                    nnz=self.nnz,
                    assembly_seconds=self.assembly_seconds,
                    solver_seconds=time.perf_counter() - t0,
                    status=int(result.status),
                    arm="warm",
                )
                # The restricted duals just priced every excluded column
                # non-negative, so they are dual-feasible for the FULL
                # instance — as good a certificate as a cold solve's.
                dual_ineq, dual_eq = self._marginals_of(result)
                return LPSolution(objective=float(result.fun),
                                  values=values, stats=stats,
                                  dual_ineq=dual_ineq, dual_eq=dual_eq)
            selected[violating] = True
        return None

    def _price_excluded(self, result, selected: np.ndarray,
                        a_ub_c, a_eq_c,
                        tolerance: float) -> Optional[np.ndarray]:
        """Reduced costs of excluded columns from the restricted duals.

        For the minimization LP with excluded columns at lower bound 0,
        optimality of the restricted solution for the *full* problem
        requires ``r_j = c_j - A_ub[:,j]'y_ub - A_eq[:,j]'y_eq >= -tol``
        for every excluded ``j``, where ``y`` are scipy's constraint
        marginals.  Returns the indices violating that, or ``None`` when
        the solver returned no duals.
        """
        excluded = np.nonzero(~selected)[0]
        if excluded.size == 0:
            return excluded
        reduced = self.c[excluded].copy()
        if a_ub_c is not None:
            marginals = getattr(getattr(result, "ineqlin", None),
                                "marginals", None)
            if marginals is None:
                return None
            reduced -= np.asarray(
                a_ub_c[:, excluded].T @ np.asarray(marginals, dtype=float)
            ).ravel()
        if a_eq_c is not None:
            marginals = getattr(getattr(result, "eqlin", None),
                                "marginals", None)
            if marginals is None:
                return None
            reduced -= np.asarray(
                a_eq_c[:, excluded].T @ np.asarray(marginals, dtype=float)
            ).ravel()
        slack = tolerance * np.maximum(1.0, np.abs(self.c[excluded]))
        return excluded[reduced < -slack]

    # ------------------------------------------------------------------
    def dual_bound(self, dual_ineq: Optional[Sequence[float]],
                   dual_eq: Optional[Sequence[float]],
                   tolerance: float = 1e-6) -> Optional[float]:
        """A valid lower bound from a cached dual-feasible point.

        Weak duality: for the minimization LP, any ``(λ ≤ 0, μ)`` whose
        reduced costs ``r = c − A_ub'λ − A_eq'μ`` price every column
        non-negatively bounds the optimum from below by
        ``λ'b_ub + μ'b_eq`` (plus the box-bound terms
        ``Σ min(r_j·l_j, r_j·u_j)``).  Feasibility of ``(λ, μ)`` depends
        only on the matrix and objective — so duals cached from a
        structurally identical solve (day N) price THIS instance's RHS
        (day N+1) into a tight bound with zero solver work.  Returns
        ``None`` when the duals don't fit (shape mismatch, or a column
        with no finite upper bound pricing below ``-tolerance``) —
        never a wrong bound.
        """
        n_ub = self.a_ub.shape[0] if self.a_ub is not None else 0
        n_eq = self.a_eq.shape[0] if self.a_eq is not None else 0
        lam = np.asarray(dual_ineq if dual_ineq is not None else [],
                         dtype=float)
        mu = np.asarray(dual_eq if dual_eq is not None else [], dtype=float)
        if lam.size != n_ub or mu.size != n_eq:
            return None
        lam = np.minimum(lam, 0.0)  # λ > 0 on a ≤-row is solver noise
        reduced = self.c.copy()
        bound = 0.0
        if n_ub:
            reduced -= self.a_ub.T @ lam
            bound += float(lam @ self.b_ub)
        if n_eq:
            reduced -= self.a_eq.T @ mu
            bound += float(mu @ self.b_eq)
        lowers = np.array([low for low, _ in self.bounds])
        uppers = np.array([np.inf if up is None else up
                           for _, up in self.bounds])
        slack = tolerance * np.maximum(1.0, np.abs(self.c))
        negative = reduced < 0
        if bool((negative & np.isinf(uppers) & (reduced < -slack)).any()):
            return None  # an uncapped column prices negative: no bound
        capped = negative & np.isfinite(uppers)
        if bool(capped.any()):
            bound += float((reduced[capped] * uppers[capped]).sum())
        positive = reduced > 0
        if bool(positive.any()):
            bound += float((reduced[positive] * lowers[positive]).sum())
        return bound


class WarmStartCache:
    """Solution-support seeds keyed by problem-structure signature.

    Day-N's optimal support (plus every capacity column) is stored under
    the *structural* signature of its instance — scenario down-set,
    config tuple, slot grid, demand-activity mask — so day-N+1's solve
    of the *same structure with perturbed numbers* can seed a restricted
    solve.  Each entry also keeps the solve's **dual** point: structure
    determines the matrix and objective, so cached duals stay
    dual-feasible for every later instance with the same signature and
    price its RHS into a valid lower bound (:meth:`LPInstance.dual_bound`)
    — the bound the portfolio race uses to certify heuristic plans
    without touching the solver.  The cache is thread-safe, bounded
    (FIFO eviction), and counts hits/misses/stores so callers can report
    reuse.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise SolverError("WarmStartCache needs max_entries >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        #: signature -> (seed support, dual_ineq, dual_eq)
        self._entries: Dict[Hashable, Tuple] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.dual_hits = 0

    def get(self, signature: Hashable) -> Optional[Tuple[Hashable, ...]]:
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return entry[0]

    def get_duals(self, signature: Hashable
                  ) -> Optional[Tuple[Optional[Tuple[float, ...]],
                                      Optional[Tuple[float, ...]]]]:
        """The cached ``(dual_ineq, dual_eq)`` point, or ``None``.

        Does not count toward hit/miss (it rides along with the seed);
        ``dual_hits`` tracks how often a bound was actually available.
        """
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None or (entry[1] is None and entry[2] is None):
                return None
            self.dual_hits += 1
            return entry[1], entry[2]

    def put(self, signature: Hashable, seed: Iterable[Hashable],
            dual_ineq: Optional[Tuple[float, ...]] = None,
            dual_eq: Optional[Tuple[float, ...]] = None) -> None:
        support = tuple(seed)
        if not support:
            return
        with self._lock:
            if signature not in self._entries and \
                    len(self._entries) >= self.max_entries:
                self._entries.pop(next(iter(self._entries)))
            self._entries[signature] = (support, dual_ineq, dual_eq)
            self.stores += 1

    def seeds_snapshot(self) -> Dict[Hashable, Tuple]:
        """A picklable copy (shipped to pool workers at initialization)."""
        with self._lock:
            return dict(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses, "stores": self.stores,
                    "dual_hits": self.dual_hits}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
