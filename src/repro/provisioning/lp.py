"""Thin sparse-LP scaffolding over HiGHS.

Every optimization in the library — the Switchboard provisioning LP, the
allocation-plan LP, the §3.2 backup LP — is assembled through this layer:
a variable registry that hands out column indices by name, a constraint
accumulator that collects COO triplets, and an instance whose ``solve``
goes through :mod:`repro.provisioning.highs`, which maps solver statuses
onto the library's exception types.

The matrix is a :class:`CscMatrix`: the three numpy arrays HiGHS loads,
built from the triplets with one sort.  Nothing here imports
``scipy.sparse``, which costs about 20 MB per process for what are three
array operations here; only :attr:`LPInstance.a_ub`/:attr:`LPInstance.a_eq`,
read by the ``linprog`` fallback alone, build scipy matrices.

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

import functools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Any, Dict, Hashable, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from repro.core.errors import SolverError


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

    ``assembly_seconds`` covers formulation build plus COO→CSC conversion;
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


#: Largest index (and entry count) HiGHS's array ``passModel`` takes.
_INT32_MAX = int(np.iinfo(np.int32).max)


class CscMatrix(NamedTuple):
    """A sparse matrix in compressed sparse column form, as HiGHS loads it.

    Column ``j``'s entries are ``data[indptr[j]:indptr[j + 1]]``, in the
    rows ``indices[indptr[j]:indptr[j + 1]]`` (ascending).  Code reading
    a matrix touches only these four fields and :attr:`nnz`, so a scipy
    ``csc_array`` serves wherever one is passed in.
    """

    data: np.ndarray     # float64
    indices: np.ndarray  # int32 row of each entry
    indptr: np.ndarray   # int32, n_cols + 1 offsets into data
    shape: Tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @classmethod
    def from_triplets(cls, rows: np.ndarray, cols: np.ndarray,
                      values: np.ndarray,
                      shape: Tuple[int, int]) -> "CscMatrix":
        """The matrix with ``values[i]`` at ``(rows[i], cols[i])``.

        Entries are ordered by one sort on the key ``col * n_rows + row``
        (a two-key ``lexsort`` is several times slower); explicit zeros
        are kept.  A position given twice, an index out of ``shape`` and a
        matrix larger than int32 can index raise :class:`SolverError`.
        """
        n_rows, n_cols = shape
        if max(n_rows, n_cols, rows.size) > _INT32_MAX:
            raise SolverError(f"LP matrix {n_rows}x{n_cols} with "
                              f"{rows.size} entries exceeds int32 indexing")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows
                          or cols.min() < 0 or cols.max() >= n_cols):
            raise SolverError(f"LP matrix entry outside its {n_rows}x"
                              f"{n_cols} shape")
        key = cols.astype(np.int64) * n_rows + rows
        order = np.argsort(key)
        key = key[order]
        repeats = np.flatnonzero(key[1:] == key[:-1])
        if repeats.size:
            repeated = int(key[repeats[0]])
            raise SolverError(
                f"LP matrix entry (row {repeated % n_rows}, column "
                f"{repeated // n_rows}) given twice")
        indptr = np.zeros(n_cols + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n_cols), out=indptr[1:])
        return cls(np.asarray(values, dtype=np.float64)[order],
                   rows[order].astype(np.int32), indptr, (n_rows, n_cols))


def transpose_times(matrix: CscMatrix, y: np.ndarray) -> np.ndarray:
    """``A'y`` for a CSC ``A``: each column's products summed in entry
    order from 0.0, the order (and so the rounding) of scipy's CSR
    product with ``A'``.  ``np.add.reduceat`` sums pairwise and would
    round otherwise."""
    n_cols = matrix.shape[1]
    column = np.repeat(np.arange(n_cols), np.diff(matrix.indptr))
    return np.bincount(column, weights=matrix.data * y[matrix.indices],
                       minlength=n_cols)


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
    matrix is materialized once, by :meth:`LinearProgram.snapshot`.
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
    """A solved LP: objective value, the column values ``x`` in column
    order, and solve stats.

    ``values`` maps each column's key to its value; it is built on first
    read from ``keys`` (the instance's), so a caller reading columns by
    position never pays for it.  ``dual_ineq``/``dual_eq`` carry the
    constraint marginals HiGHS returned (when it did): a dual-feasible
    point of this instance, and of any instance with the same matrix and
    objective whatever its RHS (:meth:`LPInstance.dual_bound`).
    ``basis`` is HiGHS's final simplex basis (``None`` on the ``linprog``
    fallback), where such a re-solve can start.
    """

    objective: float
    x: np.ndarray = field(repr=False)
    keys: Optional[Sequence[Hashable]] = field(default=None, repr=False,
                                               compare=False)
    stats: SolveStats = field(default_factory=SolveStats)
    dual_ineq: Optional[np.ndarray] = field(default=None, repr=False)
    dual_eq: Optional[np.ndarray] = field(default=None, repr=False)
    basis: Any = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def values(self) -> Dict[Hashable, float]:
        if self.keys is None:
            raise SolverError("LP solution of an instance without column "
                              "keys: read its values from x")
        return dict(zip(self.keys, self.x.tolist()))

    def value(self, key: Hashable, default: float = 0.0) -> float:
        return self.values.get(key, default)


class LinearProgram:
    """A minimization LP assembled from a registry and constraint sets."""

    def __init__(self):
        self.variables = VariableRegistry()
        self.less_equal = ConstraintSet()
        self.equal = ConstraintSet()

    def snapshot(self, assembly_seconds: float = 0.0) -> "LPInstance":
        """Materialize the assembled problem into an :class:`LPInstance`
        (one stacked CSC matrix, bounds, objective, key map)."""
        n = len(self.variables)
        if n == 0:
            raise SolverError("LP snapshot: no variables")
        t0 = time.perf_counter()
        # The stacking linprog does: <= rows, then == rows, as CSC.
        n_ub = len(self.less_equal)
        ub_rows, ub_cols, ub_vals = self.less_equal._triplets()
        eq_rows, eq_cols, eq_vals = self.equal._triplets()
        matrix = CscMatrix.from_triplets(
            np.concatenate([ub_rows, eq_rows + n_ub]),
            np.concatenate([ub_cols, eq_cols]),
            np.concatenate([ub_vals, eq_vals]),
            (n_ub + len(self.equal), n))
        bounds = self.variables.bounds
        return LPInstance(
            c=self.variables.objective,
            lower=np.array([low for low, _ in bounds], dtype=float),
            upper=np.array([np.inf if up is None else up for _, up in bounds],
                           dtype=float),
            matrix=matrix,
            n_ub=n_ub,
            b_ub=self.less_equal.rhs,
            b_eq=self.equal.rhs,
            keys=self.variables.keys(),
            assembly_seconds=assembly_seconds + (time.perf_counter() - t0),
        )

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
    """A materialized LP: objective, column bounds, right-hand sides and
    one CSC matrix of the ``<=`` rows (the first ``n_ub``) then the ``==``
    rows — the layout HiGHS loads.  :meth:`with_rhs` shares the matrix,
    objective and keys under another RHS and bounds; ``sources`` is the
    formulation's record of where those come from
    (:class:`~repro.provisioning.formulation.RhsSources`).  ``keys`` (one
    per column) may be ``None`` for an instance cut out of a larger one
    (:class:`~repro.allocation.offline.AllocationLP`).
    """

    def __init__(self, c: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                 matrix: CscMatrix, n_ub: int,
                 b_ub: np.ndarray, b_eq: np.ndarray,
                 keys: Optional[List[Hashable]],
                 assembly_seconds: float = 0.0,
                 sources: Any = None):
        self.c = np.asarray(c, dtype=float)
        self.lower = lower
        self.upper = upper
        self.matrix = matrix
        self.n_ub = n_ub
        self.b_ub = b_ub
        self.b_eq = b_eq
        self.keys = keys
        self.assembly_seconds = assembly_seconds
        self.sources = sources

    def with_rhs(self, b_ub: np.ndarray, b_eq: np.ndarray,
                 upper: np.ndarray) -> "LPInstance":
        """This LP under another RHS and column upper bounds."""
        return LPInstance(self.c, self.lower, upper, self.matrix, self.n_ub,
                          b_ub, b_eq, self.keys, sources=self.sources)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def a_ub(self) -> Any:
        """The ``<=`` rows as a scipy sparse matrix, ``None`` without any."""
        return self._scipy_rows(slice(None, self.n_ub)) if self.n_ub else None

    @property
    def a_eq(self) -> Any:
        """The ``==`` rows as a scipy sparse matrix, ``None`` without any."""
        return (self._scipy_rows(slice(self.n_ub, None))
                if self.n_rows > self.n_ub else None)

    def _scipy_rows(self, rows: slice) -> Any:
        # Only the linprog fallback reads these, and it imports
        # scipy.optimize (and with it scipy.sparse) anyway.
        from scipy import sparse

        matrix = self.matrix
        return sparse.csc_array((matrix.data, matrix.indices, matrix.indptr),
                                shape=matrix.shape)[rows]

    @property
    def bounds(self) -> List[Tuple[float, Optional[float]]]:
        """``(lower, upper)`` per column, ``None`` for no upper bound."""
        return [(low, None if up == np.inf else up)
                for low, up in zip(self.lower.tolist(), self.upper.tolist())]

    # ------------------------------------------------------------------
    def solve(self, description: str = "LP", basis: Any = None) -> LPSolution:
        """Solve through :func:`repro.provisioning.highs.solve`, from
        ``basis`` when given; the result carries the final basis."""
        from repro.provisioning import highs  # highs imports this module

        solution, solution.basis = highs.solve(self, basis, description)
        return solution

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
        only on the matrix and objective — so duals cached from an
        earlier solve of the same matrix (day N) price THIS instance's
        RHS (day N+1) into a tight bound with zero solver work.  Returns
        ``None`` when the duals don't fit (shape mismatch, or a column
        with no finite upper bound pricing below ``-tolerance``) —
        never a wrong bound.
        """
        n_ub = self.n_ub
        n_eq = self.n_rows - n_ub
        lam = np.asarray(dual_ineq if dual_ineq is not None else [],
                         dtype=float)
        mu = np.asarray(dual_eq if dual_eq is not None else [], dtype=float)
        if lam.size != n_ub or mu.size != n_eq:
            return None
        lam = np.minimum(lam, 0.0)  # λ > 0 on a ≤-row is solver noise
        # Each block's product is taken on its own (zero-padded) so the
        # sums round exactly as the per-block products would.
        reduced = self.c.copy()
        bound = 0.0
        if n_ub:
            reduced -= transpose_times(self.matrix,
                                       np.concatenate([lam, np.zeros(n_eq)]))
            bound += float(lam @ self.b_ub)
        if n_eq:
            reduced -= transpose_times(self.matrix,
                                       np.concatenate([np.zeros(n_ub), mu]))
            bound += float(mu @ self.b_eq)
        uppers = self.upper
        slack = tolerance * np.maximum(1.0, np.abs(self.c))
        negative = reduced < 0
        if bool((negative & np.isinf(uppers) & (reduced < -slack)).any()):
            return None  # an uncapped column prices negative: no bound
        capped = negative & np.isfinite(uppers)
        if bool(capped.any()):
            bound += float((reduced[capped] * uppers[capped]).sum())
        positive = reduced > 0
        if bool(positive.any()):
            bound += float((reduced[positive] * self.lower[positive]).sum())
        return bound


class WarmEntry(NamedTuple):
    """One :class:`WarmStartCache` entry: an assembled instance, the
    final basis of its last solve, and that solve's dual point."""

    instance: LPInstance
    basis: Any
    dual_ineq: Optional[np.ndarray]
    dual_eq: Optional[np.ndarray]

    @property
    def nbytes(self) -> int:
        """The memory the entry holds: the instance's and the dual point's
        arrays, and 80 bytes per column key (a 4-tuple and its slot)."""
        instance, matrix = self.instance, self.instance.matrix
        arrays = (matrix.data, matrix.indices, matrix.indptr, instance.c,
                  instance.lower, instance.upper, instance.b_ub,
                  instance.b_eq, self.dual_ineq, self.dual_eq)
        return (sum(a.nbytes for a in arrays if a is not None)
                + 80 * instance.n_cols)


class WarmStartCache:
    """Assembled LPs, their bases and duals, keyed by LP signature.

    A signature (:meth:`~repro.provisioning.formulation.ScenarioLP.
    signature`) pins everything that shapes an LP's matrix, objective,
    rows and columns, so day-N+1's problem under day-N's signature is
    day-N's LP with another right-hand side.  Each entry holds:

    * the assembled :class:`LPInstance` — a hit re-prices its RHS and
      column bounds instead of assembling again;
    * the HiGHS basis of the last solve — an exact re-solve starts the
      dual simplex there;
    * the solve's dual point — it stays dual-feasible under any RHS and
      prices the new one into a valid lower bound
      (:meth:`LPInstance.dual_bound`), which the portfolio race uses to
      certify heuristic plans without touching the solver.

    The cache is thread-safe, bounded by ``max_entries`` and by
    :attr:`max_bytes` of :attr:`WarmEntry.nbytes` (least recently used
    evicted first), and counts ``hits``/``misses`` (instance lookups),
    ``stores`` and ``dual_hits`` (a bound was available) so callers can
    report reuse.  The threads of a ``max`` sweep share one cache.
    """

    #: Room for a default-topology day's scenario sweep (plan-sweep's 23
    #: entries take 14.5 MiB), while the one-off rescale LPs of a
    #: long-lived autoscaled controller cannot pile up.
    max_bytes = 16 * 2 ** 20

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise SolverError("WarmStartCache needs max_entries >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, WarmEntry]" = OrderedDict()
        self._nbytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.dual_hits = 0

    def get(self, signature: Hashable) -> Optional[WarmEntry]:
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(signature)
            return entry

    def get_duals(self, signature: Hashable
                  ) -> Optional[Tuple[Optional[np.ndarray],
                                      Optional[np.ndarray]]]:
        """The cached ``(dual_ineq, dual_eq)`` point, or ``None``.

        Does not count toward hit/miss; ``dual_hits`` tracks how often a
        bound was actually available.
        """
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None or (entry.dual_ineq is None
                                 and entry.dual_eq is None):
                return None
            self.dual_hits += 1
            self._entries.move_to_end(signature)
            return entry.dual_ineq, entry.dual_eq

    def put(self, signature: Hashable, instance: LPInstance,
            basis: Any = None, dual_ineq: Optional[np.ndarray] = None,
            dual_eq: Optional[np.ndarray] = None) -> None:
        entry = WarmEntry(instance, basis, dual_ineq, dual_eq)
        with self._lock:
            if signature in self._entries:
                self._nbytes -= self._entries.pop(signature).nbytes
            # The newest entry stays even when it alone is over budget.
            while self._entries and (
                    len(self._entries) >= self.max_entries
                    or self._nbytes + entry.nbytes > self.max_bytes):
                self._nbytes -= self._entries.popitem(last=False)[1].nbytes
            self._entries[signature] = entry
            self._nbytes += entry.nbytes
            self.stores += 1

    def clear(self) -> None:
        """Drop every entry; the counters keep running."""
        with self._lock:
            self._entries.clear()
            self._nbytes = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses, "stores": self.stores,
                    "dual_hits": self.dual_hits}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
