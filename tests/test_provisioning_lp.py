"""Tests for the LP scaffolding and the §3.2 backup LP."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import InfeasibleError, SolverError
from repro.provisioning.backup_lp import solve_backup_lp, total_backup
from repro.provisioning.lp import (
    ConstraintSet,
    CscMatrix,
    LinearProgram,
    VariableRegistry,
    conditioning_scale,
    transpose_times,
)


def _dense(matrix) -> np.ndarray:
    """A :class:`CscMatrix` as a dense array."""
    dense = np.zeros(matrix.shape)
    for col in range(matrix.shape[1]):
        span = slice(matrix.indptr[col], matrix.indptr[col + 1])
        dense[matrix.indices[span], col] = matrix.data[span]
    return dense


def _program(n_cols: int) -> LinearProgram:
    lp = LinearProgram()
    lp.variables.add_batch([f"x{i}" for i in range(n_cols)])
    return lp


class TestConditioningScale:
    def test_uniform_values_normalize_to_one(self):
        assert conditioning_scale([5.0, 5.0]) == pytest.approx(5.0)

    def test_geometric_mean_centers_the_range(self):
        scale = conditioning_scale([1e-4, 1e4])
        assert scale == pytest.approx(1.0)

    def test_ignores_zeros_and_gathers_all_groups(self):
        scale = conditioning_scale([0.0, 4.0], [9.0], np.zeros(3))
        assert scale == pytest.approx(6.0)  # sqrt(4 * 9)

    def test_no_positive_entries_means_unit_scale(self):
        assert conditioning_scale([0.0, 0.0], []) == 1.0

    def test_subnormal_scale_divides_finitely(self):
        tiny = 2.2250738585e-313
        scale = conditioning_scale([tiny])
        assert np.isfinite(tiny / scale)
        assert tiny / scale == pytest.approx(1.0)

    def test_extreme_range_clamps_largest_to_solver_window(self):
        scale = conditioning_scale([1e-78, 1.0])
        assert 1.0 / scale <= 1e9 * (1 + 1e-12)


class TestVariableRegistry:
    def test_indices_are_sequential(self):
        registry = VariableRegistry()
        assert registry.add("a") == 0
        assert registry.add("b") == 1
        assert registry["a"] == 0

    def test_duplicate_rejected(self):
        registry = VariableRegistry()
        registry.add("a")
        with pytest.raises(SolverError):
            registry.add("a")

    def test_unknown_lookup_raises(self):
        with pytest.raises(SolverError):
            VariableRegistry()["missing"]

    def test_objective_accumulates(self):
        registry = VariableRegistry()
        registry.add("a", objective=1.0)
        registry.add_objective("a", 2.0)
        assert registry.objective.tolist() == [3.0]

    def test_bounds(self):
        registry = VariableRegistry()
        registry.add("a", lower=1.0, upper=5.0)
        assert registry.bounds == [(1.0, 5.0)]


class TestVariableRegistryBatch:
    def test_batch_indices_consecutive(self):
        registry = VariableRegistry()
        registry.add("first")
        start = registry.add_batch(["a", "b", "c"], objective=2.0)
        assert start == 1
        assert registry["c"] == 3
        assert registry.objective.tolist() == [0.0, 2.0, 2.0, 2.0]

    def test_batch_per_key_objectives_and_bounds(self):
        registry = VariableRegistry()
        registry.add_batch(["a", "b"], objective=[1.0, 3.0],
                           lower=0.5, upper=9.0)
        assert registry.objective.tolist() == [1.0, 3.0]
        assert registry.bounds == [(0.5, 9.0), (0.5, 9.0)]

    def test_batch_duplicate_rejected(self):
        registry = VariableRegistry()
        registry.add("a")
        with pytest.raises(SolverError):
            registry.add_batch(["b", "a"])

    def test_batch_objective_shape_mismatch_rejected(self):
        with pytest.raises(SolverError):
            VariableRegistry().add_batch(["a", "b"], objective=[1.0])

    def test_empty_batch_is_noop(self):
        registry = VariableRegistry()
        assert registry.add_batch([]) == 0
        assert len(registry) == 0


class TestConstraintSet:
    def test_rows_and_matrix(self):
        lp = _program(2)
        constraints = lp.less_equal
        row = constraints.new_row(7.0)
        constraints.add_term(row, 0, 2.0)
        constraints.add_term(row, 1, -1.0)
        matrix = lp.snapshot().matrix
        assert matrix.shape == (1, 2)
        assert _dense(matrix).tolist() == [[2.0, -1.0]]
        assert constraints.rhs.tolist() == [7.0]

    def test_add_term_to_missing_row_raises(self):
        constraints = ConstraintSet()
        with pytest.raises(SolverError):
            constraints.add_term(0, 0, 1.0)

    def test_empty_matrix_is_none(self):
        instance = _program(3).snapshot()
        assert instance.matrix.shape == (0, 3)
        assert instance.a_ub is None and instance.a_eq is None

    def test_batched_rows_and_terms_match_scalar_path(self):
        scalar_lp = _program(4)
        scalar = scalar_lp.less_equal
        for rhs in (1.0, 2.0, 3.0):
            scalar.new_row(rhs)
        for row in range(3):
            scalar.add_term(row, 0, -1.0)
            scalar.add_term(row, row + 1, 2.0)

        batched_lp = _program(4)
        batched = batched_lp.less_equal
        start = batched.new_rows([1.0, 2.0, 3.0])
        rows = np.arange(start, start + 3)
        batched.add_terms(rows, 0, -1.0)
        batched.add_terms(rows, rows + 1, 2.0)

        assert (_dense(scalar_lp.snapshot().matrix)
                == _dense(batched_lp.snapshot().matrix)).all()
        assert scalar.rhs.tolist() == batched.rhs.tolist()
        assert scalar.nnz == batched.nnz == 6

    def test_scalar_and_batched_appends_mix(self):
        lp = _program(2)
        constraints = lp.less_equal
        row = constraints.new_row(5.0)
        constraints.add_term(row, 1, 1.0)
        start = constraints.new_rows(np.array([7.0]))
        constraints.add_terms([start], [0], [4.0])
        matrix = lp.snapshot().matrix
        assert _dense(matrix).tolist() == [[0.0, 1.0], [4.0, 0.0]]

    def test_batched_out_of_range_row_rejected(self):
        constraints = ConstraintSet()
        constraints.new_rows([1.0, 2.0])
        with pytest.raises(SolverError):
            constraints.add_terms([0, 2], [0, 0], 1.0)

    def test_empty_batch_is_noop(self):
        constraints = ConstraintSet()
        constraints.new_row(1.0)
        constraints.add_terms(np.array([], dtype=int), np.array([], dtype=int),
                              np.array([]))
        assert constraints.nnz == 0


def _random_triplets(rng, n_rows, n_cols, nnz):
    """Distinct positions in shuffled order, values ±1e-8..1e8 with
    explicit ±0 among them; some rows and columns stay empty."""
    flat = rng.choice(n_rows * n_cols, size=nnz, replace=False)
    values = rng.choice([-1.0, 1.0], nnz) * 10.0 ** rng.uniform(-8, 8, nnz)
    values[rng.random(nnz) < 0.1] = 0.0
    values[rng.random(nnz) < 0.1] = -0.0
    return flat % n_rows, flat // n_rows, values


class TestCscMatrix:
    @pytest.mark.parametrize("seed", range(20))
    def test_arrays_are_scipys_byte_for_byte(self, seed):
        from scipy import sparse

        rng = np.random.default_rng(seed)
        n_rows, n_cols = (int(n) for n in rng.integers(1, 40, size=2))
        nnz = int(rng.integers(0, n_rows * n_cols // 3 + 1))
        rows, cols, values = _random_triplets(rng, n_rows, n_cols, nnz)
        got = CscMatrix.from_triplets(rows, cols, values, (n_rows, n_cols))
        want = sparse.csc_array(sparse.coo_matrix(
            (values, (rows, cols)), shape=(n_rows, n_cols)).tocsr())
        assert got.shape == want.shape and got.nnz == want.nnz == nnz
        for name in ("data", "indices", "indptr"):
            mine, theirs = getattr(got, name), getattr(want, name)
            assert mine.dtype == theirs.dtype, name
            assert mine.tobytes() == theirs.tobytes(), name

    def test_snapshot_stacks_equal_rows_under_less_equal_rows(self):
        lp = _program(3)
        lp.equal.add_row([(2, 5.0), (0, 1.0)], 1.0)
        lp.less_equal.add_row([(1, -2.0)], 0.0)
        lp.less_equal.add_row([], 0.0)
        instance = lp.snapshot()
        assert instance.n_ub == 2
        assert _dense(instance.matrix).tolist() == [
            [0.0, -2.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 5.0]]
        assert instance.a_ub.toarray().tolist() == [[0.0, -2.0, 0.0],
                                                    [0.0, 0.0, 0.0]]
        assert instance.a_eq.toarray().tolist() == [[1.0, 0.0, 5.0]]

    @pytest.mark.parametrize("seed", range(20))
    def test_transpose_product_is_scipys_bit_for_bit(self, seed):
        from scipy import sparse

        rng = np.random.default_rng(100 + seed)
        n_rows, n_cols = (int(n) for n in rng.integers(1, 50, size=2))
        nnz = int(rng.integers(0, n_rows * n_cols + 1))
        rows, cols, values = _random_triplets(rng, n_rows, n_cols, nnz)
        y = rng.choice([-1.0, 1.0], n_rows) * 10.0 ** rng.uniform(-8, 8, n_rows)
        y[rng.random(n_rows) < 0.2] = 0.0
        y[rng.random(n_rows) < 0.2] = -0.0
        matrix = CscMatrix.from_triplets(rows, cols, values, (n_rows, n_cols))
        want = sparse.csc_array(
            (values, (rows, cols)), shape=(n_rows, n_cols)).T @ y
        assert transpose_times(matrix, y).tobytes() == want.tobytes()

    def test_signed_zero_sums_match_scipy(self):
        from scipy import sparse

        # Column 0's products are -0.0 and -0.0, column 1 has none and
        # column 2's is 0.0: each sum starts from 0.0, as scipy's does.
        rows, cols = np.array([0, 1, 0]), np.array([0, 0, 2])
        values = np.array([-0.0, 1.0, 0.0])
        y = np.array([1.0, -0.0])
        matrix = CscMatrix.from_triplets(rows, cols, values, (2, 3))
        want = sparse.csc_array((values, (rows, cols)), shape=(2, 3)).T @ y
        assert transpose_times(matrix, y).tobytes() == want.tobytes()

    def test_duplicate_coefficient_raises(self):
        lp = _program(2)
        row = lp.less_equal.new_row(1.0)
        lp.less_equal.add_term(row, 1, 1.0)
        lp.less_equal.add_terms([row], [1], [2.0])
        with pytest.raises(SolverError, match="given twice"):
            lp.snapshot()

    def test_out_of_range_column_raises(self):
        lp = _program(2)
        lp.equal.add_row([(0, 1.0), (2, 1.0)], 1.0)
        with pytest.raises(SolverError, match="outside"):
            lp.snapshot()


class TestLinearProgram:
    def test_simple_minimization(self):
        # min x + 2y  s.t.  x + y >= 4  (i.e. -x - y <= -4), x,y >= 0
        lp = LinearProgram()
        x = lp.variables.add("x", objective=1.0)
        y = lp.variables.add("y", objective=2.0)
        lp.less_equal.add_row([(x, -1.0), (y, -1.0)], -4.0)
        solution = lp.solve()
        assert solution.objective == pytest.approx(4.0)
        assert solution.value("x") == pytest.approx(4.0)
        assert solution.value("y") == pytest.approx(0.0)

    def test_equality_constraint(self):
        lp = LinearProgram()
        x = lp.variables.add("x", objective=1.0)
        y = lp.variables.add("y", objective=3.0)
        lp.equal.add_row([(x, 1.0), (y, 1.0)], 10.0)
        solution = lp.solve()
        assert solution.value("x") == pytest.approx(10.0)

    def test_infeasible_raises_typed_error(self):
        lp = LinearProgram()
        x = lp.variables.add("x", objective=1.0)
        lp.equal.add_row([(x, 1.0)], 5.0)
        lp.less_equal.add_row([(x, 1.0)], 2.0)
        with pytest.raises(InfeasibleError):
            lp.solve()

    def test_no_variables_raises(self):
        with pytest.raises(SolverError):
            LinearProgram().solve()

    def test_bounded_variable(self):
        lp = LinearProgram()
        lp.variables.add("x", objective=-1.0, upper=3.0)  # max x, x <= 3
        assert lp.solve().value("x") == pytest.approx(3.0)


class TestBackupLP:
    def test_paper_fig4_example(self):
        """Serving 100/110/110 needs exactly 160 total dedicated backup
        (Fig 4b: 50+50+60)."""
        backup = solve_backup_lp({"jp": 100.0, "hk": 110.0, "in": 110.0})
        assert sum(backup.values()) == pytest.approx(160.0)
        # Each failure must be covered.
        for failed, serving in (("jp", 100.0), ("hk", 110.0), ("in", 110.0)):
            others = sum(v for k, v in backup.items() if k != failed)
            assert others >= serving - 1e-6

    def test_equal_serving_spreads_backup(self):
        backup = solve_backup_lp({"a": 90.0, "b": 90.0, "c": 90.0, "d": 90.0})
        assert sum(backup.values()) == pytest.approx(120.0)  # n/(n-1) * s

    def test_skewed_serving_costs_more(self):
        balanced = total_backup({"a": 100.0, "b": 100.0})
        skewed = total_backup({"a": 190.0, "b": 10.0})
        assert skewed > balanced - 1e-9
        # b must hold a's full 190 and a must hold b's 10.
        assert skewed == pytest.approx(200.0)

    def test_two_dcs(self):
        backup = solve_backup_lp({"a": 100.0, "b": 50.0})
        assert backup["b"] >= 100.0 - 1e-6
        assert backup["a"] >= 50.0 - 1e-6

    def test_single_dc_rejected(self):
        with pytest.raises(SolverError):
            solve_backup_lp({"only": 10.0})

    def test_negative_serving_rejected(self):
        with pytest.raises(SolverError):
            solve_backup_lp({"a": -1.0, "b": 5.0})

    def test_zero_serving_needs_zero_backup(self):
        backup = solve_backup_lp({"a": 0.0, "b": 0.0, "c": 0.0})
        assert sum(backup.values()) == pytest.approx(0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4),
                    min_size=2, max_size=8))
    def test_constraints_always_satisfied_property(self, servings):
        serving = {f"dc{i}": value for i, value in enumerate(servings)}
        backup = solve_backup_lp(serving)
        assert all(value >= -1e-9 for value in backup.values())
        for failed, required in serving.items():
            others = sum(v for k, v in backup.items() if k != failed)
            assert others >= required - 1e-6
        # Lower bound: total backup >= max serving (one DC's loss must be
        # absorbable), and >= sum/(n-1)-style bound.
        assert sum(backup.values()) >= max(serving.values()) - 1e-6
