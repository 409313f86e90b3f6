"""Tests for the unified solver-backend layer (repro.lp.backends).

Covers the backend-neutral containers (LPSpec row ordering, BackendSolution
status), name-based selection with HiGHS fallback, parity between the two
backends on the same spec, and the warm-start / basis surface of the
persistent HiGHS backend.
"""

import numpy as np
import pytest
from scipy import sparse

import repro.lp.backends as backends_package
from repro.lp.backends import (
    BACKEND_NAMES,
    BackendSolution,
    HIGHS_AVAILABLE,
    LinprogBackend,
    LPSpec,
    PersistentHighsBackend,
    SolverBackend,
    get_backend,
)
from repro.lp.model import LinearProgram

needs_highs = pytest.mark.skipif(
    not HIGHS_AVAILABLE, reason="scipy.optimize._highspy not importable"
)


def toy_spec() -> LPSpec:
    """min -3a - 2b  s.t.  a + b <= 4,  a + 0b == a_fix-free,  0 <= a,b <= 3.

    Optimum: a=3, b=1, objective -11.
    """
    return LPSpec(
        c=np.array([-3.0, -2.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0, 1.0]])),
        b_ub=np.array([4.0]),
        a_eq=None,
        b_eq=None,
        col_lower=np.zeros(2),
        col_upper=np.full(2, 3.0),
        name="toy",
    )


def eq_spec() -> LPSpec:
    """min x + y  s.t.  x + y == 2,  x - y <= 0.5,  x,y >= 0."""
    return LPSpec(
        c=np.array([1.0, 1.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0, -1.0]])),
        b_ub=np.array([0.5]),
        a_eq=sparse.csr_matrix(np.array([[1.0, 1.0]])),
        b_eq=np.array([2.0]),
        col_lower=np.zeros(2),
        col_upper=np.full(2, np.inf),
        name="eq-toy",
    )


def infeasible_spec() -> LPSpec:
    return LPSpec(
        c=np.array([1.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0]])),
        b_ub=np.array([-1.0]),
        a_eq=None,
        b_eq=None,
        col_lower=np.zeros(1),
        col_upper=np.full(1, np.inf),
        name="infeasible",
    )


class TestLPSpec:
    def test_counts(self):
        spec = eq_spec()
        assert spec.num_cols == 2
        assert spec.num_ub_rows == 1
        assert spec.num_eq_rows == 1

    def test_combined_orders_ub_rows_first(self):
        spec = eq_spec()
        matrix, row_lower, row_upper = spec.combined()
        assert matrix.shape == (2, 2)
        # Row 0 is the <= row (lower bound -inf), row 1 the == row.
        assert row_lower[0] == -np.inf and row_upper[0] == 0.5
        assert row_lower[1] == 2.0 and row_upper[1] == 2.0
        np.testing.assert_allclose(matrix.toarray(), [[1.0, -1.0], [1.0, 1.0]])

    def test_from_program_matches_manual_spec(self):
        lp = LinearProgram(name="toy")
        idx = lp.add_variables("x", 2, upper=3.0).indices()
        lp.set_objective(idx, [-3.0, -2.0])
        lp.add_constraint(idx, [1.0, 1.0], "<=", 4.0)
        spec = LPSpec.from_program(lp)
        manual = toy_spec()
        np.testing.assert_allclose(spec.c, manual.c)
        np.testing.assert_allclose(spec.b_ub, manual.b_ub)
        np.testing.assert_allclose(spec.col_upper, manual.col_upper)
        assert spec.a_eq is None and manual.a_eq is None


class TestBackendSelection:
    def test_known_names(self):
        for name in BACKEND_NAMES:
            backend = get_backend(name)
            assert isinstance(backend, SolverBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            get_backend("cplex")

    def test_linprog_explicitly(self):
        backend = get_backend("linprog")
        assert isinstance(backend, LinprogBackend)
        assert not backend.supports_warm_start

    def test_auto_falls_back_without_highs(self, monkeypatch):
        monkeypatch.setattr(backends_package, "HIGHS_AVAILABLE", False)
        assert isinstance(get_backend("auto"), LinprogBackend)
        assert isinstance(get_backend("persistent-highs"), LinprogBackend)

    @needs_highs
    def test_auto_prefers_persistent_highs(self):
        assert isinstance(get_backend("auto"), PersistentHighsBackend)


class TestLinprogBackend:
    def test_optimal_solve(self):
        solution = LinprogBackend().solve(toy_spec())
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-11.0)
        np.testing.assert_allclose(solution.x, [3.0, 1.0], atol=1e-6)
        assert solution.solve_seconds >= 0.0
        assert solution.backend.startswith("linprog")

    def test_simplex_iterations_reported(self):
        solution = LinprogBackend().solve(toy_spec())
        assert solution.simplex_iterations is not None
        assert solution.simplex_iterations >= 0

    def test_infeasible_reported_not_raised(self):
        solution = LinprogBackend().solve(infeasible_spec())
        assert not solution.is_optimal
        assert solution.x.size == 0
        assert np.isnan(solution.objective)


@needs_highs
class TestPersistentHighsBackend:
    def test_optimal_solve_matches_linprog(self):
        for spec in (toy_spec(), eq_spec()):
            reference = LinprogBackend().solve(spec)
            solution = PersistentHighsBackend().solve(spec)
            assert solution.is_optimal
            assert solution.objective == pytest.approx(reference.objective)
            assert solution.backend == "persistent-highs"

    def test_warm_start_accepted(self):
        backend = PersistentHighsBackend()
        assert backend.supports_warm_start
        cold = backend.solve(toy_spec())
        warm = backend.solve(toy_spec(), warm_primal=cold.x)
        assert warm.is_optimal
        assert warm.objective == pytest.approx(cold.objective)
        # Seeded at the optimum, the solver verifies rather than searches.
        assert warm.simplex_iterations is not None
        assert warm.simplex_iterations <= max(cold.simplex_iterations, 1)

    def test_infeasible_reported_not_raised(self):
        solution = PersistentHighsBackend().solve(infeasible_spec())
        assert not solution.is_optimal

    def test_basis_snapshot_roundtrip(self):
        from repro.lp.backends.highs import PersistentHighsLP

        spec = toy_spec()
        matrix, row_lower, row_upper = spec.combined()
        lp = PersistentHighsLP(
            c=spec.c,
            matrix=matrix,
            row_lower=row_lower,
            row_upper=row_upper,
            col_lower=spec.col_lower,
            col_upper=spec.col_upper,
        )
        x = lp.solve()
        assert x.shape == (spec.num_cols,)
        snapshot = lp.basis_snapshot()
        assert snapshot.col_status and snapshot.row_status
        lp.restore_basis(snapshot)
        assert lp.basis_snapshot() == snapshot


class TestBackendSolution:
    def test_is_optimal_flag(self):
        from repro.lp.result import LPStatus

        good = BackendSolution(
            status=LPStatus.OPTIMAL,
            objective=1.0,
            x=np.zeros(1),
            solve_seconds=0.0,
        )
        bad = BackendSolution(
            status=LPStatus.INFEASIBLE,
            objective=float("nan"),
            x=np.empty(0),
            solve_seconds=0.0,
        )
        assert good.is_optimal and not bad.is_optimal
