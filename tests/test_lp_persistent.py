"""Tests for the resident HiGHS model of repro.lp.backends.highs
(warm-started re-solves + linprog fallback) and the LPSolveCache
warm-start cache of repro.lp.solver.

The fallback coverage matters operationally: ``PersistentHighsLP`` leans on
``scipy.optimize._highspy``, a *private* scipy module whose layout may change
between releases.  When it is absent the simulator's per-event LPs must fall
back to plain :func:`scipy.optimize.linprog` and still produce the same
optimal values — these tests pin that contract by running both paths side by
side.
"""

import numpy as np
import pytest
from scipy import sparse

import repro.lp.backends.highs as highs_module
import repro.sim.rate_allocation as rate_allocation_module
from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance
from repro.lp.model import LinearProgram
from repro.lp.backends.highs import (
    HIGHS_AVAILABLE,
    PersistentHighsLP,
    make_persistent_lp,
)
from repro.lp.solver import LPSolveCache, solve_lp, solver_cache
from repro.network.topologies import paper_example_topology
from repro.sim.rate_allocation import RateAllocator
from repro.sim.simulator import simulate_priority_schedule, static_order_priority


def free_path_instance() -> CoflowInstance:
    graph = paper_example_topology()
    coflows = [
        Coflow([Flow("s", "t", 3.0)], name="big", weight=2.0),
        Coflow([Flow("s", "v1", 1.0), Flow("v2", "t", 0.5)], name="pair"),
        Coflow([Flow("v3", "t", 1.5)], name="late", release_time=1.0),
    ]
    return CoflowInstance(graph, coflows, model="free_path")


# --------------------------------------------------------------------------- #
# persistent HiGHS model (only meaningful where the private API imports)
# --------------------------------------------------------------------------- #
@pytest.mark.skipif(not HIGHS_AVAILABLE, reason="scipy HiGHS API not importable")
class TestPersistentHighsLP:
    def _toy(self) -> PersistentHighsLP:
        # min -x0 - x1  s.t.  x0 + x1 <= 4, x0 <= 3, x1 <= 3
        return PersistentHighsLP(
            c=np.array([-1.0, -1.0]),
            matrix=sparse.csr_matrix(np.array([[1.0, 1.0]])),
            row_lower=np.array([-np.inf]),
            row_upper=np.array([4.0]),
            col_lower=np.zeros(2),
            col_upper=np.array([3.0, 3.0]),
        )

    def test_solve_and_resolve_after_bound_change(self):
        lp = self._toy()
        x = lp.solve()
        assert x.sum() == pytest.approx(4.0)
        lp.change_row_bounds(0, -np.inf, 2.0)
        x = lp.solve()
        assert x.sum() == pytest.approx(2.0)
        assert lp.solves == 2

    def test_coefficient_rewrite(self):
        lp = self._toy()
        lp.solve()
        # Double x0's weight in the packing row: only 2 units of x0 fit now.
        lp.change_coeff(0, 0, 2.0)
        x = lp.solve()
        assert 2.0 * x[0] + x[1] == pytest.approx(4.0)


def test_make_persistent_lp_returns_none_without_highs(monkeypatch):
    monkeypatch.setattr(highs_module, "HIGHS_AVAILABLE", False)
    assert (
        make_persistent_lp(
            np.zeros(1),
            sparse.csr_matrix((1, 1)),
            np.zeros(1),
            np.zeros(1),
            np.zeros(1),
            np.ones(1),
        )
        is None
    )


# --------------------------------------------------------------------------- #
# linprog fallback of the simulator's per-event LPs
# --------------------------------------------------------------------------- #
class TestLinprogFallback:
    """With make_persistent_lp forced to None, the per-event free-path LPs
    go through scipy.optimize.linprog and must reach the same optima."""

    @pytest.fixture()
    def fallback(self, monkeypatch):
        monkeypatch.setattr(
            rate_allocation_module, "make_persistent_lp", lambda *args: None
        )

    def test_template_reports_no_persistent_model(self, fallback):
        allocator = RateAllocator(free_path_instance())
        remaining = free_path_instance().demands()
        capacity = free_path_instance().graph.capacity_vector()
        alloc = allocator.coflow_allocation(0, remaining, capacity)
        template = next(iter(allocator._templates.values()))
        assert template._persistent is None
        assert alloc.flow_rates.size == 1 and alloc.flow_rates[0] > 0

    def test_fallback_matches_persistent_alpha(self, monkeypatch):
        if not HIGHS_AVAILABLE:
            pytest.skip("needs the persistent path to compare against")
        instance = free_path_instance()
        remaining = instance.demands()
        capacity = instance.graph.capacity_vector()
        with_persistent = RateAllocator(instance)
        monkeypatch.setattr(
            rate_allocation_module, "make_persistent_lp", lambda *args: None
        )
        without = RateAllocator(instance)
        for j in range(instance.num_coflows):
            a = with_persistent.coflow_allocation(j, remaining, capacity)
            b = without.coflow_allocation(j, remaining, capacity)
            np.testing.assert_array_equal(a.flow_idx, b.flow_idx)
            # The optimal alpha (hence the all-flows-finish-together rates)
            # is unique even when the routing vertex is degenerate.
            np.testing.assert_allclose(a.flow_rates, b.flow_rates, rtol=1e-7, atol=1e-9)

    def test_full_simulation_under_fallback(self, fallback):
        instance = free_path_instance()
        priority = static_order_priority(range(instance.num_coflows))
        inc = simulate_priority_schedule(instance, priority, incremental=True)
        full = simulate_priority_schedule(instance, priority, incremental=False)
        np.testing.assert_allclose(
            inc.coflow_completion_times,
            full.coflow_completion_times,
            rtol=1e-9,
            atol=1e-9,
        )
        assert np.all(inc.coflow_completion_times > 0)


# --------------------------------------------------------------------------- #
# LPSolveCache: hits, misses, eviction, isolation of returned results
# --------------------------------------------------------------------------- #
def toy_program(rhs: float = 4.0) -> LinearProgram:
    lp = LinearProgram(name=f"toy-{rhs:g}")
    idx = lp.add_variables("x", 2, upper=3.0).indices()
    lp.set_objective(idx, [-3.0, -2.0])
    lp.add_constraint(idx, [1.0, 1.0], "<=", rhs)
    return lp


class TestLPSolveCache:
    def test_hit_and_miss_accounting(self):
        cache = LPSolveCache()
        first = solve_lp(toy_program(), cache=cache)
        second = solve_lp(toy_program(), cache=cache)
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert "warm_start" not in first.metadata
        assert second.metadata["warm_start"] == "reused"
        assert second.objective == pytest.approx(first.objective)

    def test_different_programs_do_not_collide(self):
        cache = LPSolveCache()
        a = solve_lp(toy_program(4.0), cache=cache)
        b = solve_lp(toy_program(2.0), cache=cache)
        assert cache.stats()["misses"] == 2
        assert a.objective != pytest.approx(b.objective)

    def test_hits_return_independent_copies(self):
        cache = LPSolveCache()
        solve_lp(toy_program(), cache=cache)
        hit = solve_lp(toy_program(), cache=cache)
        hit.x[:] = -1.0
        hit.metadata["tag"] = "mutated"
        clean = solve_lp(toy_program(), cache=cache)
        assert np.all(clean.x >= 0.0)
        assert "tag" not in clean.metadata

    def test_lru_eviction(self):
        cache = LPSolveCache(max_entries=2)
        solve_lp(toy_program(4.0), cache=cache)
        solve_lp(toy_program(3.0), cache=cache)
        # Touch 4.0 so 3.0 becomes the least recently used entry ...
        solve_lp(toy_program(4.0), cache=cache)
        # ... and a third program evicts it.
        solve_lp(toy_program(2.0), cache=cache)
        assert len(cache) == 2
        stats_before = cache.stats()["misses"]
        solve_lp(toy_program(3.0), cache=cache)  # evicted above: miss again
        solve_lp(toy_program(4.0), cache=cache)  # just evicted by 3.0: miss too
        assert cache.stats()["misses"] == stats_before + 2

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            LPSolveCache(max_entries=0)

    def test_non_optimal_results_are_not_cached(self):
        # Regression: a transient failure must never be replayed as a
        # permanent one.  An infeasible program solved twice under one
        # cache is two misses and zero stored entries.
        lp = LinearProgram(name="infeasible")
        idx = lp.add_variables("x", 1, lower=0.0).indices()
        lp.set_objective(idx, [1.0])
        lp.add_constraint(idx, [1.0], "<=", -1.0)
        cache = LPSolveCache()
        first = solve_lp(lp, cache=cache)
        second = solve_lp(lp, cache=cache)
        assert not first.is_optimal and not second.is_optimal
        assert "warm_start" not in second.metadata
        assert len(cache) == 0
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 2}

    def test_store_rejects_non_optimal_directly(self):
        cache = LPSolveCache()
        lp = LinearProgram(name="infeasible")
        idx = lp.add_variables("x", 1, lower=0.0).indices()
        lp.set_objective(idx, [1.0])
        lp.add_constraint(idx, [1.0], "<=", -1.0)
        failed = solve_lp(lp)
        cache.store("some-key", failed)
        assert len(cache) == 0
        assert cache.lookup("some-key") is None

    def test_time_limited_solves_are_not_cached(self):
        cache = LPSolveCache()
        solve_lp(toy_program(), cache=cache, time_limit=10.0)
        assert len(cache) == 0
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}

    def test_solver_cache_context_installs_and_restores(self):
        from repro.lp.solver import active_solver_cache

        assert active_solver_cache() is None
        with solver_cache() as outer:
            solve_lp(toy_program())
            solve_lp(toy_program())
            assert outer.stats()["hits"] == 1
            inner_cache = LPSolveCache()
            with solver_cache(inner_cache):
                assert active_solver_cache() is inner_cache
            assert active_solver_cache() is outer
        assert active_solver_cache() is None
