"""High-level façade: one object from instance to schedule.

:class:`CoflowScheduler` wraps the LP solve (cached), the Stretch algorithm,
the LP heuristic and the λ-sampling evaluation behind a small object whose
algorithm methods return :class:`~repro.api.report.SolveReport`.  The
registered ``lp-heuristic``/``stretch*`` algorithms of :mod:`repro.api` are
thin wrappers over it; :func:`repro.api.solve` is the one-call entry point.
"""

from __future__ import annotations

import logging
from typing import Dict, Optional

from repro.api.report import SolveReport
from repro.coflow.instance import CoflowInstance
from repro.core.heuristic import lp_heuristic_schedule
from repro.core.stretch import (
    DEFAULT_NUM_SAMPLES,
    StretchEvaluation,
    StretchResult,
    evaluate_stretch,
    run_stretch,
)
from repro.core.timeindexed import (
    CoflowLPSolution,
    resolve_grid,
    solve_time_indexed_lp,
)
from repro.schedule.feasibility import check_feasibility
from repro.schedule.schedule import Schedule
from repro.schedule.timegrid import TimeGrid
from repro.utils.rng import RandomSource, as_generator

logger = logging.getLogger(__name__)


def _grid_key(grid: TimeGrid) -> str:
    """Stable cache key of a time grid.

    Delegates to :meth:`TimeGrid.boundary_digest` — the single canonical
    grid identity also backing ``TimeGrid.__eq__``/``__hash__`` and the
    result-store fingerprints — so "same grid" can never mean different
    things in different caches.
    """
    return grid.boundary_digest()


class CoflowScheduler:
    """Schedules one instance, reusing a single LP solve across algorithms.

    Parameters
    ----------
    instance:
        The coflow scheduling instance (its :class:`TransmissionModel`
        decides which constraints the LP uses).
    grid:
        Explicit time grid; overrides *num_slots*, *slot_length*, *epsilon*.
    num_slots, slot_length:
        Uniform-grid specification (defaults to an automatically suggested
        horizon of unit slots).
    epsilon:
        When given, use the geometric interval grid of Appendix A instead of
        a uniform grid.
    rng:
        Random source for λ sampling.
    verify:
        When true (default), every produced schedule is checked for
        feasibility and the check attached to the report.
    solver_method:
        scipy ``linprog`` method used for the LP solve.
    strategy:
        Staged-solve strategy for the time-indexed LP (``"direct"`` or
        ``"refine"``; see
        :func:`repro.core.timeindexed.solve_time_indexed_lp`).
    lp_solution:
        A previously solved LP solution for *instance*, seeding the cache so
        several algorithms (or several schedulers) can share one LP solve.
    """

    def __init__(
        self,
        instance: CoflowInstance,
        *,
        grid: Optional[TimeGrid] = None,
        num_slots: Optional[int] = None,
        slot_length: float = 1.0,
        epsilon: Optional[float] = None,
        rng: RandomSource = None,
        verify: bool = True,
        solver_method: str = "highs",
        strategy: str = "direct",
        lp_solution: Optional[CoflowLPSolution] = None,
    ) -> None:
        if lp_solution is not None and lp_solution.instance is not instance:
            raise ValueError("lp_solution was computed for a different instance")
        self.instance = instance
        self._grid = grid
        self._num_slots = num_slots
        self._slot_length = slot_length
        self._epsilon = epsilon
        self._rng = as_generator(rng)
        self._verify = verify
        self._solver_method = solver_method
        self._strategy = strategy
        # The LP cache is keyed on the *actual* grid the LP was built on, so
        # a seeded (shared) solution is only reused when this scheduler's own
        # grid parameters resolve to the same grid — a request that differs
        # (e.g. only in epsilon) triggers a fresh, correct solve instead of
        # silently reusing a mismatched LP.
        self._lp_solutions: Dict[str, CoflowLPSolution] = {}
        self._resolved_grid: Optional[TimeGrid] = None
        if lp_solution is not None:
            self._lp_solutions[_grid_key(lp_solution.grid)] = lp_solution

    # ------------------------------------------------------------------ #
    # LP
    # ------------------------------------------------------------------ #
    def _resolve_grid(self) -> TimeGrid:
        """The grid this scheduler's parameters resolve to (cached).

        Delegates to :func:`repro.core.timeindexed.resolve_grid` — the same
        resolution :func:`solve_time_indexed_lp` performs — so the cache key
        always agrees with the grid a shared solution was built on.
        """
        if self._resolved_grid is None:
            self._resolved_grid = resolve_grid(
                self.instance,
                grid=self._grid,
                num_slots=self._num_slots,
                slot_length=self._slot_length,
                epsilon=self._epsilon,
            )
        return self._resolved_grid

    def solve_lp(self) -> CoflowLPSolution:
        """Solve (and cache) the time-indexed LP for this instance.

        The cache is keyed on the resolved grid; a seeded shared solution
        built on a different grid is skipped (with a debug log) rather than
        silently reused.
        """
        grid = self._resolve_grid()
        key = _grid_key(grid)
        solution = self._lp_solutions.get(key)
        if solution is None:
            if self._lp_solutions:
                logger.debug(
                    "shared LP reuse skipped for instance %r: requested grid %r "
                    "does not match any cached grid; solving fresh",
                    self.instance.name,
                    grid,
                )
            solution = solve_time_indexed_lp(
                self.instance,
                grid=grid,
                solver_method=self._solver_method,
                strategy=self._strategy,
            )
            self._lp_solutions[key] = solution
        return solution

    @property
    def lower_bound(self) -> float:
        """The LP objective (a lower bound on the optimal weighted completion time)."""
        return self.solve_lp().objective

    # ------------------------------------------------------------------ #
    # algorithms
    # ------------------------------------------------------------------ #
    def _report(
        self,
        algorithm: str,
        schedule: Schedule,
        extras: Dict[str, object],
    ) -> SolveReport:
        lp_solution = self.solve_lp()
        feasibility = None
        if self._verify:
            feasibility = check_feasibility(schedule)
            feasibility.raise_if_infeasible()
        return SolveReport(
            algorithm=algorithm,
            instance=self.instance,
            objective=schedule.weighted_completion_time(),
            coflow_completion_times=schedule.coflow_completion_times(),
            lower_bound=lp_solution.objective,
            lp_solution=lp_solution,
            schedule=schedule,
            feasibility=feasibility,
            extras=extras,
        )

    def heuristic(self, *, compact: bool = True) -> SolveReport:
        """The LP-based heuristic (λ = 1) of Section 6.2."""
        schedule = lp_heuristic_schedule(self.solve_lp(), compact=compact)
        return self._report("lp-heuristic", schedule, {"lambda": 1.0})

    def stretch(
        self, *, lam: Optional[float] = None, compact: bool = True
    ) -> SolveReport:
        """One run of the randomized Stretch algorithm (Section 4.1)."""
        result: StretchResult = run_stretch(
            self.solve_lp(), lam=lam, rng=self._rng, compact=compact
        )
        return self._report("stretch", result.schedule, {"lambda": result.lam})

    def stretch_evaluation(
        self,
        *,
        num_samples: int = DEFAULT_NUM_SAMPLES,
        compact: bool = True,
    ) -> StretchEvaluation:
        """Run Stretch for several λ samples (the paper's 20-sample protocol)."""
        return evaluate_stretch(
            self.solve_lp(), num_samples=num_samples, rng=self._rng, compact=compact
        )

    def best_stretch(
        self,
        *,
        num_samples: int = DEFAULT_NUM_SAMPLES,
        compact: bool = True,
    ) -> SolveReport:
        """The best schedule over *num_samples* λ draws ("Best λ")."""
        evaluation = self.stretch_evaluation(num_samples=num_samples, compact=compact)
        best = evaluation.best_result
        return self._report(
            "stretch-best",
            best.schedule,
            {"lambda": best.lam, "evaluation": evaluation},
        )
