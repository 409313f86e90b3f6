"""Input objects of the unified solver API.

:class:`SolverConfig` gathers every knob that used to be scattered across
``CoflowScheduler`` and the baseline entry points (time grid, ε,
λ-sampling, LP method and strategy, randomness, verification) into one
immutable value object, and :class:`SolveRequest` pairs a config with an
instance and an algorithm name — the unit of work of
:func:`repro.api.solve_many`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.coflow.instance import CoflowInstance
from repro.core.stretch import DEFAULT_NUM_SAMPLES
from repro.schedule.timegrid import TimeGrid
from repro.utils.rng import RandomSource, as_generator


@dataclass(frozen=True)
class SolverConfig:
    """Every tuning knob of the solver stack, in one place.

    Attributes
    ----------
    grid:
        Explicit time grid; overrides *num_slots*, *slot_length*, *epsilon*.
    num_slots, slot_length:
        Uniform-grid specification (defaults to an automatically suggested
        horizon of unit slots).
    epsilon:
        Geometric-interval grid parameter (Appendix A).  Algorithms that
        build their own interval LP (Jahanjou et al.) read it too.
    rng:
        Random source for the λ-sampling algorithms (``None``, an int seed,
        or a :class:`numpy.random.Generator`).
    solver_method:
        scipy ``linprog`` backend for every LP solve (``"highs"`` default).
    strategy:
        Staged-solve strategy for the time-indexed LP: ``"direct"`` (one
        cold solve) or ``"refine"`` (geometric stage warm-starts the fine
        grid; same optimum).  See
        :func:`repro.core.timeindexed.solve_time_indexed_lp`.
    num_samples:
        Number of λ draws for ``stretch-best`` / ``stretch-average``.
    compact:
        Whether produced slot schedules are compacted (Section 6.2).
    verify:
        Whether produced schedules are feasibility-checked.
    """

    grid: Optional[TimeGrid] = None
    num_slots: Optional[int] = None
    slot_length: float = 1.0
    epsilon: Optional[float] = None
    rng: RandomSource = None
    solver_method: str = "highs"
    strategy: str = "direct"
    num_samples: int = DEFAULT_NUM_SAMPLES
    compact: bool = True
    verify: bool = True

    def replace(self, **changes: object) -> "SolverConfig":
        """A copy of this config with the given fields overridden."""
        return dataclasses.replace(self, **changes)

    def make_rng(self) -> np.random.Generator:
        """The configured random source as a generator."""
        return as_generator(self.rng)

    def spawn_rngs(self, count: int) -> list:
        """*count* independent child generators, derived deterministically.

        Used by the batch runner so that the i-th instance sees the same
        random stream whether the batch runs serially or across processes.
        """
        if count <= 0:
            return []
        return as_generator(self.rng).spawn(count)


@dataclass(frozen=True)
class SolveRequest:
    """One unit of work: solve *instance* with *algorithm* under *config*."""

    instance: CoflowInstance
    algorithm: str = "lp-heuristic"
    config: SolverConfig = field(default_factory=SolverConfig)
