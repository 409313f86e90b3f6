"""The unified entry points: :func:`solve` and the batch runner :func:`solve_many`.

``solve`` dispatches one instance to one registered algorithm and returns a
:class:`~repro.api.report.SolveReport`.  ``solve_many`` fans a batch of
instances across a set of algorithms — optionally over a
:class:`concurrent.futures.ProcessPoolExecutor` — solving the shared
uniform-grid LP at most once per instance and handing it to every algorithm
that consumes it (exactly the reuse the paper's own evaluation performs when
comparing the LP heuristic against the λ-sampling series).

The shared solution is keyed on the *grid it was actually built on*:
:class:`~repro.core.scheduler.CoflowScheduler` only reuses it when an
algorithm's own grid parameters resolve to the same grid, and logs a debug
line when reuse is skipped (e.g. requests that differ only in ``epsilon``).
Each instance batch additionally runs under an
:class:`~repro.lp.solver.LPSolveCache`, so any algorithm that re-solves a
program identical to one already solved in the batch (Jahanjou's interval
LP, a mismatched-grid re-solve requested twice, ...) gets the memoized
solution instead of a second HiGHS run.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.coflow.instance import CoflowInstance
from repro.core.timeindexed import CoflowLPSolution, solve_time_indexed_lp
from repro.lp.solver import solver_cache

from repro.api.algorithms import BUILTIN_ALGORITHMS
from repro.api.registry import get_algorithm
from repro.api.report import SolveReport
from repro.api.request import SolveRequest, SolverConfig

logger = logging.getLogger(__name__)


def solve(
    instance: CoflowInstance,
    algorithm: str = "lp-heuristic",
    *,
    config: Optional[SolverConfig] = None,
    lp_solution: Optional[CoflowLPSolution] = None,
    **overrides: object,
) -> SolveReport:
    """Solve *instance* with a registered *algorithm*.

    Parameters
    ----------
    instance:
        The coflow scheduling instance.
    algorithm:
        A name from :func:`repro.api.available_algorithms`.
    config:
        Solver configuration; defaults to :class:`SolverConfig()`.
    lp_solution:
        A previously solved uniform-grid LP solution for *instance*,
        reused by algorithms with the ``uses_shared_lp`` capability (and
        attached as the lower bound to LP-free baselines).
    overrides:
        Individual :class:`SolverConfig` fields overriding *config*, e.g.
        ``solve(inst, "stretch-best", num_samples=20, rng=7)``.
    """
    cfg = config if config is not None else SolverConfig()
    if overrides:
        cfg = cfg.replace(**overrides)
    info = get_algorithm(algorithm)
    info.check_supports(instance.model)
    start = time.perf_counter()
    report = info.solver(instance, cfg, lp_solution)
    report.algorithm = info.name
    # None is the "not measured" sentinel; a measured 0.0 (coarse clock) is a
    # real value and must survive.
    if report.solve_seconds is None:
        report.solve_seconds = time.perf_counter() - start
    return report


def solve_request(request: SolveRequest) -> SolveReport:
    """Solve one :class:`SolveRequest` (convenience wrapper over :func:`solve`)."""
    return solve(request.instance, request.algorithm, config=request.config)


# --------------------------------------------------------------------------- #
# batch runner
# --------------------------------------------------------------------------- #
def _effective_start_method() -> str:
    """The start method worker processes *would* use, without resolving it.

    ``multiprocessing.get_start_method()`` irreversibly pins the global start
    method as a side effect (a later ``set_start_method()`` without
    ``force=True`` then raises), so merely *asking* must not resolve it.
    When the method is still unresolved, the platform default is inferred
    from ``get_all_start_methods()``, which lists the default first and does
    not touch the global context.
    """
    method = multiprocessing.get_start_method(allow_none=True)
    if method is not None:
        return method
    return multiprocessing.get_all_start_methods()[0]


def _solve_instance_batch(
    task: Tuple[CoflowInstance, Tuple[str, ...], SolverConfig, bool],
) -> List[SolveReport]:
    """Worker: run every algorithm on one instance, sharing one LP solve.

    Module-level (not a closure) so :class:`ProcessPoolExecutor` can pickle
    it; the task tuple carries everything the child process needs.
    """
    instance, algorithms, config, share_lp = task
    infos = [get_algorithm(name) for name in algorithms]
    with solver_cache() as cache:
        shared: Optional[CoflowLPSolution] = None
        if share_lp and any(info.uses_shared_lp for info in infos):
            shared = solve_time_indexed_lp(
                instance,
                grid=config.grid,
                num_slots=config.num_slots,
                slot_length=config.slot_length,
                epsilon=config.epsilon,
                solver_method=config.solver_method,
                strategy=config.strategy,
            )
        reports = [
            solve(instance, info.name, config=config, lp_solution=shared)
            for info in infos
        ]
        if cache.hits:
            logger.debug(
                "solver warm-start cache for instance %r: %s",
                instance.name,
                cache.stats(),
            )
    return reports


def solve_many(
    instances: Iterable[CoflowInstance],
    algorithms: Union[str, Sequence[str]],
    *,
    config: Optional[SolverConfig] = None,
    parallel: Optional[int] = None,
    share_lp: bool = True,
) -> List[SolveReport]:
    """Solve every instance with every algorithm; return reports instance-major.

    The result list holds ``len(instances) * len(algorithms)`` reports,
    ordered by instance first and algorithm second (matching the input
    orders), regardless of how the work was scheduled.

    Parameters
    ----------
    instances:
        The batch of instances.
    algorithms:
        One algorithm name or a sequence of names; all are validated against
        the registry (and each instance's transmission model) up front, so a
        typo fails fast instead of deep inside a worker process.
    config:
        One :class:`SolverConfig` applied to every request.  Its random
        source is split into per-instance child generators, so results are
        identical whether the batch runs serially or in parallel.
    parallel:
        Number of worker processes; ``None`` or ``1`` runs in-process.
    share_lp:
        Solve the uniform-grid LP once per instance and reuse it across all
        ``uses_shared_lp`` algorithms of that instance (on by default).
    """
    names: Tuple[str, ...] = (
        (algorithms,) if isinstance(algorithms, str) else tuple(algorithms)
    )
    if not names:
        raise ValueError("algorithms must name at least one registered algorithm")
    infos = [get_algorithm(name) for name in names]
    batch = list(instances)
    for instance in batch:
        for info in infos:
            info.check_supports(instance.model)

    cfg = config if config is not None else SolverConfig()
    rngs = cfg.spawn_rngs(len(batch))
    tasks = [
        (instance, names, cfg.replace(rng=rng), share_lp)
        for instance, rng in zip(batch, rngs)
    ]

    use_processes = parallel is not None and parallel > 1 and len(tasks) > 1
    if use_processes:
        # Worker processes rebuild the registry by re-importing the built-in
        # module; user-registered algorithms only survive that when children
        # are forked from this process.  Otherwise fall back to serial rather
        # than fail deep inside the pool.
        custom = [name for name in names if name not in BUILTIN_ALGORITHMS]
        if custom and _effective_start_method() != "fork":
            warnings.warn(
                f"custom algorithms {custom} are not importable in "
                f"{_effective_start_method()!r}-started worker "
                "processes; running the batch serially",
                RuntimeWarning,
                stacklevel=2,
            )
            use_processes = False
    if use_processes:
        workers = min(parallel, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as executor:
            grouped = list(executor.map(_solve_instance_batch, tasks))
    else:
        grouped = [_solve_instance_batch(task) for task in tasks]
    return [report for group in grouped for report in group]
