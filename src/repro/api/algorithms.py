"""Built-in registrations: the paper's algorithms and the four baselines.

Importing this module populates the registry of :mod:`repro.api.registry`
with every algorithm the repository implements:

===================  ==========================================  ============
name                 source                                      models
===================  ==========================================  ============
``lp-heuristic``     paper Section 6.2 (λ = 1 LP heuristic)      both
``stretch``          paper Section 4.1 (one random λ)            both
``stretch-best``     best of N λ draws ("Best λ")                both
``stretch-average``  mean objective over N draws ("Average λ")   both
``jahanjou``         Jahanjou et al. (SPAA 2017) interval LP     single path
``terra``            Terra offline SRTF (You & Chowdhury 2019)   free path
``sincronia``        Sincronia BSSI ordering                     both
``fifo``             first-come-first-served                     both
``weighted-sjf``     weighted shortest job first                 both
``sebf``             smallest effective bottleneck first         both
===================  ==========================================  ============

Core algorithms share one uniform-grid LP solution per instance (flag
``uses_shared_lp``); Jahanjou builds its own interval-indexed LP, and the
remaining baselines are LP-free.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.baselines.greedy import (
    fifo_schedule,
    sebf_schedule,
    weighted_sjf_schedule,
)
from repro.baselines.jahanjou import OPTIMAL_EPSILON, jahanjou_schedule
from repro.baselines.result import BaselineResult
from repro.baselines.sincronia import sincronia_schedule
from repro.baselines.terra import terra_offline_schedule
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.core.timeindexed import CoflowLPSolution, solve_time_indexed_lp
from repro.schedule.feasibility import check_feasibility

from repro.api.registry import register_algorithm
from repro.api.report import SolveReport
from repro.api.request import SolverConfig


def _scheduler(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution],
):
    from repro.core.scheduler import CoflowScheduler

    return CoflowScheduler(
        instance,
        grid=config.grid,
        num_slots=config.num_slots,
        slot_length=config.slot_length,
        epsilon=config.epsilon,
        rng=config.rng,
        verify=config.verify,
        solver_method=config.solver_method,
        strategy=config.strategy,
        lp_solution=lp_solution,
    )


# --------------------------------------------------------------------------- #
# the paper's algorithms
# --------------------------------------------------------------------------- #
@register_algorithm(
    "lp-heuristic",
    uses_shared_lp=True,
    description="LP-based heuristic, λ = 1 (paper Section 6.2)",
)
def _solve_lp_heuristic(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    scheduler = _scheduler(instance, config, lp_solution)
    return scheduler.heuristic(compact=config.compact)


@register_algorithm(
    "stretch",
    uses_shared_lp=True,
    randomized=True,
    description="randomized Stretch, one λ draw (paper Section 4.1)",
)
def _solve_stretch(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    scheduler = _scheduler(instance, config, lp_solution)
    return scheduler.stretch(compact=config.compact)


@register_algorithm(
    "stretch-best",
    uses_shared_lp=True,
    randomized=True,
    description='best schedule over N λ draws (the paper\'s "Best λ")',
)
def _solve_stretch_best(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    scheduler = _scheduler(instance, config, lp_solution)
    return scheduler.best_stretch(
        num_samples=config.num_samples, compact=config.compact
    )


@register_algorithm(
    "stretch-average",
    uses_shared_lp=True,
    randomized=True,
    objective_is_wct=False,  # mean over draws; times describe the best draw
    description='mean objective over N λ draws (the paper\'s "Average λ")',
)
def _solve_stretch_average(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    scheduler = _scheduler(instance, config, lp_solution)
    evaluation = scheduler.stretch_evaluation(
        num_samples=config.num_samples, compact=config.compact
    )
    best = evaluation.best_result
    feasibility = check_feasibility(best.schedule) if config.verify else None
    if feasibility is not None:
        feasibility.raise_if_infeasible()
    return SolveReport(
        algorithm="stretch-average",
        instance=instance,
        objective=evaluation.average_objective,
        coflow_completion_times=best.schedule.coflow_completion_times(),
        lower_bound=scheduler.lower_bound,
        lp_solution=scheduler.solve_lp(),
        schedule=best.schedule,
        feasibility=feasibility,
        extras={"evaluation": evaluation, "best_lambda": best.lam},
    )


# --------------------------------------------------------------------------- #
# baselines
# --------------------------------------------------------------------------- #
def _baseline_report(
    result: BaselineResult,
    name: str,
    lp_solution: Optional[CoflowLPSolution],
) -> SolveReport:
    # The shared slotted LP objective is attached as the comparison bound
    # (the paper plots every baseline against it), but these baselines run
    # in continuous time and may beat it — see SolveReport.lower_bound.
    report = SolveReport.from_baseline(
        result,
        lower_bound=lp_solution.objective if lp_solution is not None else None,
        lp_solution=lp_solution,
    )
    report.extras.setdefault("algorithm_label", result.algorithm)
    report.algorithm = name
    return report


@register_algorithm(
    "terra",
    supported_models=(TransmissionModel.FREE_PATH,),
    description="Terra offline SRTF (You & Chowdhury 2019), Figs. 11–12",
)
def _solve_terra(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    return _baseline_report(terra_offline_schedule(instance), "terra", lp_solution)


@register_algorithm(
    "jahanjou",
    supported_models=(TransmissionModel.SINGLE_PATH,),
    description="Jahanjou et al. (SPAA 2017) interval LP + α-points, Figs. 9–10",
)
def _solve_jahanjou(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    # Jahanjou rounds its own interval-indexed LP; a shared uniform-grid LP
    # cannot be substituted, but its objective still serves as the bound.
    epsilon = config.epsilon if config.epsilon is not None else OPTIMAL_EPSILON
    start = time.perf_counter()
    interval_solution = solve_time_indexed_lp(
        instance,
        epsilon=epsilon,
        slot_length=config.slot_length,
        solver_method=config.solver_method,
    )
    result = jahanjou_schedule(
        instance,
        epsilon=epsilon,
        slot_length=config.slot_length,
        lp_solution=interval_solution,
    )
    report = SolveReport.from_baseline(
        result,
        lower_bound=(
            lp_solution.objective
            if lp_solution is not None
            else interval_solution.objective
        ),
        lp_solution=lp_solution if lp_solution is not None else interval_solution,
        solve_seconds=time.perf_counter() - start,
    )
    report.algorithm = "jahanjou"
    return report


@register_algorithm(
    "sincronia",
    description="Sincronia BSSI ordering + greedy rate allocation",
)
def _solve_sincronia(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    return _baseline_report(sincronia_schedule(instance), "sincronia", lp_solution)


@register_algorithm(
    "fifo",
    description="first-come-first-served by release time",
)
def _solve_fifo(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    return _baseline_report(fifo_schedule(instance), "fifo", lp_solution)


@register_algorithm(
    "weighted-sjf",
    description="weighted shortest job first on standalone times",
)
def _solve_weighted_sjf(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    return _baseline_report(
        weighted_sjf_schedule(instance), "weighted-sjf", lp_solution
    )


@register_algorithm(
    "sebf",
    description="smallest effective bottleneck first (Varys-style)",
)
def _solve_sebf(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    return _baseline_report(sebf_schedule(instance), "sebf", lp_solution)


#: Names guaranteed to exist in every multiprocessing child regardless of
#: the start method (unlike user-registered algorithms): the entries this
#: module registers, plus the online policies that
#: :mod:`repro.online.policies` registers when ``repro.api`` is imported —
#: which importing any ``repro.api`` submodule (as every worker does)
#: triggers, since Python executes the package ``__init__`` first.
BUILTIN_ALGORITHMS = frozenset(
    {
        "lp-heuristic",
        "stretch",
        "stretch-best",
        "stretch-average",
        "terra",
        "jahanjou",
        "sincronia",
        "fifo",
        "weighted-sjf",
        "sebf",
        "online-batch",
        "online-batch-wc",
        "online-resolve",
        "online-wsjf",
    }
)
