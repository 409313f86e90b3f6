"""Output checks on delivered schedules, and the per-instance quality bound."""

from __future__ import annotations

from typing import List

import numpy as np

#: Relative tolerance of the objective and release-time comparisons.
RTOL = 1e-7


def lower_bound(instance) -> float:
    """``sum_j w_j (r_j + standalone_j)``: no schedule completes a coflow
    before its release plus the time it needs alone on the empty network."""
    from repro.sim.rate_allocation import coflow_standalone_time

    release = instance.coflow_release_times()
    standalone = np.array(
        [coflow_standalone_time(instance, j) for j in range(instance.num_coflows)]
    )
    return float(np.dot(instance.weights, release + standalone))


def problems(report, instance) -> List[str]:
    """Why *report* is not a correct answer for *instance* (empty if it is)."""
    from repro.schedule.feasibility import check_feasibility

    found = []
    times = np.asarray(report.coflow_completion_times, dtype=float)
    if not np.all(np.isfinite(times)):
        found.append("non-finite completion time")
    if report.algorithm != "stretch-average":
        recomputed = float(np.dot(instance.weights, times))
        if abs(recomputed - report.objective) > RTOL * max(1.0, abs(recomputed)):
            found.append(
                f"objective {report.objective!r} != sum w_j C_j {recomputed!r}"
            )
    release = instance.coflow_release_times()
    early = times < release - RTOL * np.maximum(1.0, release)
    if early.any():
        found.append(f"{int(early.sum())} coflows complete before their release")
    if report.schedule is not None:
        feasibility = check_feasibility(report.schedule)
        if not feasibility.is_feasible:
            found.append(f"infeasible schedule: {feasibility}")
    return found
