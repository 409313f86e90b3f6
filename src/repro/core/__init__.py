"""The paper's primary contribution.

* :mod:`repro.core.timeindexed` — the time-indexed LP relaxation of
  Section 3 (uniform slots) and Appendix A (geometric intervals), with the
  single path (Eq. 6) and free path (Eqs. 7–10) constraint plug-ins.
* :mod:`repro.core.stretch` — the randomized Stretch algorithm of
  Section 4.1 (2-approximation, Theorem 4.4).
* :mod:`repro.core.heuristic` — the LP-based heuristic of Section 6.2
  (take the LP schedule directly, i.e. λ = 1) plus idle-slot compaction.
* :mod:`repro.core.scheduler` — a façade over model × algorithm × time
  grid, returning schedules together with the LP lower bound.
"""

from repro.core.timeindexed import (
    CoflowLPSolution,
    build_time_indexed_lp,
    solve_time_indexed_lp,
    suggest_horizon,
)
from repro.core.stretch import (
    StretchEvaluation,
    StretchResult,
    evaluate_stretch,
    run_stretch,
    stretch_fractions,
)
from repro.core.heuristic import lp_heuristic_schedule
from repro.core.multipath import assign_candidate_paths, solve_multipath_lp
from repro.core.scheduler import CoflowScheduler

__all__ = [
    "assign_candidate_paths",
    "solve_multipath_lp",
    "CoflowLPSolution",
    "build_time_indexed_lp",
    "solve_time_indexed_lp",
    "suggest_horizon",
    "StretchResult",
    "StretchEvaluation",
    "run_stretch",
    "evaluate_stretch",
    "stretch_fractions",
    "lp_heuristic_schedule",
    "CoflowScheduler",
]
