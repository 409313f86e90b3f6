"""The always-available backend: :func:`scipy.optimize.linprog` with HiGHS.

This module is one of the two sanctioned homes of a direct solver-engine
import (lint rule R010); everything else reaches HiGHS through the backend
layer.  The call semantics are byte-for-byte those ``repro.lp.solver``
used before the backend split, so cached fingerprints and optimal vertices
are unchanged.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from repro.lp.backends.base import DEFAULT_METHOD, BackendSolution, LPSpec
from repro.lp.result import LPStatus


class LinprogBackend:
    """Stateless one-shot solves through :func:`scipy.optimize.linprog`.

    No warm-start support: scipy's wrapper exposes neither basis injection
    nor a primal starting point.
    """

    supports_warm_start = False

    def __init__(self, method: str = DEFAULT_METHOD) -> None:
        self.method = method

    @property
    def name(self) -> str:
        return f"linprog-{self.method}"

    def solve(
        self,
        spec: LPSpec,
        *,
        presolve: bool = True,
        time_limit: Optional[float] = None,
        warm_primal: Optional[np.ndarray] = None,
    ) -> BackendSolution:
        del warm_primal  # not supported; a warm start is never semantic
        options: dict = {"presolve": presolve}
        if time_limit is not None and self.method.startswith("highs"):
            options["time_limit"] = float(time_limit)

        bounds = np.column_stack([spec.col_lower, spec.col_upper])
        start = time.perf_counter()
        scipy_result = linprog(
            spec.c,
            A_ub=spec.a_ub,
            b_ub=spec.b_ub,
            A_eq=spec.a_eq,
            b_eq=spec.b_eq,
            bounds=bounds,
            method=self.method,
            options=options,
        )
        elapsed = time.perf_counter() - start

        status = LPStatus.from_scipy(scipy_result.status)
        if status is LPStatus.OPTIMAL:
            x = np.asarray(scipy_result.x, dtype=float)
            objective = float(scipy_result.fun)
        else:
            x = np.empty(0)
            objective = float("nan")

        iterations = getattr(scipy_result, "nit", None)

        return BackendSolution(
            status=status,
            objective=objective,
            x=x,
            solve_seconds=elapsed,
            message=str(scipy_result.message),
            backend=self.name,
            simplex_iterations=None if iterations is None else int(iterations),
        )
