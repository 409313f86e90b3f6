"""Solved-LP result object."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np


class LPStatus(str, enum.Enum):
    """Normalized solver status."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_ERROR = "numerical_error"

    @classmethod
    def from_scipy(cls, status_code: int) -> "LPStatus":
        """Map :func:`scipy.optimize.linprog` status codes to this enum."""
        mapping = {
            0: cls.OPTIMAL,
            1: cls.ITERATION_LIMIT,
            2: cls.INFEASIBLE,
            3: cls.UNBOUNDED,
            4: cls.NUMERICAL_ERROR,
        }
        return mapping.get(status_code, cls.NUMERICAL_ERROR)


@dataclass
class LPResult:
    """Outcome of solving a :class:`~repro.lp.model.LinearProgram`.

    Attributes
    ----------
    status:
        Normalized solver status.
    objective:
        Optimal objective value (``nan`` unless optimal).
    x:
        Primal solution vector (empty unless optimal).
    solve_seconds:
        Wall-clock time spent inside the solver.
    message:
        Raw backend message, useful when a solve fails.
    metadata:
        Free-form extra information (LP sizes, solver options, ...).
    simplex_iterations:
        Simplex iterations the backend spent, when it reported them
        (warm-start telemetry: a seeded solve should need far fewer).
    """

    status: LPStatus
    objective: float
    x: np.ndarray
    solve_seconds: float = 0.0
    message: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)
    simplex_iterations: Optional[int] = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL

    def require_optimal(self) -> "LPResult":
        """Return self, raising if the solve did not reach optimality."""
        if not self.is_optimal:
            raise RuntimeError(
                f"LP did not solve to optimality: status={self.status.value}, "
                f"message={self.message!r}"
            )
        return self

    def values(self, indices: np.ndarray) -> np.ndarray:
        """Primal values for a (possibly multidimensional) index array.

        The returned array has the same shape as *indices*; tiny negative
        values produced by the interior-point/HiGHS tolerance are clipped to
        zero so downstream schedule code never sees ``-1e-12`` fractions.
        """
        values = self.x[np.asarray(indices, dtype=np.int64)]
        return np.clip(values, 0.0, None)

    def value(self, index: int) -> float:
        """Primal value of a single variable (clipped at zero)."""
        return float(max(self.x[int(index)], 0.0))

    def summary(self) -> Dict[str, object]:
        """Small dict for experiment reporting."""
        return {
            "status": self.status.value,
            "objective": self.objective,
            "solve_seconds": self.solve_seconds,
            **self.metadata,
        }

    @classmethod
    def failed(cls, status: LPStatus, message: str = "") -> "LPResult":
        """Construct a failure result with no solution vector."""
        return cls(
            status=status,
            objective=float("nan"),
            x=np.empty(0, dtype=float),
            message=message,
        )
