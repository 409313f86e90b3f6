"""Backend-neutral LP data structures and the :class:`SolverBackend` protocol.

The staged solve pipeline (PR 10) routes every LP solve in the repository
through one of two interchangeable backends:

* :class:`~repro.lp.backends.linprog.LinprogBackend` — the always-available
  wrapper around :func:`scipy.optimize.linprog` (HiGHS), preserving the exact
  semantics ``repro.lp.solver.solve_lp`` has had since PR 1;
* :class:`~repro.lp.backends.highs.PersistentHighsBackend` — resident HiGHS
  models through scipy's in-process API, supporting primal warm starts and
  basis snapshot/restore.

Both consume an :class:`LPSpec` (the solver-agnostic standard form an
assembled :class:`~repro.lp.model.LinearProgram` reduces to) and produce a
:class:`BackendSolution`.  Code outside :mod:`repro.lp.backends` never
imports a solver engine directly — lint rule R010 enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Tuple, runtime_checkable

import numpy as np
from scipy import sparse

from repro.lp.result import LPStatus

#: HiGHS dual-simplex is the most robust choice for these very sparse,
#: highly degenerate scheduling LPs; "highs" lets scipy pick between simplex
#: and interior point.
DEFAULT_METHOD = "highs"


@dataclass
class LPSpec:
    """Solver-agnostic standard form of an assembled linear program.

    Minimise ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``
    and ``col_lower <= x <= col_upper``.  Either constraint block may be
    absent (``None``).  The row order inside each block is the emission
    order of the originating :class:`~repro.lp.model.LinearProgram`.
    """

    c: np.ndarray
    a_ub: Optional[sparse.csr_matrix]
    b_ub: Optional[np.ndarray]
    a_eq: Optional[sparse.csr_matrix]
    b_eq: Optional[np.ndarray]
    col_lower: np.ndarray
    col_upper: np.ndarray
    name: str = "lp"

    @classmethod
    def from_program(cls, program) -> "LPSpec":
        """The spec of an assembled :class:`~repro.lp.model.LinearProgram`."""
        c, a_ub, b_ub, a_eq, b_eq, _bounds = program.build_matrices()
        lower, upper = program.bounds_arrays()
        return cls(
            c=np.ascontiguousarray(c, dtype=float),
            a_ub=a_ub,
            b_ub=None if b_ub is None else np.ascontiguousarray(b_ub, dtype=float),
            a_eq=a_eq,
            b_eq=None if b_eq is None else np.ascontiguousarray(b_eq, dtype=float),
            col_lower=lower,
            col_upper=upper,
            name=program.name,
        )

    @property
    def num_cols(self) -> int:
        return int(self.c.size)

    @property
    def num_ub_rows(self) -> int:
        return 0 if self.b_ub is None else int(self.b_ub.size)

    @property
    def num_eq_rows(self) -> int:
        return 0 if self.b_eq is None else int(self.b_eq.size)

    def combined(self) -> Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """One stacked ``(matrix, row_lower, row_upper)`` triple.

        Inequality rows come first, equality rows second — the fixed order
        every backend uses.
        """
        matrices = []
        lower_parts = []
        upper_parts = []
        if self.a_ub is not None:
            matrices.append(self.a_ub)
            lower_parts.append(np.full(self.num_ub_rows, -np.inf))
            upper_parts.append(self.b_ub)
        if self.a_eq is not None:
            matrices.append(self.a_eq)
            lower_parts.append(self.b_eq)
            upper_parts.append(self.b_eq)
        if not matrices:
            empty = sparse.csr_matrix((0, self.num_cols))
            return empty, np.empty(0), np.empty(0)
        return (
            sparse.vstack(matrices, format="csr"),
            np.concatenate(lower_parts),
            np.concatenate(upper_parts),
        )


@dataclass
class BackendSolution:
    """What one backend solve produced, independent of the engine."""

    status: LPStatus
    objective: float
    x: np.ndarray
    solve_seconds: float
    message: str = ""
    backend: str = ""
    simplex_iterations: Optional[int] = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL


@runtime_checkable
class SolverBackend(Protocol):
    """The one interface every LP solve in the repository goes through.

    Attributes
    ----------
    name:
        Stable identifier (used in cache keys and report metadata).
    supports_warm_start:
        Whether :meth:`solve` can exploit ``warm_primal``; backends that
        cannot must silently ignore it (a warm start is an optimization,
        never a semantic change).
    """

    name: str
    supports_warm_start: bool

    def solve(
        self,
        spec: LPSpec,
        *,
        presolve: bool = True,
        time_limit: Optional[float] = None,
        warm_primal: Optional[np.ndarray] = None,
    ) -> BackendSolution:
        """Solve *spec* and return a :class:`BackendSolution`."""
        ...
