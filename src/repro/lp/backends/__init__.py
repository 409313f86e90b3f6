"""Unified solver-backend layer: every LP solve goes through one protocol.

Public surface:

* :class:`LPSpec` / :class:`BackendSolution` — backend-neutral problem and
  solution containers;
* :class:`SolverBackend` — the protocol;
* :class:`LinprogBackend` — always-available :func:`scipy.optimize.linprog`
  wrapper;
* :class:`PersistentHighsBackend` / :class:`PersistentHighsLP` — resident
  HiGHS models with primal warm starts and basis snapshot/restore;
* :func:`get_backend` — name-based selection with automatic fallback to
  :class:`LinprogBackend` when the in-process HiGHS API is unavailable.

Lint rule R010 (``no-direct-linprog``) confines solver-engine imports to
this package.
"""

from __future__ import annotations

from repro.lp.backends.base import (
    DEFAULT_METHOD,
    BackendSolution,
    LPSpec,
    SolverBackend,
)
from repro.lp.backends.highs import (
    HIGHS_AVAILABLE,
    BasisSnapshot,
    PersistentHighsBackend,
    PersistentHighsError,
    PersistentHighsLP,
    make_persistent_lp,
)
from repro.lp.backends.linprog import LinprogBackend

#: Recognised backend selector names (``"auto"`` picks the fastest available).
BACKEND_NAMES = ("auto", "linprog", "persistent-highs")


def get_backend(name: str = "auto", *, method: str = DEFAULT_METHOD) -> SolverBackend:
    """Resolve a backend selector to a concrete :class:`SolverBackend`.

    ``"auto"`` prefers :class:`PersistentHighsBackend` (warm starts)
    and silently falls back to :class:`LinprogBackend` when scipy's private
    HiGHS API is not importable — callers never need to guard on
    ``HIGHS_AVAILABLE`` themselves.  ``"persistent-highs"`` requested
    explicitly degrades the same way: the fallback produces identical
    optima, only slower, so it is a performance event, not an error.
    """
    if name == "auto" or name == "persistent-highs":
        if HIGHS_AVAILABLE:
            return PersistentHighsBackend()
        return LinprogBackend(method=method)
    if name == "linprog":
        return LinprogBackend(method=method)
    raise ValueError(
        f"unknown solver backend {name!r}; expected one of {BACKEND_NAMES}"
    )


__all__ = [
    "BACKEND_NAMES",
    "BackendSolution",
    "BasisSnapshot",
    "DEFAULT_METHOD",
    "HIGHS_AVAILABLE",
    "LPSpec",
    "LinprogBackend",
    "PersistentHighsBackend",
    "PersistentHighsError",
    "PersistentHighsLP",
    "SolverBackend",
    "get_backend",
    "make_persistent_lp",
]
