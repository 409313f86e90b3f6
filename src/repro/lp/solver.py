"""Program-level LP solving: caching, error policy, result shaping.

The paper used Gurobi; HiGHS (bundled with scipy) solves the exact same LPs
to optimality, just more slowly.  Since the backend split this module no
longer talks to a solver engine directly — it drives a
:class:`~repro.lp.backends.linprog.LinprogBackend` (the engine-import-free
layer above it owns caching and the ``require_optimal`` contract).  Staged
solves that need warm starts reach for :func:`repro.lp.backends.get_backend`
instead.

Warm starting
-------------
scipy's ``linprog`` interface exposes neither basis injection nor a primal
starting point for HiGHS, so "warm starting" here degrades to the strongest
form that backend allows: **exact solution reuse**.  A :class:`LPSolveCache`
fingerprints every solved program (objective, constraint matrices, bounds,
method) and returns the cached optimal solution when an identical program is
solved again — which happens constantly in the batch runner (the shared
uniform-grid LP requested by several algorithms), in the λ-sampling
evaluation (every draw reuses one LP), and in repeated benchmark rounds.
Real warm starts (primal seeding of a resident HiGHS model) live in
:class:`~repro.lp.backends.highs.PersistentHighsBackend` and are driven by
the staged pipeline in :mod:`repro.core.timeindexed`.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, Optional

import numpy as np

from repro.lp.backends.base import DEFAULT_METHOD, LPSpec
from repro.lp.backends.linprog import LinprogBackend
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult, LPStatus


class LPSolverError(RuntimeError):
    """Raised when an LP cannot be solved to optimality and the caller required it."""


def _fingerprint(parts: Iterator[bytes]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _program_key(program: LinearProgram, matrices, method: str, presolve: bool) -> str:
    """Stable fingerprint of an assembled program + solver configuration."""
    c, a_ub, b_ub, a_eq, b_eq, _bounds = matrices
    lower, upper = program.bounds_arrays()

    def parts() -> Iterator[bytes]:
        yield method.encode()
        yield b"presolve" if presolve else b"no-presolve"
        yield np.ascontiguousarray(c).tobytes()
        yield lower.tobytes()
        yield upper.tobytes()
        for matrix, rhs, tag in ((a_ub, b_ub, b"ub"), (a_eq, b_eq, b"eq")):
            yield tag
            if matrix is None:
                continue
            yield np.asarray(matrix.shape, dtype=np.int64).tobytes()
            yield matrix.indptr.tobytes()
            yield matrix.indices.tobytes()
            yield matrix.data.tobytes()
            yield np.ascontiguousarray(rhs).tobytes()

    return _fingerprint(parts())


class LPSolveCache:
    """LRU cache of solved programs, keyed by exact program fingerprint.

    Backend-agnostic: it stores finished :class:`LPResult` objects, so any
    backend whose solves are deterministic for a given fingerprint can sit
    beneath it.  Only **optimal** results are admitted — caching a failure
    would replay a transient solver hiccup as a permanent one for the rest
    of the process.

    Cached entries are returned as shallow copies with a fresh ``metadata``
    dict (tagged ``warm_start: "reused"``), so callers may annotate results
    without corrupting the cache.
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, LPResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> Optional[LPResult]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        # Fresh copies of the mutable fields: a caller mutating the returned
        # solution (or its metadata) must not corrupt later cache hits.
        return replace(
            entry,
            x=entry.x.copy(),
            metadata={**entry.metadata, "warm_start": "reused"},
        )

    def store(self, key: str, result: LPResult) -> None:
        if not result.is_optimal:
            return
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }


#: Process-wide cache installed by :func:`solver_cache`; ``None`` disables
#: implicit reuse (every solve_lp call without an explicit cache hits HiGHS).
_ACTIVE_CACHE: Optional[LPSolveCache] = None


@contextmanager
def solver_cache(cache: Optional[LPSolveCache] = None):
    """Install an :class:`LPSolveCache` for every solve inside the block.

    Nested blocks stack (the innermost cache wins); the previous cache is
    restored on exit.  Yields the active cache so callers can read its
    hit/miss statistics afterwards.
    """
    global _ACTIVE_CACHE
    active = cache if cache is not None else LPSolveCache()
    previous = _ACTIVE_CACHE
    _ACTIVE_CACHE = active
    try:
        yield active
    finally:
        _ACTIVE_CACHE = previous


def active_solver_cache() -> Optional[LPSolveCache]:
    """The cache currently installed by :func:`solver_cache`, if any."""
    return _ACTIVE_CACHE


def solve_lp(
    program: LinearProgram,
    *,
    method: str = DEFAULT_METHOD,
    presolve: bool = True,
    time_limit: Optional[float] = None,
    require_optimal: bool = False,
    cache: Optional[LPSolveCache] = None,
) -> LPResult:
    """Solve *program* and return an :class:`~repro.lp.result.LPResult`.

    Parameters
    ----------
    program:
        The assembled linear program.
    method:
        Any method accepted by :func:`scipy.optimize.linprog`; defaults to
        HiGHS.
    presolve:
        Whether to let the backend presolve (recommended; the time-indexed
        LPs contain many fixed variables from release-time constraints).
    time_limit:
        Optional wall-clock limit in seconds passed to HiGHS.
    require_optimal:
        When true, raise :class:`LPSolverError` unless the status is optimal.
    cache:
        Warm-start cache; defaults to the cache installed by
        :func:`solver_cache` (or no caching when none is installed).
        Time-limited solves are never cached (the limit may have truncated
        the solve nondeterministically), and non-optimal results are never
        cached (a transient failure must not become permanent).
    """
    matrices = program.build_matrices()

    active = cache if cache is not None else _ACTIVE_CACHE
    cacheable = active is not None and time_limit is None
    key = _program_key(program, matrices, method, presolve) if cacheable else None
    if cacheable:
        hit = active.lookup(key)
        if hit is not None:
            if require_optimal and not hit.is_optimal:
                raise LPSolverError(
                    f"LP {program.name!r} failed to solve: {hit.status.value} "
                    f"({hit.message})"
                )
            return hit

    c, a_ub, b_ub, a_eq, b_eq, _bounds = matrices
    lower, upper = program.bounds_arrays()
    spec = LPSpec(
        c=np.ascontiguousarray(c, dtype=float),
        a_ub=a_ub,
        b_ub=None if b_ub is None else np.ascontiguousarray(b_ub, dtype=float),
        a_eq=a_eq,
        b_eq=None if b_eq is None else np.ascontiguousarray(b_eq, dtype=float),
        col_lower=lower,
        col_upper=upper,
        name=program.name,
    )
    backend = LinprogBackend(method=method)
    solution = backend.solve(spec, presolve=presolve, time_limit=time_limit)

    if solution.status is LPStatus.OPTIMAL:
        result = LPResult(
            status=solution.status,
            objective=solution.objective,
            x=solution.x,
            solve_seconds=solution.solve_seconds,
            message=solution.message,
            metadata=program.size_summary(),
            simplex_iterations=solution.simplex_iterations,
        )
    else:
        result = LPResult.failed(solution.status, message=solution.message)
        result.solve_seconds = solution.solve_seconds
        result.metadata = program.size_summary()
        result.simplex_iterations = solution.simplex_iterations

    if cacheable:
        active.store(key, result)

    if require_optimal and not result.is_optimal:
        raise LPSolverError(
            f"LP {program.name!r} failed to solve: {result.status.value} "
            f"({result.message})"
        )
    return result
