"""The time-indexed LP relaxation for coflow scheduling in networks.

This module implements the linear program of the paper's Section 3 —
constraints (1)–(5) shared by both models, plus the model-specific
constraints: edge bandwidths along pinned paths for the single path model
(Eq. 6) and per-slot multicommodity-flow constraints for the free path
model (Eqs. 7–10).  The geometric-interval variant of Appendix A
(Eqs. 14–23) is obtained simply by passing a geometric
:class:`~repro.schedule.timegrid.TimeGrid`: every constraint below is
written in terms of slot durations, which are 1 for the uniform grid and
``tau_t - tau_{t-1}`` for the geometric one.

Variables
---------
``x[f, t]``
    Fraction of flow *f* scheduled during slot *t* (paper ``x_j^i(t)``).
``X[j, t]``
    Fraction of coflow *j* completed by the end of slot *t* (paper
    ``X_j(t)``), bounded to [0, 1].
``C[j]``
    Completion-time variable of coflow *j*.
``y[f, t, e]`` (free path only)
    Fraction of flow *f* carried by edge *e* during slot *t* (paper
    ``x_j^i(t, e)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.lp.backends import LPSpec, get_backend
from repro.lp.model import ConstraintSense, LinearProgram
from repro.lp.result import LPResult
from repro.lp.solver import solve_lp
from repro.schedule.schedule import Schedule
from repro.schedule.timegrid import TimeGrid
from repro.utils.validation import check_positive


# --------------------------------------------------------------------------- #
# horizon estimation
# --------------------------------------------------------------------------- #
def suggest_horizon(
    instance: CoflowInstance,
    *,
    slot_length: float = 1.0,
    slack: float = 1.1,
) -> int:
    """A safe number of uniform slots ``T`` for the time-indexed LP.

    The LP needs a horizon large enough that *some* feasible schedule exists.
    Serialising all flows is always feasible, so we bound the horizon by the
    latest release time plus the serial transmission time, where each flow's
    serial time uses the bottleneck bandwidth of its pinned path (single
    path) or its maximum ``s -> t`` flow value (free path).

    Parameters
    ----------
    instance:
        The instance to bound.
    slot_length:
        Length of the uniform slots the LP will use.
    slack:
        Multiplier (> 1) applied to the serial time; a little slack keeps the
        LP comfortably feasible and leaves room for the completion-time
        variables to do their job.

    Returns
    -------
    int
        Number of slots (at least 1).
    """
    check_positive(slot_length, "slot_length")
    check_positive(slack, "slack")
    serial_time = 0.0
    graph = instance.graph
    rate_cache: Dict[tuple, float] = {}
    for ref in instance.flow_refs():
        flow = ref.flow
        if instance.model is TransmissionModel.SINGLE_PATH and flow.has_path:
            rate = graph.path_bottleneck(flow.path)  # type: ignore[arg-type]
        else:
            key = (flow.source, flow.sink)
            if key not in rate_cache:
                rate_cache[key] = graph.max_flow_value(flow.source, flow.sink)
            rate = rate_cache[key]
        if rate <= 0:
            raise ValueError(
                f"flow {ref.label} has no positive-rate route; instance infeasible"
            )
        serial_time += flow.demand / rate
    horizon_time = instance.max_release_time() + serial_time * slack
    return max(int(np.ceil(horizon_time / slot_length)) + 1, 1)


def resolve_grid(
    instance: CoflowInstance,
    *,
    grid: Optional[TimeGrid] = None,
    num_slots: Optional[int] = None,
    slot_length: float = 1.0,
    epsilon: Optional[float] = None,
    horizon_slack: float = 1.1,
) -> TimeGrid:
    """Resolve a grid specification to a concrete :class:`TimeGrid`.

    Exactly one specification is used, in this order of precedence:

    1. an explicit *grid*;
    2. *epsilon* — a geometric grid ``0, 1, (1+eps), ...`` covering the
       suggested horizon (Appendix A);
    3. *num_slots* uniform slots of *slot_length*;
    4. otherwise, a uniform grid sized by :func:`suggest_horizon`.

    This is the single source of truth shared by
    :func:`solve_time_indexed_lp` and the grid-keyed LP cache of
    :class:`~repro.core.scheduler.CoflowScheduler` — both must resolve the
    same parameters to the same grid or shared-LP reuse silently degrades.
    """
    if grid is not None:
        return grid
    if epsilon is not None:
        horizon_slots = suggest_horizon(
            instance, slot_length=slot_length, slack=horizon_slack
        )
        return TimeGrid.geometric(horizon_slots * slot_length, epsilon)
    if num_slots is None:
        num_slots = suggest_horizon(
            instance, slot_length=slot_length, slack=horizon_slack
        )
    return TimeGrid.uniform(num_slots, slot_length)


# --------------------------------------------------------------------------- #
# LP solution container
# --------------------------------------------------------------------------- #
@dataclass
class CoflowLPSolution:
    """An optimal solution of the time-indexed (or interval-indexed) LP.

    Attributes
    ----------
    instance, grid:
        The problem and time grid the LP was built on.
    objective:
        The LP objective ``sum_j w_j C_j*`` — a valid lower bound on the
        optimal weighted completion time (paper Eq. 11).
    completion_times:
        The LP completion-time variables ``C_j*`` per coflow.
    fractions:
        Optimal ``x[f, t]`` values, shape ``(num_flows, num_slots)``.
    edge_fractions:
        Optimal ``y[f, t, e]`` values for the free path model, otherwise
        ``None``.
    lp_result:
        The raw solver result (status, timings, sizes).
    """

    instance: CoflowInstance
    grid: TimeGrid
    objective: float
    completion_times: np.ndarray
    fractions: np.ndarray
    edge_fractions: Optional[np.ndarray]
    lp_result: LPResult
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def lower_bound(self) -> float:
        """Alias for :attr:`objective`, emphasising its role as a bound."""
        return self.objective

    def to_schedule(self) -> Schedule:
        """The LP solution interpreted directly as a schedule.

        This is exactly the "LP-based heuristic" raw material of the paper's
        Section 6.2: the LP fractions form a feasible transmission schedule,
        whose *true* completion times (Eq. 12) can exceed the LP
        completion-time variables.
        """
        return Schedule(
            self.instance,
            self.grid,
            self.fractions.copy(),
            None if self.edge_fractions is None else self.edge_fractions.copy(),
            metadata={"source": "lp", **self.metadata},
        )

    def fractional_completion_times(self) -> np.ndarray:
        """Continuous-time fractional completion times implied by the fractions.

        Computed as ``sum_t midpoint-weighted x`` — only used for diagnostics
        and tests; the LP's own ``C_j`` variables are the quantity the
        analysis works with.
        """
        coflow_idx = self.instance.coflow_of_flow()
        cumulative = np.cumsum(self.fractions, axis=1)
        ends = self.grid.boundaries[1:]
        # Fractional completion of a flow: integral of (1 - cumulative) + first slot end.
        durations = self.grid.durations
        remaining = np.clip(1.0 - cumulative, 0.0, None)
        flow_frac = durations[0] + remaining @ durations
        times = np.zeros(self.instance.num_coflows, dtype=float)
        np.maximum.at(times, coflow_idx, flow_frac)
        return times


@dataclass
class _LPIndexBundle:
    """Variable-index arrays for one assembled coflow LP."""

    x: np.ndarray  # (num_flows, T)
    big_x: np.ndarray  # (num_coflows, T)
    c: np.ndarray  # (num_coflows,)
    y: Optional[np.ndarray]  # (num_flows, T, E) or None


# --------------------------------------------------------------------------- #
# LP construction
# --------------------------------------------------------------------------- #
def build_time_indexed_lp(
    instance: CoflowInstance,
    grid: TimeGrid,
) -> tuple[LinearProgram, _LPIndexBundle]:
    """Assemble the LP of Section 3 / Appendix A for *instance* on *grid*.

    Returns the :class:`~repro.lp.model.LinearProgram` plus the index bundle
    needed to read the solution back.  Use :func:`solve_time_indexed_lp` for
    the common build-and-solve path.

    The assembly is fully vectorized: every constraint family is emitted as
    one batched COO triplet built from precomputed incidence arrays (the
    flow→edge incidence and release masks cached on
    :class:`~repro.coflow.instance.CoflowInstance` and
    :class:`~repro.network.graph.NetworkGraph`), with no per-slot or
    per-flow Python loops on the hot path.  The produced program is
    bit-identical to the loop-based reference in
    :mod:`repro.core.timeindexed_reference`, which the equivalence tests
    assert and ``repro bench`` measures against.
    """
    num_flows = instance.num_flows
    num_coflows = instance.num_coflows
    num_slots = grid.num_slots
    durations = grid.durations
    graph = instance.graph
    num_edges = graph.num_edges
    free_path = instance.model is TransmissionModel.FREE_PATH

    lp = LinearProgram(name=f"coflow-{instance.model.value}-{instance.name}")

    # ----------------------------- variables --------------------------- #
    x_block = lp.add_variables("x", num_flows * num_slots, lower=0.0, upper=1.0)
    x_idx = x_block.reshape(num_flows, num_slots)
    big_x_block = lp.add_variables("X", num_coflows * num_slots, lower=0.0, upper=1.0)
    big_x_idx = big_x_block.reshape(num_coflows, num_slots)
    c_block = lp.add_variables("C", num_coflows, lower=0.0)
    c_idx = c_block.indices()
    y_idx: Optional[np.ndarray] = None
    if free_path:
        y_block = lp.add_variables(
            "y", num_flows * num_slots * num_edges, lower=0.0, upper=1.0
        )
        y_idx = y_block.reshape(num_flows, num_slots, num_edges)

    # ----------------------------- objective --------------------------- #
    lp.set_objective(c_idx, instance.weights)

    # ------------------------- release times (Eq. 4) ------------------- #
    release = instance.flow_release_times()
    allowed = grid.release_mask(release)  # (num_flows, num_slots)
    forbidden = ~allowed
    lp.fix_variables(x_idx[forbidden], 0.0)
    if y_idx is not None:
        lp.fix_variables(y_idx[forbidden, :], 0.0)

    # -------------------- demand satisfaction (Eq. 1) ------------------ #
    rows = np.repeat(np.arange(num_flows), num_slots)
    cols = x_idx.reshape(-1)
    vals = np.ones(num_flows * num_slots)
    lp.add_constraints_batch(
        rows, cols, vals, np.ones(num_flows), ConstraintSense.EQUAL
    )

    # ------------------- coflow completion indicators (Eq. 2) ---------- #
    # X_j(t) <= sum_{l <= t} x_f(l)   for every flow f of coflow j, every t.
    # Row (f, t) has the X_j(t) entry plus a lower-triangular block of x
    # entries; both parts are emitted by pure index arithmetic.
    coflow_of_flow = instance.coflow_of_flow()
    rows_big_x = np.arange(num_flows * num_slots, dtype=np.int64)
    cols_big_x = big_x_idx[coflow_of_flow, :].reshape(-1)
    tri_t, tri_l = np.tril_indices(num_slots)
    rows_x = (
        np.arange(num_flows, dtype=np.int64)[:, None] * num_slots + tri_t[None, :]
    ).reshape(-1)
    cols_x = x_idx[:, tri_l].reshape(-1)
    lp.add_constraints_batch(
        np.concatenate([rows_big_x, rows_x]),
        np.concatenate([cols_big_x, cols_x]),
        np.concatenate([np.ones(rows_big_x.size), -np.ones(rows_x.size)]),
        np.zeros(num_flows * num_slots),
        ConstraintSense.LESS_EQUAL,
    )

    # ------------------- completion-time lower bound (Eq. 3 / 16) ------ #
    # C_j >= d_0 + sum_t d_t (1 - X_j(t))
    #   <=>  -C_j - sum_t d_t X_j(t) <= -(d_0 + sum_t d_t)
    first_duration = float(durations[0])
    total_duration = float(durations.sum())
    lp.add_constraints_batch(
        np.concatenate(
            [np.arange(num_coflows), np.repeat(np.arange(num_coflows), num_slots)]
        ),
        np.concatenate([c_idx, big_x_idx.reshape(-1)]),
        np.concatenate(
            [-np.ones(num_coflows), -np.tile(durations, num_coflows)]
        ),
        np.full(num_coflows, -(first_duration + total_duration)),
        ConstraintSense.LESS_EQUAL,
    )

    # ------------------------ model-specific part ----------------------- #
    if free_path:
        assert y_idx is not None
        _add_free_path_constraints(lp, instance, grid, x_idx, y_idx)
    else:
        _add_single_path_constraints(lp, instance, grid, x_idx)

    return lp, _LPIndexBundle(x=x_idx, big_x=big_x_idx, c=c_idx, y=y_idx)


def _add_single_path_constraints(
    lp: LinearProgram,
    instance: CoflowInstance,
    grid: TimeGrid,
    x_idx: np.ndarray,
) -> None:
    """Edge bandwidth constraints along pinned paths (paper Eq. 6 / 19).

    Built from the cached flow→edge incidence of the instance: entry *k* of
    the incidence contributes one coefficient per slot, giving row
    ``rank(edge_k) * T + t`` directly by arithmetic.
    """
    graph = instance.graph
    capacities = graph.capacity_vector()
    durations = grid.durations
    num_slots = grid.num_slots

    try:
        inc_flows, inc_edges = instance.path_edge_incidence()
    except ValueError as exc:
        raise ValueError(str(exc).replace("path incidence", "single path LP")) from exc
    if inc_flows.size == 0:
        return

    # Stable sort groups incidence entries by edge while preserving the
    # flow-insertion order within each edge (matching the loop reference).
    order = np.argsort(inc_edges, kind="stable")
    inc_flows = inc_flows[order]
    inc_edges = inc_edges[order]
    used_edges, edge_rank = np.unique(inc_edges, return_inverse=True)

    slot_range = np.arange(num_slots, dtype=np.int64)
    rows = (edge_rank[:, None] * num_slots + slot_range[None, :]).reshape(-1)
    cols = x_idx[inc_flows, :].reshape(-1)
    vals = np.repeat(instance.demands()[inc_flows], num_slots)
    rhs = (capacities[used_edges][:, None] * durations[None, :]).reshape(-1)
    lp.add_constraints_batch(rows, cols, vals, rhs, ConstraintSense.LESS_EQUAL)


def _add_free_path_constraints(
    lp: LinearProgram,
    instance: CoflowInstance,
    grid: TimeGrid,
    x_idx: np.ndarray,
    y_idx: np.ndarray,
) -> None:
    """Multicommodity-flow constraints of the free path model (Eqs. 7–10 / 20–23).

    In addition to the paper's constraints we fix ``y = 0`` on edges entering
    a flow's source and leaving its sink.  Any feasible transmission with such
    circulation can be pruned to one without (remove flow cycles), so this
    does not change the LP optimum; it removes useless variables and makes
    solutions directly verifiable as net-flow decompositions.

    Vectorization: the conservation block of one flow is identical for every
    slot up to a constant column shift (``E`` per slot for ``y`` entries, 1
    per slot for the ``x`` entry), so a per-(source, sink) coefficient
    pattern is built once and broadcast over all slots with index
    arithmetic.  The per-edge bandwidth rows (Eq. 10) are emitted as a
    single dense-index computation.
    """
    graph = instance.graph
    capacities = graph.capacity_vector()
    durations = grid.durations
    num_slots = grid.num_slots
    num_edges = graph.num_edges
    num_flows = instance.num_flows
    nodes = graph.nodes

    x_start = int(x_idx[0, 0])
    y_start = int(y_idx[0, 0, 0])
    slot_range = np.arange(num_slots, dtype=np.int64)

    # Per-(src, dst) conservation pattern: (local_row, relative column at
    # t=0, per-slot column step, coefficient) per nonzero.  rows_per_slot is
    # the number of conservation rows one slot contributes for the flow.
    pattern_cache: Dict[
        tuple, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]
    ] = {}

    def _pattern(src: str, dst: str):
        cached = pattern_cache.get((src, dst))
        if cached is not None:
            return cached
        local_rows: list[int] = []
        rel_cols: list[int] = []
        steps: list[int] = []
        coefs: list[float] = []

        def _emit(row: int, edge_ids: np.ndarray, coef: float) -> None:
            local_rows.extend([row] * edge_ids.size)
            rel_cols.extend(edge_ids.tolist())
            steps.extend([num_edges] * edge_ids.size)
            coefs.extend([coef] * edge_ids.size)

        # Eq. (7): sum_out(src) y - x = 0, then Eq. (8): sum_in(dst) y - x = 0.
        _emit(0, graph.out_edge_indices(src), 1.0)
        local_rows.append(0)
        rel_cols.append(-1)  # placeholder: x column, filled via step/base
        steps.append(1)
        coefs.append(-1.0)
        _emit(1, graph.in_edge_indices(dst), 1.0)
        local_rows.append(1)
        rel_cols.append(-1)
        steps.append(1)
        coefs.append(-1.0)
        # Eq. (9): conservation at every other (non-isolated) node.
        row = 2
        for node in nodes:
            if node == src or node == dst:
                continue
            node_in = graph.in_edge_indices(node)
            node_out = graph.out_edge_indices(node)
            if node_in.size == 0 and node_out.size == 0:
                continue
            _emit(row, node_in, 1.0)
            _emit(row, node_out, -1.0)
            row += 1
        pattern = (
            np.array(local_rows, dtype=np.int64),
            np.array(rel_cols, dtype=np.int64),
            np.array(steps, dtype=np.int64),
            np.array(coefs, dtype=float),
            row,
        )
        pattern_cache[(src, dst)] = pattern
        return pattern

    eq_rows: list[np.ndarray] = []
    eq_cols: list[np.ndarray] = []
    eq_vals: list[np.ndarray] = []
    eq_row_offset = 0

    for ref in instance.flow_refs():
        f = ref.global_index
        src, dst = ref.flow.source, ref.flow.sink
        # Disallow circulation through the endpoints (see docstring).
        lp.fix_variables(y_idx[f][:, graph.in_edge_indices(src)], 0.0)
        lp.fix_variables(y_idx[f][:, graph.out_edge_indices(dst)], 0.0)

        local_rows, rel_cols, steps, coefs, rows_per_slot = _pattern(src, dst)
        # Column at t=0: y entries live at y_start + f*T*E + e, the x entry
        # (rel_col == -1) at x_start + f*T.
        col0 = np.where(
            rel_cols >= 0,
            y_start + f * num_slots * num_edges + rel_cols,
            x_start + f * num_slots,
        )
        eq_rows.append(
            (
                eq_row_offset
                + slot_range[:, None] * rows_per_slot
                + local_rows[None, :]
            ).reshape(-1)
        )
        eq_cols.append(
            (col0[None, :] + slot_range[:, None] * steps[None, :]).reshape(-1)
        )
        eq_vals.append(np.tile(coefs, num_slots))
        eq_row_offset += num_slots * rows_per_slot

    if eq_row_offset:
        lp.add_constraints_batch(
            np.concatenate(eq_rows),
            np.concatenate(eq_cols),
            np.concatenate(eq_vals),
            np.zeros(eq_row_offset),
            ConstraintSense.EQUAL,
        )

    # Eq. (10): edge bandwidths.  Row (t, e) sums y over all flows.
    demands = instance.demands()
    te_range = np.arange(num_slots * num_edges, dtype=np.int64)
    rows = np.repeat(te_range, num_flows)
    # y_idx[f, t, e] = y_start + f*T*E + (t*E + e); enumerate flows minor.
    cols = (
        te_range[:, None]
        + np.arange(num_flows, dtype=np.int64)[None, :] * (num_slots * num_edges)
    ).reshape(-1) + y_start
    vals = np.tile(demands, num_slots * num_edges)
    rhs = (durations[:, None] * capacities[None, :]).reshape(-1)
    lp.add_constraints_batch(rows, cols, vals, rhs, ConstraintSense.LESS_EQUAL)


# --------------------------------------------------------------------------- #
# staged solve pipeline
# --------------------------------------------------------------------------- #
#: Recognised values of the ``strategy`` knob of :func:`solve_time_indexed_lp`.
SOLVE_STRATEGIES = ("direct", "refine")

#: Epsilon of the cheap geometric stage the "refine" strategy solves first.
#: 0.2 keeps the coarse LP an order of magnitude smaller than typical fine
#: uniform grids while staying close enough that the mapped primal point
#: seeds the fine solve well.
STAGE_EPSILON = 0.2


def map_solution_to_grid(
    coarse: CoflowLPSolution,
    grid: TimeGrid,
    bundle: _LPIndexBundle,
    num_variables: int,
) -> np.ndarray:
    """A coarse-grid LP solution spread onto *grid* as a full primal vector.

    Every fine slot receives the time-proportional share of its containing
    coarse slot's allocation (via :meth:`TimeGrid.refine_map`), cumulative
    completion indicators are rebuilt from the mapped fractions, and the
    coarse completion-time variables carry over unchanged.  The point is a
    warm-start *seed* — it need not satisfy the fine LP exactly (release
    boundaries may cut through coarse slots); HiGHS repairs it in crossover.
    """
    owner = grid.refine_map(coarse.grid)
    frac_share = grid.durations / coarse.grid.durations[owner]
    x = coarse.fractions[:, owner] * frac_share[None, :]

    column = np.zeros(num_variables, dtype=float)
    column[bundle.x] = x

    # X_j(t) = min over the coflow's flows of the cumulative sent fraction.
    cumulative = np.cumsum(x, axis=1)
    coflow_of_flow = coarse.instance.coflow_of_flow()
    big_x = np.full((coarse.instance.num_coflows, grid.num_slots), np.inf)
    np.minimum.at(big_x, coflow_of_flow, cumulative)
    column[bundle.big_x] = np.clip(big_x, 0.0, 1.0)

    column[bundle.c] = coarse.completion_times
    if bundle.y is not None and coarse.edge_fractions is not None:
        column[bundle.y] = coarse.edge_fractions[:, owner, :] * frac_share[None, :, None]
    return column


def _stage_entry(
    name: str, grid: TimeGrid, result: LPResult, warm_start: bool
) -> Dict[str, object]:
    """One JSON-safe per-stage record for ``metadata["solve_path"]``."""
    return {
        "stage": name,
        "slots": grid.num_slots,
        "grid": "uniform" if grid.is_uniform else "nonuniform",
        "solve_seconds": float(result.solve_seconds),
        "simplex_iterations": result.simplex_iterations,
        "warm_start": warm_start,
    }


def _warm_solve(
    lp: LinearProgram,
    warm_primal: np.ndarray,
    *,
    solver_method: str,
    time_limit: Optional[float],
) -> tuple[LPResult, bool]:
    """Solve *lp* seeded with *warm_primal*, falling back to a cold solve.

    Returns ``(result, warm_used)``.  The fallback (no warm-start capable
    backend on this platform, or a seeded solve that did not reach
    optimality) goes through :func:`solve_lp`, i.e. exactly the "direct"
    path — the staged pipeline can only ever change *how fast* the optimum
    is found.
    """
    backend = get_backend("auto", method=solver_method)
    if backend.supports_warm_start:
        solution = backend.solve(
            LPSpec.from_program(lp), time_limit=time_limit, warm_primal=warm_primal
        )
        if solution.is_optimal:
            result = LPResult(
                status=solution.status,
                objective=solution.objective,
                x=solution.x,
                solve_seconds=solution.solve_seconds,
                message=solution.message,
                metadata={**lp.size_summary(), "warm_start": "primal-seeded"},
                simplex_iterations=solution.simplex_iterations,
            )
            return result, True
    result = solve_lp(
        lp, method=solver_method, time_limit=time_limit, require_optimal=True
    )
    return result, False


def _solve_direct(
    instance: CoflowInstance,
    grid: TimeGrid,
    *,
    solver_method: str,
    time_limit: Optional[float],
) -> tuple[LinearProgram, _LPIndexBundle, LPResult]:
    lp, bundle = build_time_indexed_lp(instance, grid)
    result = solve_lp(
        lp, method=solver_method, time_limit=time_limit, require_optimal=True
    )
    return lp, bundle, result


def _package_solution(
    instance: CoflowInstance,
    grid: TimeGrid,
    lp: LinearProgram,
    bundle: _LPIndexBundle,
    result: LPResult,
    solver_method: str,
    solve_path: Dict[str, object],
) -> CoflowLPSolution:
    fractions = result.values(bundle.x)
    completion_times = result.values(bundle.c)
    edge_fractions = None
    if bundle.y is not None:
        edge_fractions = result.values(bundle.y)
    objective = float(np.dot(instance.weights, completion_times))
    return CoflowLPSolution(
        instance=instance,
        grid=grid,
        objective=objective,
        completion_times=completion_times,
        fractions=fractions,
        edge_fractions=edge_fractions,
        lp_result=result,
        metadata={
            "solver_method": solver_method,
            "lp_size": lp.size_summary(),
            "solve_path": solve_path,
        },
    )


def solve_time_indexed_lp(
    instance: CoflowInstance,
    *,
    grid: Optional[TimeGrid] = None,
    num_slots: Optional[int] = None,
    slot_length: float = 1.0,
    epsilon: Optional[float] = None,
    horizon_slack: float = 1.1,
    solver_method: str = "highs",
    time_limit: Optional[float] = None,
    strategy: str = "direct",
) -> CoflowLPSolution:
    """Build and solve the coflow LP for *instance*.

    Exactly one time-grid specification is used, in this order of precedence:

    1. an explicit *grid*;
    2. *epsilon* — a geometric grid ``0, 1, (1+eps), ...`` covering the
       suggested horizon (Appendix A);
    3. *num_slots* uniform slots of *slot_length*;
    4. otherwise, a uniform grid sized by :func:`suggest_horizon`.

    Solve strategies
    ----------------
    ``"direct"``
        One cold solve on the resolved grid (historical behaviour).
    ``"refine"``
        Progressive grid refinement: solve a cheap geometric grid
        (:data:`STAGE_EPSILON`) first, spread its optimum onto the resolved
        grid (:func:`map_solution_to_grid`) and warm-start the fine solve
        from that primal seed.  Identical optimum, typically far fewer
        simplex iterations.  Degrades to "direct" when the resolved grid is
        not meaningfully finer than the geometric stage; solves cold when
        no warm-start capable backend is available.

    Per-stage wall time, iteration counts and warm-start provenance are
    recorded under ``metadata["solve_path"]`` for every strategy.

    Returns
    -------
    CoflowLPSolution
        The optimal LP solution; raises :class:`~repro.lp.solver.LPSolverError`
        if the LP cannot be solved to optimality.
    """
    if strategy not in SOLVE_STRATEGIES:
        raise ValueError(
            f"unknown solve strategy {strategy!r}; expected one of {SOLVE_STRATEGIES}"
        )
    grid = resolve_grid(
        instance,
        grid=grid,
        num_slots=num_slots,
        slot_length=slot_length,
        epsilon=epsilon,
        horizon_slack=horizon_slack,
    )

    solve_path: Dict[str, object] = {"strategy": strategy}
    if strategy == "refine":
        coarse_grid = TimeGrid.geometric(grid.horizon, STAGE_EPSILON)
        if coarse_grid.num_slots < grid.num_slots:
            return _solve_refined(
                instance,
                grid,
                coarse_grid,
                solver_method=solver_method,
                time_limit=time_limit,
            )
        # The target grid is already as coarse as the stage — staging would
        # only add overhead.  Solve directly but record why.
        solve_path["degraded_to"] = "direct"
        solve_path["reason"] = (
            f"coarse stage ({coarse_grid.num_slots} slots) not cheaper than "
            f"target grid ({grid.num_slots} slots)"
        )
    lp, bundle, result = _solve_direct(
        instance, grid, solver_method=solver_method, time_limit=time_limit
    )
    solve_path["stages"] = [_stage_entry("direct", grid, result, warm_start=False)]
    return _package_solution(
        instance, grid, lp, bundle, result, solver_method, solve_path
    )


def _solve_refined(
    instance: CoflowInstance,
    grid: TimeGrid,
    coarse_grid: TimeGrid,
    *,
    solver_method: str,
    time_limit: Optional[float],
) -> CoflowLPSolution:
    """The "refine" strategy: solve *coarse_grid*, warm-start *grid* from it."""
    coarse_lp, coarse_bundle, coarse_result = _solve_direct(
        instance, coarse_grid, solver_method=solver_method, time_limit=time_limit
    )
    coarse_solution = _package_solution(
        instance,
        coarse_grid,
        coarse_lp,
        coarse_bundle,
        coarse_result,
        solver_method,
        {"strategy": "direct", "stages": []},
    )
    fine_lp, fine_bundle = build_time_indexed_lp(instance, grid)
    seed = map_solution_to_grid(
        coarse_solution, grid, fine_bundle, fine_lp.num_variables
    )
    fine_result, warm_used = _warm_solve(
        fine_lp, seed, solver_method=solver_method, time_limit=time_limit
    )
    solve_path = {
        "strategy": "refine",
        "stages": [
            _stage_entry("coarse", coarse_grid, coarse_result, warm_start=False),
            _stage_entry("fine", grid, fine_result, warm_start=warm_used),
        ],
    }
    return _package_solution(
        instance, grid, fine_lp, fine_bundle, fine_result, solver_method, solve_path
    )
