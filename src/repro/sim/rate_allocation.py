"""Rate allocation primitives for the continuous-time simulator.

Two questions are answered here:

1. *How fast can a single coflow finish on a given (residual) network?*
   (:func:`coflow_standalone_time`, :func:`max_concurrent_rate`) — this is
   the quantity Terra computes per coflow before ordering them by SRTF.
2. *Given a priority order over coflows, what rate does every flow get right
   now?* (:func:`allocate_rates`) — coflows are served greedily in priority
   order, each receiving the rates that let it finish as early as possible on
   the capacity left over by higher-priority coflows.  This mirrors how
   Varys/Terra-style schedulers turn an ordering into a work-conserving rate
   assignment.

For the single path model the per-coflow allocation has a closed form (the
coflow's flows progress proportionally to their remaining demand, limited by
the most congested edge).  For the free path model it is a small LP: maximise
the common progress rate ``alpha`` such that shipping ``alpha * remaining_f``
per unit time is a feasible multicommodity flow in the residual network.

Performance
-----------
All primitives run through a per-instance :class:`RateAllocator` that
precomputes the flow→edge incidence (single path) and caches the assembled
max-concurrent-flow LP *structure* per active flow set (free path): between
simulator events only the ``-remaining`` coefficients and the residual
capacities change, so each event rewrites a few values in a prebuilt CSR
matrix instead of reassembling the program.  Standalone completion times are
memoized per (coflow, residual-capacity signature, remaining-demand
signature), which collapses the repeated LP families solved by Terra and the
greedy baselines when several of them run on the same instance.

The allocator assumes instances and their graphs are immutable once
scheduling starts (the same assumption the instance-level array caches
make).  The loop-based originals live in :mod:`repro.sim.reference` and are
used as the equivalence oracle and benchmark baseline.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.coflow.instance import CoflowInstance, FlowRef, TransmissionModel
from repro.network.graph import NetworkGraph
from repro.lp.backends import (
    LinprogBackend,
    LPSpec,
    PersistentHighsError,
    make_persistent_lp,
)
from repro.lp.solver import LPSolverError

#: Rates below this threshold are treated as zero.
RATE_TOL = 1e-9


@dataclass
class RateAllocation:
    """Result of one allocation round.

    Attributes
    ----------
    rates:
        Rate (demand units per unit time) assigned to each flow, indexed by
        global flow index.  Flows not in the active set get 0.
    edge_rates:
        Optional per-flow, per-edge rates for the free path model, shape
        ``(num_flows, num_edges)``; used to verify capacity feasibility.
    residual_capacity:
        Capacity left unused on every edge after the allocation.
    """

    rates: np.ndarray
    edge_rates: Optional[np.ndarray]
    residual_capacity: np.ndarray


@dataclass
class CoflowAllocation:
    """Compact allocation of one coflow (the incremental simulator's unit).

    Attributes
    ----------
    flow_idx:
        Global indices of the flows that received a rate.
    flow_rates:
        Their rates, parallel to *flow_idx*.
    usage:
        Per-edge capacity consumed by this coflow (length ``num_edges``).
    edge_rates:
        Per-flow per-edge rates, shape ``(len(flow_idx), num_edges)``, for
        the free path model; ``None`` for single path.
    """

    flow_idx: np.ndarray
    flow_rates: np.ndarray
    usage: np.ndarray
    edge_rates: Optional[np.ndarray] = None


class _FreePathTemplate:
    """Prebuilt max-concurrent-flow LP for one fixed set of active flows.

    The constraint structure (variable order, row order, sparsity pattern,
    bounds) matches the loop-built LP of :mod:`repro.sim.reference` exactly;
    only the ``-remaining`` coefficients in the source/sink rows and the
    residual right-hand sides vary between calls, and those are rewritten in
    place.
    """

    def __init__(self, graph: NetworkGraph, active_refs: Sequence[FlowRef]) -> None:
        num_edges = graph.num_edges
        k = len(active_refs)
        n = 1 + k * num_edges  # alpha plus y[a, e]

        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        markers: List[int] = []  # local flow index for -rem slots, else -1
        lower = np.zeros(n, dtype=float)
        upper = np.full(n, np.inf)
        row = 0

        def _emit(r: int, c: np.ndarray, v: float) -> None:
            rows.extend([r] * c.size)
            cols.extend(c.tolist())
            vals.extend([v] * c.size)
            markers.extend([-1] * c.size)

        for a, ref in enumerate(active_refs):
            src, dst = ref.flow.source, ref.flow.sink
            y0 = 1 + a * num_edges
            # No circulation through the endpoints (same convention as the
            # time-indexed LP builder).
            blocked = np.concatenate(
                [graph.in_edge_indices(src), graph.out_edge_indices(dst)]
            )
            if blocked.size:
                upper[y0 + blocked] = 0.0
            # sum_out(src) y = alpha * remaining.  The alpha coefficient is a
            # -1.0 placeholder: it must be nonzero so HiGHS keeps the entry,
            # and it is rewritten to -remaining before every solve.
            _emit(row, y0 + graph.out_edge_indices(src), 1.0)
            rows.append(row)
            cols.append(0)
            vals.append(-1.0)
            markers.append(a)
            row += 1
            # sum_in(dst) y = alpha * remaining
            _emit(row, y0 + graph.in_edge_indices(dst), 1.0)
            rows.append(row)
            cols.append(0)
            vals.append(-1.0)
            markers.append(a)
            row += 1
            # Conservation at every other (non-isolated) node.
            for node in graph.nodes:
                if node == src or node == dst:
                    continue
                node_in = graph.in_edge_indices(node)
                node_out = graph.out_edge_indices(node)
                if node_in.size == 0 and node_out.size == 0:
                    continue
                _emit(row, y0 + node_in, 1.0)
                _emit(row, y0 + node_out, -1.0)
                row += 1

        coo_rows = np.array(rows, dtype=np.int64)
        coo_cols = np.array(cols, dtype=np.int64)
        coo_vals = np.array(vals, dtype=float)
        marker_arr = np.array(markers, dtype=np.int64)
        # CSR conversion permutes the COO entries; recover the permutation by
        # round-tripping entry ids (there are no duplicate coordinates).
        ids = sparse.coo_matrix(
            (np.arange(1, coo_vals.size + 1, dtype=float), (coo_rows, coo_cols)),
            shape=(row, n),
        ).tocsr()
        perm = ids.data.astype(np.int64) - 1
        self.a_eq = sparse.csr_matrix(
            (coo_vals[perm], ids.indices, ids.indptr), shape=(row, n)
        )
        marker_perm = marker_arr[perm]
        self._rem_slots = np.nonzero(marker_perm >= 0)[0]
        self._rem_flow = marker_perm[self._rem_slots]
        self.b_eq = np.zeros(row)

        # Capacity rows: sum_a y[a, e] <= residual_e for every edge.
        cap_rows = np.tile(np.arange(num_edges, dtype=np.int64), k)
        cap_cols = (
            1
            + np.repeat(np.arange(k, dtype=np.int64), num_edges) * num_edges
            + cap_rows
        )
        self.a_ub = sparse.coo_matrix(
            (np.ones(cap_rows.size), (cap_rows, cap_cols)), shape=(num_edges, n)
        ).tocsr()

        self.c = np.zeros(n)
        self.c[0] = -1.0  # maximise alpha
        self.bounds = np.column_stack([lower, upper])
        self.num_edges = num_edges
        self.k = k
        self.num_eq_rows = row

        # Alpha-coefficient positions in raw COO order (for the persistent
        # HiGHS path, which addresses coefficients by (row, col)).
        alpha_entries = np.nonzero(marker_arr >= 0)[0]
        self._alpha_rows = coo_rows[alpha_entries]
        self._alpha_flows = marker_arr[alpha_entries]

        # Persistent warm-started HiGHS model: one combined matrix with
        # equality rows (bounds 0, 0) on top and capacity rows
        # (-inf, residual) below.  None when the in-process API is missing.
        self._persistent = make_persistent_lp(
            self.c,
            sparse.vstack([self.a_eq, self.a_ub]),
            np.concatenate([np.zeros(row), np.full(num_edges, -np.inf)]),
            np.concatenate([np.zeros(row), np.full(num_edges, np.inf)]),
            lower,
            upper,
        )
        self._memo: Dict[Tuple[bytes, bytes], Tuple[float, np.ndarray]] = {}

    #: Bound on the per-template input→solution memo (see :meth:`solve`).
    MEMO_MAX_ENTRIES = 4096

    def solve(self, rem_active: np.ndarray, residual: np.ndarray):
        """Solve for the given remaining demands / residual capacities.

        Returns ``(alpha, y)`` with ``y`` of shape ``(k, num_edges)``.

        Results are memoized on the exact inputs.  This is not (only) an
        optimization: a warm-started HiGHS re-solve may return *different*
        optimal vertices for the same degenerate LP depending on the basis
        left by earlier solves, and the simulator's incremental==full
        equivalence contract needs the allocation to be a deterministic
        function of ``(remaining, residual)``.  The memo pins the first
        vertex seen for each input, making every later request — from
        either simulation mode — reproduce it exactly.
        """
        key = (rem_active.tobytes(), np.maximum(residual, 0.0).tobytes())
        cached = self._memo.get(key)
        if cached is not None:
            alpha, y = cached
            return alpha, y.copy()
        if self._persistent is not None:
            lp = self._persistent
            for r, a in zip(self._alpha_rows, self._alpha_flows):
                lp.change_coeff(r, 0, -rem_active[a])
            base = self.num_eq_rows
            residual_clipped = np.maximum(residual, 0.0)
            for e in range(self.num_edges):
                lp.change_row_bounds(base + e, -np.inf, residual_clipped[e])
            try:
                x = lp.solve()
            except PersistentHighsError as exc:
                raise LPSolverError(
                    f"LP 'max-concurrent-flow' failed to solve: {exc}"
                ) from exc
        else:
            self.a_eq.data[self._rem_slots] = -rem_active[self._rem_flow]
            spec = LPSpec(
                c=self.c,
                a_ub=self.a_ub,
                b_ub=np.maximum(residual, 0.0),
                a_eq=self.a_eq,
                b_eq=self.b_eq,
                col_lower=self.bounds[:, 0],
                col_upper=self.bounds[:, 1],
                name="max-concurrent-flow",
            )
            solution = LinprogBackend().solve(spec)
            if not solution.is_optimal:
                raise LPSolverError(
                    f"LP 'max-concurrent-flow' failed to solve: "
                    f"{solution.status.value} ({solution.message})"
                )
            x = np.asarray(solution.x, dtype=float)
        alpha = float(max(x[0], 0.0))
        y = np.clip(x[1:].reshape(self.k, self.num_edges), 0.0, None)
        if len(self._memo) >= self.MEMO_MAX_ENTRIES:
            self._memo.clear()
        self._memo[key] = (alpha, y)
        return alpha, y.copy()


class RateAllocator:
    """Per-instance vectorized allocation engine (see module docstring)."""

    def __init__(self, instance: CoflowInstance) -> None:
        # Only what allocation reads is kept, never the instance itself: the
        # allocator is the value of a weak-keyed cache entry for *instance*,
        # and a strong reference back would keep every instance alive.
        self.graph = instance.graph
        self.demands = instance.demands()
        self.num_flows = instance.num_flows
        self.num_edges = instance.graph.num_edges
        self.free_path = instance.model is TransmissionModel.FREE_PATH
        coflow_of_flow = instance.coflow_of_flow()
        self._coflow_flow_idx: List[np.ndarray] = [
            np.nonzero(coflow_of_flow == j)[0]
            for j in range(instance.num_coflows)
        ]
        if self.free_path:
            self._coflow_refs: List[Tuple[FlowRef, ...]] = [
                instance.flows_of(j) for j in range(instance.num_coflows)
            ]
        else:
            inc_flows, inc_edges = instance.path_edge_incidence()
            self._inc_flows = inc_flows
            self._inc_edges = inc_edges
            self._coflow_inc_positions: List[np.ndarray] = [
                np.nonzero(np.isin(inc_flows, idx))[0]
                for idx in self._coflow_flow_idx
            ]
        self._templates: Dict[Tuple[int, ...], _FreePathTemplate] = {}
        self._standalone_cache: Dict[Tuple, float] = {}

    # ------------------------------------------------------------------ #
    # single path
    # ------------------------------------------------------------------ #
    def _single_path_core(
        self,
        cand_idx: np.ndarray,
        inc_positions: np.ndarray,
        remaining: np.ndarray,
        residual: np.ndarray,
    ) -> CoflowAllocation:
        ef = self._inc_flows[inc_positions]
        keep = remaining[ef] > RATE_TOL
        ef = ef[keep]
        ee = self._inc_edges[inc_positions][keep]
        empty = CoflowAllocation(
            flow_idx=np.empty(0, dtype=np.int64),
            flow_rates=np.empty(0, dtype=float),
            usage=np.zeros(self.num_edges, dtype=float),
        )
        if ef.size == 0:
            return empty
        usage_per_alpha = np.bincount(
            ee, weights=remaining[ef], minlength=self.num_edges
        )
        loaded = usage_per_alpha > RATE_TOL
        if not loaded.any():
            return empty
        with np.errstate(divide="ignore"):
            alpha = float(np.min(residual[loaded] / usage_per_alpha[loaded]))
        alpha = max(alpha, 0.0)
        if alpha <= RATE_TOL:
            return empty
        active = cand_idx[remaining[cand_idx] > RATE_TOL]
        return CoflowAllocation(
            flow_idx=active,
            flow_rates=alpha * remaining[active],
            usage=alpha * usage_per_alpha,
        )

    # ------------------------------------------------------------------ #
    # free path
    # ------------------------------------------------------------------ #
    def _free_path_core(
        self,
        cand_idx: np.ndarray,
        remaining: np.ndarray,
        residual: np.ndarray,
        refs_by_global: Dict[int, FlowRef],
    ) -> CoflowAllocation:
        active = cand_idx[remaining[cand_idx] > RATE_TOL]
        empty = CoflowAllocation(
            flow_idx=np.empty(0, dtype=np.int64),
            flow_rates=np.empty(0, dtype=float),
            usage=np.zeros(self.num_edges, dtype=float),
            edge_rates=np.empty((0, self.num_edges), dtype=float),
        )
        if active.size == 0:
            return empty
        key = tuple(int(f) for f in active)
        template = self._templates.get(key)
        if template is None:
            template = _FreePathTemplate(
                self.graph, [refs_by_global[f] for f in key]
            )
            self._templates[key] = template
        alpha, y = template.solve(remaining[active], residual)
        if alpha <= RATE_TOL:
            return empty
        return CoflowAllocation(
            flow_idx=active,
            flow_rates=alpha * remaining[active],
            usage=y.sum(axis=0),
            edge_rates=y,
        )

    # ------------------------------------------------------------------ #
    # per-coflow entry point
    # ------------------------------------------------------------------ #
    def coflow_allocation(
        self, coflow_index: int, remaining: np.ndarray, residual: np.ndarray
    ) -> CoflowAllocation:
        """Fastest-completion allocation of one coflow on *residual*."""
        cand = self._coflow_flow_idx[coflow_index]
        if self.free_path:
            refs = self._coflow_refs[coflow_index]
            return self._free_path_core(
                cand, remaining, residual, {r.global_index: r for r in refs}
            )
        return self._single_path_core(
            cand,
            self._coflow_inc_positions[coflow_index],
            remaining,
            residual,
        )

    # ------------------------------------------------------------------ #
    # standalone times (Terra's LP families), cached
    # ------------------------------------------------------------------ #
    def max_concurrent_rate(
        self, coflow_index: int, remaining: Optional[np.ndarray] = None
    ) -> float:
        if remaining is None:
            remaining = self.demands
        residual = self.graph.capacity_vector()
        cand = self._coflow_flow_idx[coflow_index]
        rem_slice = np.ascontiguousarray(remaining[cand])
        key = (coflow_index, residual.tobytes(), rem_slice.tobytes())
        cached = self._standalone_cache.get(key)
        if cached is not None:
            return cached
        alloc = self.coflow_allocation(coflow_index, remaining, residual)
        if alloc.flow_idx.size == 0:
            active_any = bool((rem_slice > RATE_TOL).any())
            alpha = 0.0 if active_any else float("inf")
        else:
            with np.errstate(divide="ignore"):
                alpha = float(
                    np.min(alloc.flow_rates / remaining[alloc.flow_idx])
                )
        self._standalone_cache[key] = alpha
        return alpha


#: One allocator per live instance; instances are assumed immutable once
#: scheduling starts, so the allocator (and its caches) never invalidates.
_ALLOCATORS: "weakref.WeakKeyDictionary[CoflowInstance, RateAllocator]" = (
    weakref.WeakKeyDictionary()
)


def get_rate_allocator(instance: CoflowInstance) -> RateAllocator:
    """The (cached) :class:`RateAllocator` for *instance*."""
    allocator = _ALLOCATORS.get(instance)
    if allocator is None:
        allocator = RateAllocator(instance)
        # Sanctioned kernel-purity waiver: a content-transparent memo —
        # the mapping is weak, keyed by instance identity, and the cached
        # allocator is a pure function of the (immutable) instance, so
        # results never depend on whether the entry was present.
        _ALLOCATORS[instance] = allocator  # repro-lint: allow[R301]
    return allocator


# --------------------------------------------------------------------------- #
# public primitives (same signatures as the original loop implementations)
# --------------------------------------------------------------------------- #
def single_path_coflow_rates(
    instance: CoflowInstance,
    flow_refs: Sequence[FlowRef],
    remaining: np.ndarray,
    residual: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fastest-completion rates for one coflow's flows along pinned paths.

    All flows of the coflow progress proportionally to their remaining
    demand: flow *f* gets rate ``alpha * remaining_f`` with the largest
    ``alpha`` such that no edge of the residual network is overloaded.

    Returns ``(rates_by_global_index, edge_usage)`` where ``edge_usage`` has
    one entry per edge.
    """
    allocator = get_rate_allocator(instance)
    cand = np.array([r.global_index for r in flow_refs], dtype=np.int64)
    if allocator.free_path:
        # A free-path instance whose flows happen to carry pinned paths may
        # still use the single-path primitive (legacy behaviour); build the
        # incidence locally from the given refs.
        edge_index = instance.graph.edge_index()
        ef_list: List[int] = []
        ee_list: List[int] = []
        for ref in flow_refs:
            for edge in ref.flow.path_edges():
                ef_list.append(ref.global_index)
                ee_list.append(edge_index[edge])
        ef_all = np.array(ef_list, dtype=np.int64)
        ee_all = np.array(ee_list, dtype=np.int64)
        keep = remaining[ef_all] > RATE_TOL if ef_all.size else np.zeros(0, bool)
        rates = np.zeros(instance.num_flows, dtype=float)
        usage = np.zeros(allocator.num_edges, dtype=float)
        if keep.any():
            usage_per_alpha = np.bincount(
                ee_all[keep],
                weights=remaining[ef_all[keep]],
                minlength=allocator.num_edges,
            )
            loaded = usage_per_alpha > RATE_TOL
            with np.errstate(divide="ignore"):
                alpha = max(
                    float(np.min(residual[loaded] / usage_per_alpha[loaded])), 0.0
                )
            if alpha > RATE_TOL:
                active = cand[remaining[cand] > RATE_TOL]
                rates[active] = alpha * remaining[active]
                usage = alpha * usage_per_alpha
        return rates, usage
    positions = np.nonzero(np.isin(allocator._inc_flows, cand))[0]
    alloc = allocator._single_path_core(cand, positions, remaining, residual)
    rates = np.zeros(instance.num_flows, dtype=float)
    rates[alloc.flow_idx] = alloc.flow_rates
    return rates, alloc.usage


def free_path_coflow_rates(
    instance: CoflowInstance,
    flow_refs: Sequence[FlowRef],
    remaining: np.ndarray,
    residual: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fastest-completion rates for one coflow in the free path model.

    Solves the max-concurrent-flow LP: maximise ``alpha`` such that routing
    ``alpha * remaining_f`` units per unit time for every unfinished flow *f*
    of the coflow is a feasible multicommodity flow within the residual
    capacities.

    Returns ``(rates, per_flow_edge_rates, edge_usage)``.
    """
    allocator = get_rate_allocator(instance)
    cand = np.array([r.global_index for r in flow_refs], dtype=np.int64)
    alloc = allocator._free_path_core(
        cand, remaining, residual, {r.global_index: r for r in flow_refs}
    )
    rates = np.zeros(instance.num_flows, dtype=float)
    flow_edge_rates = np.zeros((instance.num_flows, allocator.num_edges), dtype=float)
    rates[alloc.flow_idx] = alloc.flow_rates
    if alloc.edge_rates is not None and alloc.flow_idx.size:
        flow_edge_rates[alloc.flow_idx] = alloc.edge_rates
    usage = alloc.usage
    return rates, flow_edge_rates, usage


def allocate_rates(
    instance: CoflowInstance,
    remaining: np.ndarray,
    coflow_priority: Sequence[int],
    *,
    active_coflows: Optional[Sequence[int]] = None,
) -> RateAllocation:
    """Greedy, priority-ordered rate allocation (one simulator round).

    Parameters
    ----------
    instance:
        The scheduling instance (model decides the allocation primitive).
    remaining:
        Remaining demand of every flow (global flow index).
    coflow_priority:
        Coflow indices from highest to lowest priority.
    active_coflows:
        Coflows currently allowed to transmit (released and unfinished);
        defaults to every coflow in *coflow_priority*.
    """
    allocator = get_rate_allocator(instance)
    graph = instance.graph
    residual = graph.capacity_vector()
    rates = np.zeros(instance.num_flows, dtype=float)
    edge_rates = (
        np.zeros((instance.num_flows, graph.num_edges), dtype=float)
        if allocator.free_path
        else None
    )
    active_set = set(active_coflows if active_coflows is not None else coflow_priority)

    for j in coflow_priority:
        if j not in active_set:
            continue
        alloc = allocator.coflow_allocation(j, remaining, residual)
        if alloc.flow_idx.size:
            rates[alloc.flow_idx] = alloc.flow_rates
            if edge_rates is not None and alloc.edge_rates is not None:
                edge_rates[alloc.flow_idx] += alloc.edge_rates
        residual = np.clip(residual - alloc.usage, 0.0, None)
    return RateAllocation(rates=rates, edge_rates=edge_rates, residual_capacity=residual)


def max_concurrent_rate(
    instance: CoflowInstance, coflow_index: int, remaining: Optional[np.ndarray] = None
) -> float:
    """Largest ``alpha`` such that the coflow can ship ``alpha`` of its remaining
    demand per unit time when it has the whole network to itself."""
    return get_rate_allocator(instance).max_concurrent_rate(coflow_index, remaining)


def coflow_standalone_time(
    instance: CoflowInstance, coflow_index: int, remaining: Optional[np.ndarray] = None
) -> float:
    """Minimum time for the coflow to finish alone on the empty network.

    This is Terra's per-coflow completion-time estimate: the reciprocal of
    the maximum concurrent rate.  Returns 0 when the coflow has no remaining
    demand.  Results are memoized per (coflow, residual-capacity signature,
    remaining-demand signature) on the instance's allocator, so the repeated
    LP families of Terra and the greedy baselines are solved once.
    """
    alpha = max_concurrent_rate(instance, coflow_index, remaining)
    if np.isinf(alpha):
        return 0.0
    if alpha <= RATE_TOL:
        raise ValueError(
            f"coflow {coflow_index} cannot make progress on the network"
        )
    return 1.0 / alpha
