"""Span recorder for the traced run, and the per-layer metrics derived from it.

:func:`patched` swaps each layer's entry point for a wrapper *where its
caller binds the name* (a module global or a class attribute) and restores
the originals on exit.  A wrapper passes arguments and results through
untouched; it only records a span — name, start, end, parent, request id —
plus a few counters read from the arguments or the result after the span
has closed.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Tracer:
    """Spans of one process, stored column-wise (cheap to append)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.counters: Dict[int, dict] = {}
        self.request = -1
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, count=None):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            self.counters[index] = count(args, kwargs, result)
        return result

    def __len__(self) -> int:
        return len(self.names)

    def write(self, path, origin: float) -> None:
        """All spans as JSON lines, times relative to *origin*."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                record = {
                    "name": name,
                    "start": self.starts[i] - origin,
                    "end": self.ends[i] - origin,
                    "parent": self.parents[i],
                    "request": self.requests[i],
                }
                if i in self.counters:
                    record["counters"] = self.counters[i]
                handle.write(json.dumps(record) + "\n")


# --------------------------------------------------------------------------- #
# counters read after a span closes
# --------------------------------------------------------------------------- #
def _build_counts(args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    lp, _bundle = result
    return {"nnz": lp.size_summary()["nonzeros"], "slots": grid.num_slots}


def _spec_nnz(spec) -> int:
    return sum(m.nnz for m in (spec.a_ub, spec.a_eq) if m is not None)


def _backend_counts(args, kwargs, result):
    warm = kwargs.get("warm_primal") is not None
    return {
        "nnz": _spec_nnz(args[1]),
        # A seeded persistent solve always runs with presolve off.
        "presolve": bool(kwargs.get("presolve", True)) and not warm,
        "warm": warm,
        "iters": result.simplex_iterations or 0,
    }


def _warm_counts(args, kwargs, result):
    return {"iters": args[0].simplex_iterations}


def _sim_counts(args, kwargs, result):
    meta = result.metadata
    return {
        "n": args[0].num_coflows,
        "events": int(meta.get("events", 0)),
        "computed": int(meta.get("allocations_computed", 0)),
        "reused": int(meta.get("allocations_reused", 0)),
    }


def _online_counts(args, kwargs, result):
    return {"batches": result.num_batches}


#: (module, attribute path, span name, counter) for every traced entry
#: point.  Functions are patched in each module that imports them;
#: methods on their class.
PATCHES: Sequence[Tuple[str, str, str, Optional[Callable]]] = (
    ("repro.online.engine", "solve", "api.solve", None),
    ("repro.core.timeindexed", "build_time_indexed_lp", "core.timeindexed.build", _build_counts),
    ("repro.core.scheduler", "solve_time_indexed_lp", "core.timeindexed.solve", None),
    ("repro.api.algorithms", "solve_time_indexed_lp", "core.timeindexed.solve", None),
    ("repro.baselines.jahanjou", "solve_time_indexed_lp", "core.timeindexed.solve", None),
    ("repro.lp.backends.linprog", "LinprogBackend.solve", "lp.solve", _backend_counts),
    ("repro.lp.backends.highs", "PersistentHighsBackend.solve", "lp.solve", _backend_counts),
    ("repro.lp.backends.highs", "PersistentHighsLP.solve", "lp.warm", _warm_counts),
    ("repro.core.scheduler", "lp_heuristic_schedule", "core.rounding", None),
    ("repro.core.scheduler", "run_stretch", "core.rounding", None),
    ("repro.core.stretch", "run_stretch", "core.rounding", None),
    ("repro.core.heuristic", "compact_schedule", "schedule.compaction", None),
    ("repro.core.stretch", "compact_schedule", "schedule.compaction", None),
    ("repro.core.scheduler", "check_feasibility", "schedule.feasibility", None),
    ("repro.api.algorithms", "check_feasibility", "schedule.feasibility", None),
    ("repro.baselines.greedy", "simulate_priority_schedule", "sim.simulator", _sim_counts),
    ("repro.baselines.sincronia", "simulate_priority_schedule", "sim.simulator", _sim_counts),
    ("repro.baselines.terra", "simulate_priority_schedule", "sim.simulator", _sim_counts),
    ("repro.online.batch", "simulate_priority_schedule", "sim.simulator", _sim_counts),
    ("repro.online.engine", "simulate_priority_schedule", "sim.simulator", _sim_counts),
    ("repro.sim.rate_allocation", "RateAllocator.coflow_allocation", "sim.rate_allocation", None),
    ("repro.api.algorithms", "fifo_schedule", "baselines.fifo", None),
    ("repro.api.algorithms", "sebf_schedule", "baselines.sebf", None),
    ("repro.api.algorithms", "weighted_sjf_schedule", "baselines.weighted_sjf", None),
    ("repro.api.algorithms", "sincronia_schedule", "baselines.sincronia", None),
    ("repro.api.algorithms", "terra_offline_schedule", "baselines.terra", None),
    ("repro.api.algorithms", "jahanjou_schedule", "baselines.jahanjou", None),
    ("repro.online.engine", "OnlineEngine.run", "online.engine", _online_counts),
)


def _wrap(tracer: Tracer, name: str, fn: Callable, count) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Route every entry point in :data:`PATCHES` through *tracer*."""
    undo = []
    try:
        for module_name, path, name, count in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tracer, name, original, count))
            undo.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #
def layer_of(name: str) -> str:
    """The layer a span belongs to (``baselines.fifo`` -> ``baselines``)."""
    if name.startswith(("baselines.", "online.")):
        return name.split(".", 1)[0]
    return name


def loglog_slope(groups: Dict[object, List[Tuple[float, float]]]) -> float:
    """Slope of log y against log x, with one intercept per group.

    Each group's points are centred on the group's own means before the
    pooled least-squares fit, so groups that differ only by a constant
    factor (another algorithm, another topology) do not bend the slope.
    Groups with a single distinct x carry no information and are skipped;
    with none left the slope is 0.
    """
    sxy = sxx = 0.0
    for points in groups.values():
        logs = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
        if len({lx for lx, _ in logs}) < 2:
            continue
        mx = sum(lx for lx, _ in logs) / len(logs)
        my = sum(ly for _, ly in logs) / len(logs)
        sxy += sum((lx - mx) * (ly - my) for lx, ly in logs)
        sxx += sum((lx - mx) ** 2 for lx, _ in logs)
    return sxy / sxx if sxx > 0 else 0.0


def _outermost(tracer: Tracer, layers: frozenset) -> List[int]:
    """Spans in *layers* with no ancestor in *layers* (no double counting)."""
    picked = []
    for i, name in enumerate(tracer.names):
        if layer_of(name) not in layers:
            continue
        parent = tracer.parents[i]
        while parent >= 0 and layer_of(tracer.names[parent]) not in layers:
            parent = tracer.parents[parent]
        if parent < 0:
            picked.append(i)
    return picked


#: Layer groups whose share of request time the traced run reports.
SHARES = {
    "share.timeindexed_lp": frozenset({"core.timeindexed.build", "lp.solve"}),
    "share.sim": frozenset({"sim.simulator", "sim.rate_allocation"}),
    "share.rounding_schedule": frozenset(
        {"core.rounding", "schedule.compaction", "schedule.feasibility"}
    ),
}


def layer_metrics(tracer: Tracer, request_cells: Dict[int, tuple]) -> Dict[str, float]:
    """Every per-layer metric of the traced run.

    *request_cells* maps a request id to its (algorithm, model, topology)
    cell, which keys the per-cell intercepts of the scaling fits.
    """
    duration = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child_time = [0.0] * len(tracer)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child_time[parent] += duration[i]

    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        layer = layer_of(name)
        calls[layer] = calls.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + duration[i] - child_time[i]

    def busy(*layers: str) -> float:
        return sum(duration[i] for i in _outermost(tracer, frozenset(layers)))

    def total(layer: str, key: str) -> float:
        return sum(
            counts.get(key, 0)
            for i, counts in tracer.counters.items()
            if tracer.names[i] == layer
        )

    roots = [i for i, parent in enumerate(tracer.parents) if parent < 0]
    request_time = sum(duration[i] for i in roots)

    lp_points: Dict[object, list] = {}
    sim_points: Dict[object, list] = {}
    iters = {True: 0, False: 0}
    warm_started = 0
    for i, counts in tracer.counters.items():
        cell = request_cells.get(tracer.requests[i])
        if tracer.names[i] == "lp.solve":
            lp_points.setdefault(cell, []).append((counts["nnz"], duration[i]))
            iters[counts["presolve"]] += counts["iters"]
            warm_started += counts["warm"]
        elif tracer.names[i] == "sim.simulator":
            sim_points.setdefault(cell, []).append((counts["n"], duration[i]))

    allocations = total("sim.simulator", "computed") + total("sim.simulator", "reused")
    metrics = {
        "trace.requests": len(roots),
        "core.timeindexed.build.calls": calls.get("core.timeindexed.build", 0),
        "core.timeindexed.build.busy_s": busy("core.timeindexed.build"),
        "core.timeindexed.build.nnz": total("core.timeindexed.build", "nnz"),
        "core.timeindexed.grid.slots": total("core.timeindexed.build", "slots"),
        "core.timeindexed.solve.self_s": self_s.get("core.timeindexed.solve", 0.0),
        "lp.solve.calls": calls.get("lp.solve", 0),
        "lp.solve.busy_s": busy("lp.solve"),
        "lp.solve.warm_started_calls": warm_started,
        "lp.solve.iters_presolve": iters[True],
        "lp.solve.iters_no_presolve": iters[False],
        "lp.solve.scaling_exponent": loglog_slope(lp_points),
        "lp.warm.calls": calls.get("lp.warm", 0),
        "lp.warm.busy_s": busy("lp.warm"),
        "lp.warm.iters": total("lp.warm", "iters"),
        "core.rounding.calls": calls.get("core.rounding", 0),
        "core.rounding.busy_s": busy("core.rounding"),
        "schedule.compaction.calls": calls.get("schedule.compaction", 0),
        "schedule.compaction.busy_s": busy("schedule.compaction"),
        "schedule.feasibility.calls": calls.get("schedule.feasibility", 0),
        "schedule.feasibility.busy_s": busy("schedule.feasibility"),
        "sim.simulator.calls": calls.get("sim.simulator", 0),
        "sim.simulator.busy_s": busy("sim.simulator"),
        "sim.simulator.self_s": self_s.get("sim.simulator", 0.0),
        "sim.simulator.events": total("sim.simulator", "events"),
        "sim.simulator.alloc_reuse_ratio": (
            total("sim.simulator", "reused") / allocations if allocations else 0.0
        ),
        "sim.simulator.scaling_exponent": loglog_slope(sim_points),
        "sim.rate_allocation.calls": calls.get("sim.rate_allocation", 0),
        "sim.rate_allocation.busy_s": busy("sim.rate_allocation"),
        "baselines.self_s": self_s.get("baselines", 0.0),
        "online.self_s": self_s.get("online", 0.0),
        "online.batches": total("online.engine", "batches"),
        "api.self_s": self_s.get("api.solve", 0.0),
    }
    for name, layers in SHARES.items():
        metrics[name] = busy(*layers) / request_time if request_time > 0 else 0.0
    return metrics
