"""The ``repro bench`` performance harness.

Every scenario measures the *optimized* implementation against the
*pre-optimization reference* implementation preserved in
:mod:`repro.core.timeindexed_reference` and :mod:`repro.sim.reference`, in
the same process and on the same inputs — so each ``BENCH_<date>.json``
records a self-contained speedup trajectory rather than numbers measured on
different hardware at different times.

Scenarios
---------
``lp_build``
    Assembly time of the time-indexed LP (vectorized vs loop-based), plus
    LP rows / nonzeros and one HiGHS solve per case.
``simulator``
    Events/sec of the continuous-time simulator (incremental allocation +
    warm-started per-event LPs vs full per-event re-allocation) for the
    Terra (free path) and greedy (single path) scenarios, checking that both
    implementations produce the same completion times.
``lp_solve``
    The staged solve pipeline: ``strategy="direct"`` vs ``"refine"``
    (geometric stage + warm-started fine solve) on fine-uniform grids,
    tracking per-stage solve seconds and simplex iterations.
``shared_lp_batch``
    Wall time of the batch runner with shared-LP reuse and the solver
    warm-start cache.

Reports
-------
:func:`run_bench` returns a JSON-serializable report;
:func:`write_report` stores it as ``BENCH_<YYYYmmdd-HHMMSS>.json``;
:func:`compare_reports` diffs two reports case-by-case so the CLI can show
the run-over-run trajectory.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.timeindexed import build_time_indexed_lp, suggest_horizon
from repro.core.timeindexed_reference import build_time_indexed_lp_reference
from repro.lp.solver import solve_lp, solver_cache
from repro.network.topologies import swan_topology
from repro.schedule.timegrid import TimeGrid
from repro.sim.rate_allocation import coflow_standalone_time
from repro.sim.reference import (
    simulate_priority_schedule_reference,
    srtf_priority_reference,
    standalone_times_reference,
)
from repro.sim.simulator import simulate_priority_schedule
from repro.utils.io import atomic_write_json
from repro.utils.timing import file_stamp, report_stamp
from repro.workloads.generator import WorkloadSpec, generate_instance

SCHEMA_VERSION = 1

#: Acceptance thresholds this PR's trajectory is checked against (the CLI
#: reports them as PASS/FAIL but never fails the run — CI keeps the job
#: non-blocking for now).
LP_BUILD_TARGET_SPEEDUP = 3.0
SIMULATOR_TARGET_SPEEDUP = 2.0
LP_SOLVE_TARGET_SPEEDUP = 1.5

ALL_SCENARIOS = ("lp_build", "lp_solve", "simulator", "shared_lp_batch")


def _time_best(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Best-of-*repeats* wall time of ``fn()`` plus the last result."""
    best = float("inf")
    result: object = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _geomean(values: Sequence[float]) -> float:
    arr = np.asarray([v for v in values if v > 0], dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.exp(np.log(arr).mean()))


# --------------------------------------------------------------------------- #
# scenario: LP assembly
# --------------------------------------------------------------------------- #
def bench_lp_build(*, quick: bool = False, repeats: int = 3) -> Dict:
    """Vectorized vs loop-based LP assembly on SWAN workloads."""
    graph = swan_topology()
    if quick:
        case_specs = [
            ("single_path", 8, "uniform", 1.0),
            ("free_path", 6, "uniform", 1.0),
        ]
    else:
        case_specs = [
            ("single_path", 12, "uniform", 1.0),
            ("single_path", 12, "uniform", 0.5),
            ("single_path", 12, "geometric", 0.2),
            ("free_path", 8, "uniform", 1.0),
            ("free_path", 8, "geometric", 0.2),
        ]
    cases: List[Dict] = []
    for model, num_coflows, grid_kind, grid_param in case_specs:
        spec = WorkloadSpec(
            profile="TPC-DS", num_coflows=num_coflows, seed=42, demand_scale=1.5
        )
        instance = generate_instance(graph, spec, model=model, rng=42)
        base_slots = suggest_horizon(instance)
        if grid_kind == "uniform":
            grid = TimeGrid.uniform(
                int(np.ceil(base_slots / grid_param)), grid_param
            )
            grid_label = f"uniform(L={grid_param:g})"
        else:
            grid = TimeGrid.geometric(base_slots, grid_param)
            grid_label = f"geometric(eps={grid_param:g})"

        ref_seconds, _ = _time_best(
            lambda: build_time_indexed_lp_reference(instance, grid), repeats
        )
        vec_seconds, built = _time_best(
            lambda: build_time_indexed_lp(instance, grid), repeats
        )
        lp, _bundle = built
        sizes = lp.size_summary()
        result = solve_lp(lp, require_optimal=True)
        cases.append(
            {
                "case": f"{model}/{grid_label}",
                "model": model,
                "num_coflows": num_coflows,
                "grid": grid_label,
                "slots": grid.num_slots,
                "variables": sizes["variables"],
                "rows": sizes["inequality_constraints"]
                + sizes["equality_constraints"],
                "nnz": sizes["nonzeros"],
                "build_seconds_reference": ref_seconds,
                "build_seconds": vec_seconds,
                "build_speedup": ref_seconds / vec_seconds if vec_seconds > 0 else 0.0,
                "solve_seconds": result.solve_seconds,
                "objective": float(result.objective),
            }
        )
    speedups = [c["build_speedup"] for c in cases]
    return {
        "cases": cases,
        "summary": {
            "min_build_speedup": min(speedups),
            "geomean_build_speedup": _geomean(speedups),
            "target_speedup": LP_BUILD_TARGET_SPEEDUP,
            "meets_target": min(speedups) >= LP_BUILD_TARGET_SPEEDUP,
        },
    }


# --------------------------------------------------------------------------- #
# scenario: staged solve pipeline
# --------------------------------------------------------------------------- #
def _stage_totals(solution) -> Tuple[float, Optional[int], bool]:
    """(total solve seconds, total simplex iterations, any warm stage)."""
    stages = solution.metadata.get("solve_path", {}).get("stages", [])
    seconds = sum(float(s.get("solve_seconds", 0.0)) for s in stages)
    iterations = [s.get("simplex_iterations") for s in stages]
    total_iterations = (
        sum(int(i) for i in iterations)
        if iterations and all(i is not None for i in iterations)
        else None
    )
    warm = any(bool(s.get("warm_start")) for s in stages)
    return seconds, total_iterations, warm


def bench_lp_solve(*, quick: bool = False, repeats: int = 1) -> Dict:
    """Direct vs refine solves on fine-uniform grids.

    The refine speedup is measured on *solver* seconds (the summed
    per-stage ``solve_seconds``) — the quantity the staged pipeline
    attacks; assembly time is the ``lp_build`` scenario's concern.
    """
    from repro.core.timeindexed import solve_time_indexed_lp

    graph = swan_topology()
    if quick:
        case_specs = [("single_path", 8, 1.0), ("free_path", 6, 1.0)]
    else:
        case_specs = [
            ("single_path", 12, 1.0),
            ("single_path", 12, 0.5),
            ("free_path", 8, 1.0),
            ("free_path", 8, 0.5),
        ]
    cases: List[Dict] = []
    for model, num_coflows, slot_length in case_specs:
        spec = WorkloadSpec(
            profile="TPC-DS", num_coflows=num_coflows, seed=42, demand_scale=1.5
        )
        instance = generate_instance(graph, spec, model=model, rng=42)

        solutions: Dict[str, object] = {}
        totals: Dict[str, Tuple[float, Optional[int], bool]] = {}
        for strategy in ("direct", "refine"):
            best: Optional[Tuple[float, Optional[int], bool]] = None
            solution = None
            for _ in range(max(repeats, 1)):
                solution = solve_time_indexed_lp(
                    instance, slot_length=slot_length, strategy=strategy
                )
                measured = _stage_totals(solution)
                if best is None or measured[0] < best[0]:
                    best = measured
            solutions[strategy] = solution
            totals[strategy] = best

        direct, refine = solutions["direct"], solutions["refine"]
        direct_seconds, direct_iters, _ = totals["direct"]
        refine_seconds, refine_iters, refine_warm = totals["refine"]
        cases.append(
            {
                "case": f"{model}/uniform(L={slot_length:g})",
                "model": model,
                "num_coflows": num_coflows,
                "slots": direct.grid.num_slots,
                "solve_seconds_direct": direct_seconds,
                "solve_seconds_refine": refine_seconds,
                "simplex_iterations_direct": direct_iters,
                "simplex_iterations_refine": refine_iters,
                "refine_warm_start": refine_warm,
                "solve_speedup_refine": (
                    direct_seconds / refine_seconds if refine_seconds > 0 else 0.0
                ),
                "objective_direct": float(direct.objective),
                "objective_refine": float(refine.objective),
                "refine_objective_matches": bool(
                    abs(refine.objective - direct.objective)
                    <= 1e-6 * max(abs(direct.objective), 1.0)
                ),
            }
        )
    speedups = [c["solve_speedup_refine"] for c in cases]
    return {
        "cases": cases,
        "summary": {
            "min_solve_speedup": min(speedups),
            "geomean_solve_speedup": _geomean(speedups),
            "target_speedup": LP_SOLVE_TARGET_SPEEDUP,
            "meets_target": _geomean(speedups) >= LP_SOLVE_TARGET_SPEEDUP,
            "all_refine_match": all(c["refine_objective_matches"] for c in cases),
        },
    }


# --------------------------------------------------------------------------- #
# scenario: simulator
# --------------------------------------------------------------------------- #
def bench_simulator(*, quick: bool = False, repeats: int = 1) -> Dict:
    """Incremental simulator vs full re-allocation (Terra / greedy scenarios)."""
    graph = swan_topology()
    case_specs = [
        ("terra/free-path", "free_path", 20 if quick else 28),
        ("sebf/single-path", "single_path", 120 if quick else 150),
    ]
    cases: List[Dict] = []
    for name, model, num_coflows in case_specs:
        spec = WorkloadSpec(
            profile="FB", num_coflows=num_coflows, seed=7, demand_scale=1.5
        )
        instance = generate_instance(graph, spec, model=model, rng=7)

        # Reference: loop-based standalone LPs, loop-based priority, full
        # re-allocation at every event.
        standalone_ref_seconds, standalone_ref = _time_best(
            lambda: standalone_times_reference(instance), 1
        )
        legacy_priority = srtf_priority_reference(instance, standalone_ref)
        ref_seconds, ref_sim = _time_best(
            lambda: simulate_priority_schedule_reference(instance, legacy_priority),
            repeats,
        )
        events = int(ref_sim.metadata["events"])

        # Optimized: cached standalone LPs, array-based priority,
        # incremental allocation with warm-started per-event LPs.
        standalone_seconds, standalone = _time_best(
            lambda: np.array(
                [
                    coflow_standalone_time(instance, j)
                    for j in range(instance.num_coflows)
                ]
            ),
            1,
        )
        if model == "free_path":
            from repro.baselines.terra import srtf_priority_fn

            priority = srtf_priority_fn(instance, standalone)
        else:
            from repro.baselines.greedy import sebf_priority_fn

            priority = sebf_priority_fn(instance, standalone)
        # First optimized run is cold (templates, memo and standalone caches
        # empty) — that conservative number is the headline and the one the
        # speedup target is checked against.  Additional repeats measure the
        # warm steady state, where the allocation memo absorbs most solves.
        opt_seconds, opt_sim = _time_best(
            lambda: simulate_priority_schedule(instance, priority, incremental=True),
            1,
        )
        warm_seconds = opt_seconds
        if repeats > 1:
            warm_seconds, _ = _time_best(
                lambda: simulate_priority_schedule(
                    instance, priority, incremental=True
                ),
                repeats - 1,
            )
        full_sim = simulate_priority_schedule(instance, priority, incremental=False)

        # The correctness contract: incremental allocation reproduces full
        # per-event re-allocation exactly.  The loop-based reference may
        # legitimately settle on a different (equally optimal) routing for a
        # degenerate free-path LP, which shifts later completion times
        # slightly, so it is compared at the objective level only.
        match = bool(
            np.allclose(
                opt_sim.coflow_completion_times,
                full_sim.coflow_completion_times,
                rtol=1e-9,
                atol=1e-9,
            )
        )
        weights = instance.weights
        ref_objective = float(np.dot(weights, ref_sim.coflow_completion_times))
        opt_objective = float(np.dot(weights, opt_sim.coflow_completion_times))
        reference_rel_diff = abs(opt_objective - ref_objective) / max(
            abs(ref_objective), 1e-12
        )
        opt_events = int(opt_sim.metadata["events"])
        ref_eps = events / ref_seconds if ref_seconds > 0 else float("inf")
        opt_eps = opt_events / opt_seconds if opt_seconds > 0 else float("inf")
        cases.append(
            {
                "case": name,
                "model": model,
                "num_coflows": num_coflows,
                "num_flows": instance.num_flows,
                "events": events,
                "events_optimized": opt_events,
                "seconds_reference": ref_seconds,
                "seconds": opt_seconds,
                "events_per_sec_reference": ref_eps,
                "events_per_sec": opt_eps,
                "events_per_sec_warm": (
                    opt_events / warm_seconds if warm_seconds > 0 else float("inf")
                ),
                "events_per_sec_speedup": opt_eps / ref_eps if ref_eps > 0 else 0.0,
                "standalone_seconds_reference": standalone_ref_seconds,
                "standalone_seconds": standalone_seconds,
                "allocations_computed": opt_sim.metadata["allocations_computed"],
                "allocations_reused": opt_sim.metadata["allocations_reused"],
                "incremental_matches_full": match,
                "reference_objective_rel_diff": reference_rel_diff,
            }
        )
    speedups = [c["events_per_sec_speedup"] for c in cases]
    return {
        "cases": cases,
        "summary": {
            "min_events_per_sec_speedup": min(speedups),
            "geomean_events_per_sec_speedup": _geomean(speedups),
            "target_speedup": SIMULATOR_TARGET_SPEEDUP,
            "meets_target": min(speedups) >= SIMULATOR_TARGET_SPEEDUP,
            "all_match": all(c["incremental_matches_full"] for c in cases)
            and all(c["reference_objective_rel_diff"] < 1e-2 for c in cases),
        },
    }


# --------------------------------------------------------------------------- #
# scenario: batch runner with shared LP + warm-start cache
# --------------------------------------------------------------------------- #
def bench_shared_lp_batch(*, quick: bool = False, repeats: int = 1) -> Dict:
    """solve_many with shared-LP reuse and the solver warm-start cache."""
    from repro.api import SolverConfig, solve_many

    graph = swan_topology()
    num_instances = 2
    num_coflows = 3 if quick else 4
    instances = [
        generate_instance(
            graph,
            WorkloadSpec(
                profile="FB", num_coflows=num_coflows, seed=100 + i, demand_scale=1.2
            ),
            model="free_path",
            rng=100 + i,
        )
        for i in range(num_instances)
    ]
    algorithms = ["lp-heuristic", "stretch-best"]
    config = SolverConfig(rng=0, num_samples=3)

    seconds, reports = _time_best(
        lambda: solve_many(instances, algorithms, config=config), repeats
    )

    # Warm-start demonstration: an identical program solved twice under one
    # cache is a hit the second time (exact solution reuse, no HiGHS run).
    from repro.core.timeindexed import solve_time_indexed_lp

    with solver_cache() as cache:
        cold_seconds, _cold = _time_best(
            lambda: solve_time_indexed_lp(instances[0]), 1
        )
        warm_seconds, warm = _time_best(
            lambda: solve_time_indexed_lp(instances[0]), 1
        )
    warm_speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")

    return {
        "cases": [
            {
                "case": "solve_many/shared-lp",
                "instances": num_instances,
                "algorithms": algorithms,
                "reports": len(reports),
                "seconds": seconds,
                "warm_start_cache": cache.stats(),
                "warm_start_hit": bool(
                    warm.lp_result.metadata.get("warm_start") == "reused"
                ),
            }
        ],
        "summary": {
            "seconds": seconds,
            "warm_start_speedup": warm_speedup,
        },
    }


# --------------------------------------------------------------------------- #
# report plumbing
# --------------------------------------------------------------------------- #
def run_bench(
    *,
    quick: bool = False,
    repeats: Optional[int] = None,
    scenarios: Optional[Sequence[str]] = None,
) -> Dict:
    """Run the requested scenarios and return the report dict."""
    chosen = tuple(scenarios) if scenarios else ALL_SCENARIOS
    unknown = [s for s in chosen if s not in ALL_SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown bench scenarios {unknown}; expected a subset of {ALL_SCENARIOS}"
        )
    build_repeats = repeats if repeats is not None else (3 if quick else 5)
    sim_repeats = repeats if repeats is not None else (1 if quick else 2)
    solve_repeats = repeats if repeats is not None else (1 if quick else 2)
    report: Dict = {
        "schema": SCHEMA_VERSION,
        "created": report_stamp(),
        "quick": quick,
        "repeats": {
            "lp_build": build_repeats,
            "lp_solve": solve_repeats,
            "simulator": sim_repeats,
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "scenarios": {},
    }
    if "lp_build" in chosen:
        report["scenarios"]["lp_build"] = bench_lp_build(
            quick=quick, repeats=build_repeats
        )
    if "lp_solve" in chosen:
        report["scenarios"]["lp_solve"] = bench_lp_solve(
            quick=quick, repeats=solve_repeats
        )
    if "simulator" in chosen:
        report["scenarios"]["simulator"] = bench_simulator(
            quick=quick, repeats=sim_repeats
        )
    if "shared_lp_batch" in chosen:
        report["scenarios"]["shared_lp_batch"] = bench_shared_lp_batch(
            quick=quick, repeats=sim_repeats
        )
    return report


def write_report(
    report: Dict, output_dir: str | Path = ".", *, store=None
) -> Path:
    """Write *report* as ``BENCH_<YYYYmmdd-HHMMSS>.json`` in *output_dir*.

    With a :class:`~repro.store.ResultStore`, the report is additionally
    archived under the store's ``runs/bench/`` sequence — the durable
    trajectory that survives fresh checkouts and scratch output
    directories (see :func:`compare_with_previous`).
    """
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{file_stamp()}.json"
    atomic_write_json(path, report)
    if store is not None:
        store.put_run("bench", report)
    return path


def find_previous_report(output_dir: str | Path = ".") -> Optional[Path]:
    """The most recent ``BENCH_*.json`` in *output_dir*, if any.

    An output directory that does not exist yet (a fresh checkout's first
    bench run) simply has no trajectory: the result is ``None``, not an
    error.
    """
    directory = Path(output_dir)
    if not directory.is_dir():
        return None
    candidates = sorted(directory.glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


def compare_with_previous(
    report: Dict, output_dir: str | Path = ".", *, store=None
) -> Dict:
    """The full comparison path: find, load and diff the previous report.

    This is the single entry point the CLI (and ``benchmarks/harness.py``)
    use, and it never assumes a previous report exists or parses: an empty
    trajectory (no prior ``BENCH_*.json``, e.g. the first run in a fresh
    checkout or CI workspace) yields ``{"previous": None, "skipped": ...}``
    marking this run as the trajectory's first point, and an unreadable or
    structurally foreign previous file is reported the same way instead of
    raising.

    With a :class:`~repro.store.ResultStore`, an output directory without
    any ``BENCH_*.json`` falls back to the store's archived ``runs/bench``
    trajectory, so run-over-run comparison keeps working across fresh
    checkouts and scratch CI workspaces.
    """
    previous_path = find_previous_report(output_dir)
    if previous_path is None and store is not None:
        archived = store.latest_run("bench")
        if archived is not None:
            comparison = compare_reports(archived, report)
            comparison["previous"] = "store:runs/bench"
            return comparison
    if previous_path is None:
        return {
            "previous": None,
            "scenarios": {},
            "skipped": "no previous BENCH_*.json found; this report is the "
            "first point of the trajectory",
        }
    try:
        previous = json.loads(previous_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return {
            "previous": previous_path.name,
            "scenarios": {},
            "skipped": f"could not read previous report: {exc}",
        }
    comparison = compare_reports(previous, report)
    comparison["previous"] = previous_path.name
    return comparison


def compare_reports(previous: Dict, current: Dict) -> Dict:
    """Case-by-case trajectory: current vs previous optimized numbers.

    Ratios are oriented so that values > 1 mean *current is faster*.
    Reports produced at different scales (``--quick`` vs full) are not
    comparable — the same case name covers different workload sizes — so
    the comparison is refused with an explanatory note, and individual
    cases are only paired when their workload-size fields agree.  A
    *previous* payload that is not a bench report at all (wrong JSON shape)
    is refused the same way rather than raising.
    """
    comparison: Dict = {"scenarios": {}}
    if not isinstance(previous, dict) or not isinstance(
        previous.get("scenarios", {}), dict
    ):
        comparison["skipped"] = (
            "previous report is not a bench report (unexpected JSON shape)"
        )
        return comparison
    if bool(previous.get("quick")) != bool(current.get("quick")):
        comparison["skipped"] = (
            "previous report was produced at a different scale "
            f"(quick={previous.get('quick')}) than this run "
            f"(quick={current.get('quick')}); ratios would compare different "
            "workload sizes"
        )
        return comparison
    size_fields = ("num_coflows", "slots", "events", "instances")
    for scenario, cur_data in current.get("scenarios", {}).items():
        prev_data = previous.get("scenarios", {}).get(scenario)
        if not prev_data:
            continue
        if not isinstance(prev_data, dict):
            continue
        prev_cases = {
            c["case"]: c
            for c in prev_data.get("cases", [])
            if isinstance(c, dict) and "case" in c
        }
        rows = []
        for cur_case in cur_data.get("cases", []):
            prev_case = prev_cases.get(cur_case["case"])
            if prev_case is None:
                continue
            if any(
                field in cur_case
                and field in prev_case
                and cur_case[field] != prev_case[field]
                for field in size_fields
            ):
                continue
            row: Dict = {"case": cur_case["case"]}
            for seconds_key in (
                "build_seconds",
                "seconds",
                "solve_seconds",
                "solve_seconds_direct",
                "solve_seconds_refine",
            ):
                if seconds_key in cur_case and prev_case.get(seconds_key):
                    row[f"{seconds_key}_ratio"] = (
                        prev_case[seconds_key] / cur_case[seconds_key]
                        if cur_case[seconds_key] > 0
                        else float("inf")
                    )
            if "events_per_sec" in cur_case and prev_case.get("events_per_sec"):
                row["events_per_sec_ratio"] = (
                    cur_case["events_per_sec"] / prev_case["events_per_sec"]
                )
            rows.append(row)
        comparison["scenarios"][scenario] = rows
    return comparison


def format_report(report: Dict) -> str:
    """Human-readable summary of a bench report (CLI output)."""
    lines: List[str] = []
    scenarios = report.get("scenarios", {})

    lp = scenarios.get("lp_build")
    if lp:
        lines.append("LP assembly (vectorized vs loop reference)")
        lines.append(
            f"{'case':<32s} {'slots':>5s} {'rows':>8s} {'nnz':>9s} "
            f"{'loop(ms)':>9s} {'vec(ms)':>8s} {'speedup':>8s} {'solve(s)':>9s}"
        )
        for c in lp["cases"]:
            lines.append(
                f"{c['case']:<32s} {c['slots']:>5d} {c['rows']:>8d} {c['nnz']:>9d} "
                f"{c['build_seconds_reference'] * 1e3:>9.2f} "
                f"{c['build_seconds'] * 1e3:>8.2f} "
                f"{c['build_speedup']:>7.1f}x {c['solve_seconds']:>9.3f}"
            )
        s = lp["summary"]
        verdict = "PASS" if s["meets_target"] else "FAIL"
        lines.append(
            f"  -> min speedup {s['min_build_speedup']:.1f}x "
            f"(target {s['target_speedup']:.1f}x): {verdict}"
        )
        lines.append("")

    solve = scenarios.get("lp_solve")
    if solve:
        lines.append("Staged solve pipeline (direct vs refine)")
        lines.append(
            f"{'case':<32s} {'slots':>5s} {'direct(s)':>9s} {'refine(s)':>9s} "
            f"{'speedup':>8s} {'match':>5s}"
        )
        for c in solve["cases"]:
            lines.append(
                f"{c['case']:<32s} {c['slots']:>5d} "
                f"{c['solve_seconds_direct']:>9.3f} "
                f"{c['solve_seconds_refine']:>9.3f} "
                f"{c['solve_speedup_refine']:>7.2f}x "
                f"{'yes' if c['refine_objective_matches'] else 'NO':>5s}"
            )
        s = solve["summary"]
        verdict = "PASS" if s["meets_target"] else "FAIL"
        lines.append(
            f"  -> geomean refine speedup {s['geomean_solve_speedup']:.2f}x "
            f"(target {s['target_speedup']:.1f}x): {verdict}; "
            f"refine objectives match: "
            f"{'yes' if s['all_refine_match'] else 'NO'}"
        )
        lines.append("")

    sim = scenarios.get("simulator")
    if sim:
        lines.append("Simulator (incremental vs full re-allocation)")
        lines.append(
            f"{'case':<24s} {'events':>6s} {'ref ev/s':>9s} {'opt ev/s':>9s} "
            f"{'speedup':>8s} {'reused':>6s} {'match':>5s}"
        )
        for c in sim["cases"]:
            lines.append(
                f"{c['case']:<24s} {c['events']:>6d} "
                f"{c['events_per_sec_reference']:>9.0f} "
                f"{c['events_per_sec']:>9.0f} "
                f"{c['events_per_sec_speedup']:>7.1f}x "
                f"{c['allocations_reused']:>6d} "
                f"{'yes' if c['incremental_matches_full'] else 'NO':>5s}"
            )
        s = sim["summary"]
        verdict = "PASS" if s["meets_target"] else "FAIL"
        lines.append(
            f"  -> min events/sec speedup {s['min_events_per_sec_speedup']:.1f}x "
            f"(target {s['target_speedup']:.1f}x): {verdict}"
        )
        lines.append("")

    batch = scenarios.get("shared_lp_batch")
    if batch:
        c = batch["cases"][0]
        s = batch["summary"]
        lines.append(
            f"Batch runner: {c['reports']} reports over {c['instances']} instances "
            f"in {c['seconds']:.2f}s; warm-start cache "
            f"{c['warm_start_cache']}, identical re-solve "
            f"x{s['warm_start_speedup']:.0f} faster"
        )
        lines.append("")

    comparison = report.get("comparison")
    if comparison:
        if comparison.get("previous") is None:
            lines.append(
                "Trajectory: "
                + comparison.get(
                    "skipped", "no previous report; first trajectory point"
                )
            )
            lines.append("")
            return "\n".join(lines)
        lines.append(
            f"Trajectory vs previous report ({comparison['previous']}):"
        )
        if comparison.get("skipped"):
            lines.append(f"  comparison skipped: {comparison['skipped']}")
            lines.append("")
        for scenario, rows in comparison.get("scenarios", {}).items():
            for row in rows:
                deltas = ", ".join(
                    f"{k.removesuffix('_ratio')} x{v:.2f}"
                    for k, v in row.items()
                    if k != "case"
                )
                lines.append(f"  {scenario}/{row['case']}: {deltas}")
        lines.append("")
    return "\n".join(lines)
