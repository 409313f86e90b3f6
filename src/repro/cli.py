"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Twelve commands cover the common workflows without writing any Python:

``topologies``
    List the built-in WAN topologies with their sizes.
``algorithms``
    List every algorithm registered in :mod:`repro.api` with its
    capability flags.
``generate``
    Generate a synthetic benchmark workload and write it to a JSON trace.
``solve``
    Load an instance (JSON trace produced by ``generate`` or
    ``CoflowInstance.save_json``) and schedule it with any registered
    algorithm.
``batch``
    Solve several traces with several algorithms at once, optionally across
    worker processes (the :func:`repro.api.solve_many` runner).
``experiment``
    Run one of the paper-figure experiments and print its table (optionally
    exporting CSV/JSON).
``bench``
    Run the performance harness (:mod:`repro.perf.harness`): vectorized LP
    assembly and the incremental simulator against their preserved
    pre-optimization references, written to ``BENCH_<date>.json`` and
    compared against the previous report.
``verify``
    Run the differential-verification harness (:mod:`repro.scenarios`):
    sample scenarios across every registered family, run every registered
    algorithm on each, and cross-check the invariant suite against the
    library's oracles.  Writes a machine-readable ``VERIFY_<date>.json``.
``sweep``
    Run (or resume) a sharded parameter sweep described by a JSON spec
    file through the persistent result store
    (:mod:`repro.experiments.sweep` / :mod:`repro.store`): completed units
    are checkpointed per chunk, interrupted sweeps resume exactly, and a
    completed sweep re-runs with zero new LP solves.
``online``
    Run an online scheduling policy (:mod:`repro.online`) over a trace or
    a scenario address, event by event, and compare it against the
    clairvoyant offline schedule.
``scenarios``
    The corpus tooling (:mod:`repro.scenarios`): run a declarative
    pipeline spec (generate → solve → verify → report, resumable through
    the result store), list the registered families, amplify a trace to
    N× coflows, or convert a public Facebook-format coflow trace.
``lint``
    Run the AST-based determinism & discipline analyzer (:mod:`repro.lint`)
    over the library source: raw entropy, wall-clock reads, float ``==``,
    non-atomic writes, numpy-at-the-JSON-boundary, registry completeness,
    silent broad excepts and deprecated shims are all mechanical findings.
    Writes a machine-readable ``LINT_<date>.json`` with ``--output``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.api import (
    SolverConfig,
    algorithm_table,
    available_algorithms,
    solve,
    solve_many,
)
from repro.coflow.instance import CoflowInstance
from repro.core.timeindexed import SOLVE_STRATEGIES
from repro.experiments.export import write_csv, write_json
from repro.experiments.figures import ALL_EXPERIMENTS, get_experiment
from repro.experiments.reporting import format_result_table, summarize_shape_checks
from repro.experiments.runner import run_experiment
from repro.network.topologies import gscale_topology, named_topology, swan_topology
from repro.workloads.generator import WorkloadSpec, generate_instance
from repro.workloads.profiles import BENCHMARK_NAMES


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Near Optimal Coflow Scheduling in Networks — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("topologies", help="list the built-in topologies")

    sub.add_parser("algorithms", help="list the registered solver algorithms")

    gen = sub.add_parser("generate", help="generate a synthetic workload trace")
    gen.add_argument("output", help="path of the JSON trace to write")
    gen.add_argument("--workload", choices=BENCHMARK_NAMES, default="FB")
    gen.add_argument("--topology", default="swan")
    gen.add_argument("--model", choices=["free_path", "single_path"], default="free_path")
    gen.add_argument("--num-coflows", type=int, default=12)
    gen.add_argument("--demand-scale", type=float, default=1.5)
    gen.add_argument("--unweighted", action="store_true")
    gen.add_argument("--seed", type=int, default=2019)

    solve_cmd = sub.add_parser("solve", help="schedule an instance from a JSON trace")
    solve_cmd.add_argument(
        "trace", help="instance JSON written by `generate` or save_json"
    )
    solve_cmd.add_argument(
        "--algorithm", choices=available_algorithms(), default="lp-heuristic"
    )
    solve_cmd.add_argument("--num-samples", type=int, default=10)
    solve_cmd.add_argument("--slot-length", type=float, default=1.0)
    solve_cmd.add_argument("--epsilon", type=float, default=None)
    solve_cmd.add_argument("--solver-method", default="highs")
    solve_cmd.add_argument(
        "--strategy",
        choices=SOLVE_STRATEGIES,
        default="direct",
        help="staged LP solve strategy (see repro.core.timeindexed)",
    )
    solve_cmd.add_argument("--seed", type=int, default=0)

    batch = sub.add_parser(
        "batch", help="solve several traces with several algorithms in parallel"
    )
    batch.add_argument("traces", nargs="+", help="instance JSON traces")
    batch.add_argument(
        "--algorithms",
        default="lp-heuristic",
        help="comma-separated registered algorithm names",
    )
    batch.add_argument("--parallel", type=int, default=1, help="worker processes")
    batch.add_argument("--num-samples", type=int, default=10)
    batch.add_argument("--slot-length", type=float, default=1.0)
    batch.add_argument("--epsilon", type=float, default=None)
    batch.add_argument("--solver-method", default="highs")
    batch.add_argument(
        "--strategy",
        choices=SOLVE_STRATEGIES,
        default="direct",
        help="staged LP solve strategy (see repro.core.timeindexed)",
    )
    batch.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="run a paper-figure experiment")
    exp.add_argument("experiment_id", choices=sorted(ALL_EXPERIMENTS))
    exp.add_argument("--scale", type=float, default=1.0)
    exp.add_argument("--csv", help="optional CSV output path")
    exp.add_argument("--json", help="optional JSON output path")
    exp.add_argument(
        "--store",
        default=None,
        help="result-store directory: cache the deterministic per-algorithm "
        "series so repeated runs skip solved series",
    )

    bench = sub.add_parser(
        "bench", help="run the performance harness and write BENCH_<date>.json"
    )
    bench.add_argument(
        "--quick", action="store_true", help="smaller workloads, fewer repeats"
    )
    bench.add_argument(
        "--output", default=".", help="directory for BENCH_<date>.json (default: .)"
    )
    bench.add_argument(
        "--repeats", type=int, default=None, help="override best-of repeat count"
    )
    bench.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        help="run only this scenario (repeatable); default: all",
    )
    bench.add_argument(
        "--no-compare",
        action="store_true",
        help="skip the comparison against the previous BENCH_*.json",
    )
    bench.add_argument(
        "--store",
        default=None,
        help="result-store directory: archive the report there and compare "
        "against the store's trajectory when the output dir has none",
    )

    verify = sub.add_parser(
        "verify",
        help="differentially verify every algorithm on sampled scenarios",
    )
    verify.add_argument(
        "--budget", type=int, default=20, help="number of scenarios to sample"
    )
    verify.add_argument("--seed", type=int, default=0, help="root scenario seed")
    verify.add_argument(
        "--family",
        action="append",
        dest="families",
        help="sample only this scenario family (repeatable); default: all",
    )
    verify.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated algorithm names (default: every registered one)",
    )
    verify.add_argument(
        "--invariant",
        action="append",
        dest="invariants",
        help="check only this invariant (repeatable); default: all",
    )
    verify.add_argument(
        "--output",
        default=".",
        help="directory (or .json file path) for the VERIFY report (default: .)",
    )
    verify.add_argument(
        "--list-families",
        action="store_true",
        help="list the registered scenario families and invariants, then exit",
    )
    verify.add_argument(
        "--store",
        default=None,
        help="result-store directory: cache per-scenario blocks so an "
        "interrupted verification resumes and a repeated one is free",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run (or resume) a sharded sweep through the result store",
    )
    sweep.add_argument("spec", help="sweep spec JSON (see repro.experiments.sweep)")
    sweep.add_argument(
        "--store",
        default=".repro-store",
        help="result-store directory (default: .repro-store)",
    )
    sweep.add_argument(
        "--parallel", type=int, default=1, help="worker processes per chunk"
    )
    sweep.add_argument(
        "--shards",
        type=int,
        default=None,
        help="override the spec's chunk count (never changes results)",
    )
    sweep.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        help="execute at most this many chunks, then stop (resume later); "
        "fully cached chunks are free and do not count",
    )
    sweep.add_argument(
        "--status",
        action="store_true",
        help="report store coverage of the sweep without solving anything",
    )
    sweep.add_argument(
        "--worker",
        default=None,
        metavar="ID",
        help="run as one fleet worker (lease-based chunk claims through "
        "the shared store; any number may run concurrently)",
    )
    sweep.add_argument(
        "--launch",
        type=int,
        default=None,
        metavar="N",
        help="supervise N local worker processes and wait for the fleet",
    )
    sweep.add_argument(
        "--ttl",
        type=float,
        default=30.0,
        help="lease heartbeat TTL in seconds; a worker silent for longer "
        "is presumed dead and its chunk is reclaimed (default: 30)",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=None,
        help="transient-solver-failure retries per unit before the unit "
        "is quarantined as failed (default: Backoff policy default)",
    )
    sweep.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="fault-injection spec, e.g. 'kill-worker:after=1,worker=w0;"
        "fail-solve:p=0.3,seed=5' (see repro.fabric.chaos)",
    )

    online = sub.add_parser(
        "online",
        help="run an online scheduling policy over a trace or scenario",
    )
    online.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="instance JSON trace; omit when using --family",
    )
    online.add_argument(
        "--family",
        default=None,
        help="scenario family to stream instead of a trace "
        "(e.g. online-poisson; see `repro verify --list-families`)",
    )
    online.add_argument(
        "--index", type=int, default=0, help="scenario index within the family"
    )
    online.add_argument(
        "--root-seed", type=int, default=0, help="scenario root seed"
    )
    online.add_argument(
        "--policy",
        choices=["batch", "batch-wc", "resolve", "wsjf"],
        default="batch",
        help="online policy: geometric batching, work-conserving batching, "
        "incremental re-solve, or the static WSJF baseline",
    )
    online.add_argument(
        "--base",
        type=float,
        default=None,
        help="epoch growth factor (> 1); default 2.0",
    )
    online.add_argument(
        "--offline-algorithm",
        default="lp-heuristic",
        help="offline algorithm the batching policies delegate batches to",
    )
    online.add_argument("--slot-length", type=float, default=1.0)
    online.add_argument("--seed", type=int, default=0)
    online.add_argument(
        "--compare-offline",
        action="store_true",
        help="also solve the clairvoyant offline problem and report the "
        "competitive ratio",
    )

    scen = sub.add_parser(
        "scenarios",
        help="scenario-corpus tooling: pipelines, amplifier, trace converter",
    )
    scen_sub = scen.add_subparsers(dest="scenarios_command", required=True)

    scen_run = scen_sub.add_parser(
        "run", help="execute a declarative pipeline spec (YAML or JSON)"
    )
    scen_run.add_argument("spec", help="pipeline spec file (see repro.scenarios.pipeline)")
    scen_run.add_argument(
        "--store",
        default=None,
        help="result-store directory: checkpoint per-scenario blocks so "
        "interrupted pipelines resume and repeated runs replay for free",
    )
    scen_run.add_argument(
        "--output",
        default=None,
        help="write the deterministic pipeline report to this JSON path",
    )

    scen_sub.add_parser("list", help="list the registered scenario families")

    scen_amp = scen_sub.add_parser(
        "amplify", help="amplify a trace to N coflows (marginal-preserving)"
    )
    scen_amp.add_argument("src", help="base trace JSON (any repro trace kind)")
    scen_amp.add_argument("out", help="amplified trace JSON to write")
    scen_amp.add_argument("count", type=int, help="target number of coflows")
    scen_amp.add_argument("--seed", type=int, default=0, help="amplifier root seed")
    scen_amp.add_argument(
        "--no-check",
        action="store_true",
        help="skip the marginal-preservation guard (not recommended)",
    )

    scen_fb = scen_sub.add_parser(
        "convert-fb", help="convert a Facebook-format coflow trace to JSON"
    )
    scen_fb.add_argument("src", help="Facebook-format text trace")
    scen_fb.add_argument("out", help="JSON trace to write")
    scen_fb.add_argument(
        "--demand-scale", type=float, default=1.0, help="size multiplier (trace is MB)"
    )
    scen_fb.add_argument(
        "--time-scale",
        type=float,
        default=1e-3,
        help="arrival-stamp multiplier (trace is ms; default converts to s)",
    )
    scen_fb.add_argument(
        "--max-coflows",
        type=int,
        default=None,
        help="truncate the corpus after this many coflows",
    )

    lint = sub.add_parser(
        "lint",
        help="run the AST-based determinism & discipline analyzer",
    )
    lint.add_argument(
        "path",
        nargs="?",
        default=None,
        help="directory or file to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format on stdout",
    )
    lint.add_argument(
        "--output",
        default=None,
        help="also write a machine-readable LINT_<date>.json report "
        "(directory or .json path)",
    )
    lint.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes or family prefixes to run "
        "(e.g. R004 or R1,R2,R3; default: all rules)",
    )
    lint.add_argument(
        "--diff",
        metavar="REF",
        default=None,
        help="lint only files changed vs this git ref plus their "
        "reverse-dependency closure from the call graph",
    )
    lint.add_argument(
        "--cache",
        metavar="PATH",
        default=None,
        help="call-graph extract cache (JSON, keyed by file digests); "
        "warm runs skip re-extracting unchanged modules",
    )
    lint.add_argument(
        "--certificate",
        metavar="PATH",
        default=None,
        help="also write the kernel-purity certificate "
        "(directory or .json path; requires R301/R302/R303 in the run)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )

    return parser


def _cmd_topologies(out) -> int:
    for name, graph in (("swan", swan_topology()), ("gscale", gscale_topology())):
        print(
            f"{name:<8s} {graph.name:<10s} nodes={graph.num_nodes:<3d} "
            f"directed edges={graph.num_edges:<3d} "
            f"total capacity={graph.total_capacity():g}",
            file=out,
        )
    print(
        "helper topologies: paper-example, figure-1, star, line, ring, "
        "parallel-edges, switch-fabric (see repro.network.topologies)",
        file=out,
    )
    return 0


def _cmd_generate(args, out) -> int:
    graph = named_topology(args.topology)
    spec = WorkloadSpec(
        profile=args.workload,
        num_coflows=args.num_coflows,
        weighted=not args.unweighted,
        demand_scale=args.demand_scale,
        seed=args.seed,
    )
    instance = generate_instance(graph, spec, model=args.model, rng=args.seed)
    instance.save_json(args.output)
    print(
        f"wrote {instance.num_coflows} coflows / {instance.num_flows} flows "
        f"({args.workload} on {graph.name}, {args.model}) to {args.output}",
        file=out,
    )
    return 0


def _cmd_algorithms(out) -> int:
    for info in algorithm_table():
        models = ",".join(m.value for m in info.supported_models)
        flags = []
        if info.uses_shared_lp:
            flags.append("shared-lp")
        if info.randomized:
            flags.append("randomized")
        if info.online:
            flags.append("online")
        rendered_flags = f" [{', '.join(flags)}]" if flags else ""
        print(f"{info.name:<16s} models={models:<22s}{rendered_flags}", file=out)
        if info.description:
            print(f"{'':<16s} {info.description}", file=out)
    return 0


def _cmd_solve(args, out) -> int:
    instance = CoflowInstance.load_json(args.trace)
    try:
        report = solve(
            instance,
            args.algorithm,
            slot_length=args.slot_length,
            epsilon=args.epsilon,
            rng=args.seed,
            num_samples=args.num_samples,
            solver_method=args.solver_method,
            strategy=args.strategy,
        )
    except ValueError as exc:  # model mismatch, bad solver method, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bound = "n/a" if report.lower_bound is None else f"{report.lower_bound:.3f}"
    gap = "n/a" if report.lower_bound is None else f"{report.gap:.3f}x"
    print(f"instance          : {instance}", file=out)
    print(f"algorithm         : {report.algorithm}", file=out)
    path = report.solve_path
    if path is not None:
        stages = ", ".join(
            f"{s['stage']}[{s['slots']} slots, {s['solve_seconds']:.3f}s"
            + (
                f", {s['simplex_iterations']} it"
                if s.get("simplex_iterations") is not None
                else ""
            )
            + (", warm]" if s.get("warm_start") else "]")
            for s in path.get("stages", [])
        )
        print(f"solve path        : {path['strategy']} — {stages}", file=out)
    print(f"LP lower bound    : {bound}", file=out)
    print(f"objective         : {report.objective:.3f}", file=out)
    print(f"gap to bound      : {gap}", file=out)
    for coflow, time in zip(instance.coflows, report.coflow_completion_times):
        name = coflow.name or "coflow"
        print(f"  {name:<20s} weight {coflow.weight:8.2f}  C = {time:g}", file=out)
    return 0


def _cmd_batch(args, out) -> int:
    algorithms = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    instances = [CoflowInstance.load_json(path) for path in args.traces]
    config = SolverConfig(
        slot_length=args.slot_length,
        epsilon=args.epsilon,
        rng=args.seed,
        num_samples=args.num_samples,
        solver_method=args.solver_method,
        strategy=args.strategy,
    )
    try:
        reports = solve_many(
            instances, algorithms, config=config, parallel=args.parallel
        )
    except ValueError as exc:  # unknown algorithm, model mismatch, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = f"{'trace':<28s} {'algorithm':<16s} {'objective':>10s} {'bound':>10s} {'gap':>7s} {'sec':>7s}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for i, path in enumerate(args.traces):
        for k in range(len(algorithms)):
            report = reports[i * len(algorithms) + k]
            bound = (
                "n/a" if report.lower_bound is None else f"{report.lower_bound:.3f}"
            )
            gap = "n/a" if report.lower_bound is None else f"{report.gap:.3f}"
            print(
                f"{path:<28s} {report.algorithm:<16s} {report.objective:>10.3f} "
                f"{bound:>10s} {gap:>7s} {report.solve_seconds:>7.3f}",
                file=out,
            )
    return 0


def _cmd_experiment(args, out) -> int:
    config = get_experiment(args.experiment_id)
    store = None
    if args.store:
        from repro.store import ResultStore

        store = ResultStore(args.store)
    result = run_experiment(config, scale=args.scale, store=store)
    print(format_result_table(result), file=out)
    checks = summarize_shape_checks(result)
    if checks:
        rendered = ", ".join(f"{k}={'PASS' if v else 'FAIL'}" for k, v in checks.items())
        print(f"\nshape checks: {rendered}", file=out)
    if args.csv:
        rows = write_csv([result], args.csv)
        print(f"wrote {rows} rows to {args.csv}", file=out)
    if args.json:
        write_json([result], args.json)
        print(f"wrote JSON to {args.json}", file=out)
    return 0 if all(checks.values()) else 1


def _cmd_bench(args, out) -> int:
    from repro.perf.harness import (
        compare_with_previous,
        format_report,
        run_bench,
        write_report,
    )

    try:
        report = run_bench(
            quick=args.quick, repeats=args.repeats, scenarios=args.scenarios
        )
    except ValueError as exc:  # unknown scenario name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = None
    if args.store:
        from repro.store import ResultStore

        store = ResultStore(args.store)
    if not args.no_compare:
        # Tolerates an empty trajectory (no prior BENCH_*.json) and
        # unreadable/foreign previous files — see compare_with_previous.
        report["comparison"] = compare_with_previous(
            report, args.output, store=store
        )
    path = write_report(report, args.output, store=store)
    print(format_report(report), file=out)
    print(f"wrote {path}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    from repro.scenarios import (
        family_table,
        format_verification_report,
        get_invariant,
        invariant_names,
        run_verification,
        write_verification_report,
    )

    if args.list_families:
        print("scenario families:", file=out)
        for family in family_table():
            print(f"  {family.name:<18s} {family.description}", file=out)
        print("invariants:", file=out)
        for name in invariant_names():
            print(f"  {name:<22s} {get_invariant(name).description}", file=out)
        return 0
    algorithms = None
    if args.algorithms:
        algorithms = [
            name.strip() for name in args.algorithms.split(",") if name.strip()
        ]
    store = None
    if args.store:
        from repro.store import ResultStore

        store = ResultStore(args.store)
    try:
        # Unknown family/algorithm/invariant names all fail fast inside
        # run_verification, before any scenario is generated or solved.
        report = run_verification(
            args.budget,
            args.seed,
            families=args.families,
            algorithms=algorithms,
            invariants=args.invariants,
            store=store,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if store is not None:
        store.put_run("verify", report)
    path = write_verification_report(report, args.output)
    print(format_verification_report(report), file=out)
    print(f"wrote {path}", file=out)
    return 0 if report["summary"]["ok"] else 1


def _cmd_sweep(args, out) -> int:
    from repro.experiments.sweep import SweepSpec, run_sweep
    from repro.fabric import (
        ChaosInjector,
        ChaosSpec,
        StartBarrier,
        launch_workers,
        merged_status,
        run_worker,
    )
    from repro.store import ResultStore
    from repro.utils.retry import Backoff

    try:
        spec = SweepSpec.load_json(args.spec)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: could not load sweep spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    if args.worker and args.launch:
        print("error: --worker and --launch are mutually exclusive", file=sys.stderr)
        return 2
    try:
        # The CLI flag wins; workers spawned by --launch inherit the spec
        # through the REPRO_CHAOS environment variable instead.
        chaos_spec = (
            ChaosSpec.parse(args.chaos)
            if args.chaos is not None
            else ChaosSpec.from_env()
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    backoff = Backoff(retries=args.retries) if args.retries is not None else None
    store = ResultStore(args.store)
    if args.status:
        try:
            status = merged_status(spec, store)
        except (OSError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"sweep {status['sweep']} ({status['sweep_id'][:12]}): "
            f"{status['stored']}/{status['units']} units stored, "
            f"{status['pending']} pending, {status['failed']} failed "
            f"({'complete' if status['complete'] else 'incomplete'})",
            file=out,
        )
        if status["workers"] or status["leases"]:
            active = sum(1 for lease in status["leases"] if not lease["expired"])
            print(
                f"fabric: {len(status['workers'])} worker reports, "
                f"races {status['races']}, "
                f"leases {len(status['leases'])} ({active} active), "
                f"quarantined {status['quarantined']}",
                file=out,
            )
        return 0
    if args.worker:
        try:
            report = run_worker(
                spec,
                store,
                worker_id=args.worker,
                ttl=args.ttl,
                backoff=backoff,
                chaos=chaos_spec,
                # Set by --launch: wait for the whole fleet before claiming.
                barrier=StartBarrier.from_env(),
            )
        except (OSError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"worker {report.worker_id}: chunks {report.chunks_completed} "
            f"completed, steals {report.steals}, "
            f"units solved {report.units_solved}, hit {report.units_hit}, "
            f"failed {report.units_failed}, races {report.races} "
            f"({report.seconds:.2f}s)",
            file=out,
        )
        return 0 if report.complete else 1
    if args.launch:
        try:
            exits = launch_workers(
                args.spec,
                args.store,
                args.launch,
                ttl=args.ttl,
                chaos=chaos_spec,
            )
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for worker_exit in exits:
            print(
                f"worker {worker_exit.worker_id}: exit {worker_exit.returncode}",
                file=out,
            )
        status = merged_status(spec, store)
        print(
            f"fleet: {status['stored']}/{status['units']} units stored, "
            f"{status['failed']} failed, races {status['races']} "
            f"({'complete' if status['complete'] else 'incomplete'})",
            file=out,
        )
        return 0 if status["complete"] else 1
    try:
        result = run_sweep(
            spec,
            store,
            parallel=args.parallel,
            max_chunks=args.max_chunks,
            num_shards=args.shards,
            backoff=backoff,
            chaos=ChaosInjector(spec=chaos_spec) if chaos_spec else None,
        )
    except (OSError, KeyError, ValueError) as exc:
        # Unknown algorithm / empty cross product (ValueError), missing
        # trace file (OSError), unknown topology name (KeyError): all are
        # spec problems, not crashes.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = (
        f"{'instance':<30s} {'algorithm':<16s} {'eps':>6s} "
        f"{'objective':>10s} {'source':>7s}"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    for unit in result.units:
        label = spec.instances[unit.instance_index].label()
        eps = "-" if unit.epsilon is None else f"{unit.epsilon:g}"
        objective = (
            "pending" if unit.objective is None else f"{unit.objective:.3f}"
        )
        print(
            f"{label:<30s} {unit.algorithm:<16s} {eps:>6s} "
            f"{objective:>10s} {unit.status:>7s}",
            file=out,
        )
    summary = result.summary()
    print(
        f"units {summary['units']}: hit {summary['hits']}, "
        f"solved {summary['solved']}, pending {summary['pending']}, "
        f"failed {summary['failed']} "
        f"(chunks {summary['chunks_run']}/{summary['chunks_total']}, "
        f"{summary['seconds']:.2f}s, store {store.root})",
        file=out,
    )
    if not result.complete:
        print(
            "sweep incomplete; re-run the same command to resume from the "
            "last checkpoint",
            file=out,
        )
    return 0


def _cmd_online(args, out) -> int:
    from repro.online import (
        ArrivalStream,
        GeometricBatchingPolicy,
        IncrementalResolvePolicy,
        OnlineEngine,
        WSJFPolicy,
    )

    if (args.trace is None) == (args.family is None):
        print(
            "error: give exactly one input — a trace path or --family",
            file=sys.stderr,
        )
        return 2
    # Flags that only the batching policies read must not be silently
    # ignored: a "comparison across bases" that never varied anything is
    # worse than an error.
    if args.policy in ("resolve", "wsjf"):
        if args.base is not None:
            print(
                f"error: --base only applies to the batching policies, "
                f"not --policy {args.policy}",
                file=sys.stderr,
            )
            return 2
        if args.offline_algorithm != "lp-heuristic" and not args.compare_offline:
            print(
                f"error: --offline-algorithm only applies to the batching "
                f"policies (or with --compare-offline), not --policy "
                f"{args.policy}",
                file=sys.stderr,
            )
            return 2
    try:
        if args.family is not None:
            stream = ArrivalStream.from_scenario(
                args.family, args.index, args.root_seed
            )
        else:
            stream = ArrivalStream.from_trace(args.trace)
        if args.policy in ("batch", "batch-wc"):
            policy = GeometricBatchingPolicy(
                args.base if args.base is not None else 2.0,
                offline_algorithm=args.offline_algorithm,
                early_start=args.policy == "batch-wc",
            )
        elif args.policy == "resolve":
            policy = IncrementalResolvePolicy()
        else:
            policy = WSJFPolicy()
        config = SolverConfig(slot_length=args.slot_length, rng=args.seed)
        result = OnlineEngine(stream, config=config).run(policy)
    except (OSError, KeyError, ValueError) as exc:
        # Missing trace file, unknown family/offline algorithm, bad base.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    instance = stream.instance
    print(f"stream            : {stream}", file=out)
    print(f"policy            : {result.algorithm}", file=out)
    print(
        f"objective         : {result.weighted_completion_time:.3f} "
        f"(makespan {result.makespan:.3f})",
        file=out,
    )
    if result.batches:
        print(f"batches           : {result.num_batches}", file=out)
        for batch in result.batches:
            members = ", ".join(
                instance.coflows[j].name or f"C{j}" for j in batch.coflow_indices
            )
            print(
                f"  epoch {batch.epoch_index:<3d} start t={batch.start_time:<8.3f} "
                f"makespan {batch.makespan:<8.3f} [{members}]",
                file=out,
            )
    if args.compare_offline:
        # The same config as the online run, so the clairvoyant baseline
        # never silently solves under different knobs.
        offline = solve(instance, args.offline_algorithm, config=config)
        ratio = result.competitive_ratio(offline.objective)
        bound = (
            "n/a" if offline.lower_bound is None else f"{offline.lower_bound:.3f}"
        )
        print(
            f"offline ({args.offline_algorithm}) : {offline.objective:.3f} "
            f"(LP bound {bound})",
            file=out,
        )
        print(f"competitive ratio : {ratio:.3f}x", file=out)
    return 0


def _cmd_scenarios(args, out) -> int:
    if args.scenarios_command == "list":
        from repro.scenarios import family_table

        for family in family_table():
            print(f"{family.name:<20s} {family.description}", file=out)
        return 0
    if args.scenarios_command == "amplify":
        from repro.scenarios.amplify import amplify_trace

        try:
            summary = amplify_trace(
                args.src,
                args.out,
                args.count,
                root_seed=args.seed,
                check=not args.no_check,
            )
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"amplified {summary['base_coflows']} -> {summary['num_coflows']} "
            f"coflows ({summary['num_flows']} flows, seed {summary['root_seed']}) "
            f"to {summary['out']}",
            file=out,
        )
        for key, value in sorted(summary["marginals"].items()):
            print(f"  {key:<22s} {value:.6f}", file=out)
        return 0
    if args.scenarios_command == "convert-fb":
        from repro.workloads.fbtrace import convert_facebook_trace

        try:
            summary = convert_facebook_trace(
                args.src,
                args.out,
                demand_scale=args.demand_scale,
                time_scale=args.time_scale,
                max_coflows=args.max_coflows,
            )
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"converted {summary['num_coflows']} coflows / "
            f"{summary['num_flows']} flows "
            f"(horizon {summary['max_release_time']:.3f}) to {summary['out']}",
            file=out,
        )
        return 0
    # args.scenarios_command == "run"
    from repro.scenarios.pipeline import (
        PipelineSpec,
        format_pipeline_report,
        run_pipeline,
        write_pipeline_report,
    )

    try:
        spec = PipelineSpec.load(args.spec)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: could not load pipeline spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    store = None
    if args.store:
        from repro.store import ResultStore

        store = ResultStore(args.store)
    try:
        result = run_pipeline(spec, store=store)
    except ValueError as exc:  # unknown family/invariant/algorithm
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_pipeline_report(result), file=out)
    if args.output:
        path = write_pipeline_report(result, args.output)
        print(f"wrote {path}", file=out)
    return 0 if result.ok else 1


def _cmd_lint(args, out) -> int:
    from repro.lint import (
        format_result,
        format_rule_table,
        result_to_json,
        run_lint,
        write_certificate,
        write_lint_report,
    )

    if args.list_rules:
        print(format_rule_table(), file=out)
        return 0
    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
    try:
        result = run_lint(
            args.path, select=select, diff=args.diff, cache_path=args.cache
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        # result_to_json is already plain JSON (built from normalized data).
        print(json.dumps(result_to_json(result), indent=2), file=out)  # repro-lint: allow[R005]
    else:
        print(format_result(result), file=out)
    if args.output is not None:
        path = write_lint_report(result, args.output)
        print(f"wrote {path}", file=out)
        # A directory output also publishes the certificate next to the
        # report (the CI artifact layout); a .json path names the report
        # alone, so the certificate needs --certificate explicitly.
        if result.certificate is not None and Path(args.output).suffix != ".json":
            cert_path = write_certificate(result, args.output)
            print(f"wrote {cert_path}", file=out)
    if args.certificate is not None:
        try:
            cert_path = write_certificate(result, args.certificate)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {cert_path}", file=out)
    return 0 if result.ok else 1


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    if args.command == "topologies":
        return _cmd_topologies(out)
    if args.command == "algorithms":
        return _cmd_algorithms(out)
    if args.command == "generate":
        return _cmd_generate(args, out)
    if args.command == "solve":
        return _cmd_solve(args, out)
    if args.command == "batch":
        return _cmd_batch(args, out)
    if args.command == "experiment":
        return _cmd_experiment(args, out)
    if args.command == "bench":
        return _cmd_bench(args, out)
    if args.command == "verify":
        return _cmd_verify(args, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command == "online":
        return _cmd_online(args, out)
    if args.command == "scenarios":
        return _cmd_scenarios(args, out)
    if args.command == "lint":
        return _cmd_lint(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
