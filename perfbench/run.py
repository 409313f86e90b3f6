"""End-to-end benchmark of ``repro.api.solve``: one closed-loop client.

Run from the repository root::

    python3 perfbench/run.py --workload offline-lp --seed 1 --seconds 44 --trace 0

The client sends the workload's requests (see ``workloads.py``) to
``repro.api.solve`` one after another, in passes: every pass has the same
mix of requests on new instances.  A traced run sends one pass; an
untraced run sends at least 100 requests, so the 90th percentile has ten
samples above it, and starts another pass only while it expects that pass
to end within ``--seconds`` (judged by the passes so far).  So every run
sends whole passes, and its mix of requests never depends on how fast the
host is.  A run left with fewer than ten samples above the 90th
percentile (when requests failed) is marked incorrect.  A pass's
instances are generated before the pass, untimed; every request gets a
fresh copy, so no request profits from the caches of another.  Outside the
timed interval each delivered report is checked (``checks.py``); a failed
check or a raised exception counts as a failed request.

``wcct_ratio`` is the geometric mean over the first pass of the delivered
weighted CCT divided by ``sum_j w_j (r_j + standalone_j)``, computed
before the pass is timed, so it is the same on every run of a seed.
``peak_rss_mb`` is read after the first pass, so it covers the same work
however many passes a run sends.  ``setup_s`` is the import of ``repro``
plus the median of three rounds of building topologies and instances from
the first pass's generated ones and one warm-up solve per (algorithm,
model).  Generating the inputs — the repo's workload generator, path
pinning included — is the client's work and is not timed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times every
request twice, untraced and then traced (``spans.py``), prints the
per-layer metrics and writes the spans as JSON lines under
``.perfbench/spans/``.  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import List, Optional

# One client process on a 2-core host: keep the BLAS libraries from starting
# helper threads that compete with it (and with other tenants) for the cores.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import checks  # noqa: E402  (after the thread settings, which numpy reads on import)
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ABOVE_P90 = 10
MIN_REQUESTS = 10 * ABOVE_P90
SETUP_REPEATS = 3


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--save", type=Path, help="also write the result to DIR/<workload>-seed<n>-trace<t>.json"
    )
    return parser.parse_args(argv)


def import_repro() -> float:
    """Import ``repro`` from ``src/`` and return the seconds it took."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import repro.api  # noqa: F401

    return time.perf_counter() - start


def config_for(spec: dict):
    """The default ``SolverConfig``, seeded so λ draws repeat exactly."""
    from repro.api import SolverConfig

    return SolverConfig(rng=spec["lambda_seed"])


def set_up(specs: List[dict], instances: list, warmups: List[dict], warmup_instances: list) -> float:
    """Median seconds to build *instances* anew and run the warm-up solves."""
    from repro import api

    seconds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        for spec, generated in zip(specs, instances):
            workloads.fresh_copy(generated, spec["topology"])
        for spec, generated in zip(warmups, warmup_instances):
            instance = workloads.fresh_copy(generated, spec["topology"])
            api.solve(instance, spec["algorithm"], config=config_for(spec))
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


def send(spec: dict, generated, tracer: Optional[spans.Tracer] = None, request_id: int = -1):
    """One timed request on a fresh copy of *generated*: (instance, report, error, seconds)."""
    from repro import api

    instance = workloads.fresh_copy(generated, spec["topology"])
    config = config_for(spec)
    # Collect what earlier requests left behind, then exempt the survivors
    # (set-up, the inputs, caches the program keeps) from later collections,
    # so neither this collection nor one inside the timed call walks a heap
    # that grows with the number of requests sent.
    gc.collect()
    gc.freeze()
    report = error = None
    if tracer is None:
        start = time.perf_counter()
        try:
            report = api.solve(instance, spec["algorithm"], config=config)
        except Exception as exc:  # a failed request is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        return instance, report, error, time.perf_counter() - start
    tracer.request = request_id
    with spans.patched(tracer):
        start = time.perf_counter()
        try:
            report = tracer.call(
                "api.solve", api.solve, (instance, spec["algorithm"]), {"config": config}
            )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return instance, report, error, elapsed


def prepare(workload: str, seed: int, number: int) -> tuple:
    """Pass *number*: its specs and their generated instances.  Each spec
    also gets its flow count and the lower bound of its instance."""
    specs = workloads.make_pass(workload, seed, number)
    instances = [workloads.generate(spec) for spec in specs]
    for spec, instance in zip(specs, instances):
        spec["flows"] = instance.num_flows
        spec["bound"] = checks.lower_bound(instance)
    return specs, instances


def run_loop(
    workload: str,
    seed: int,
    first: tuple,
    first_s: float,
    seconds: float,
    tracer: Optional[spans.Tracer],
) -> dict:
    """Send pass after pass, *first* (from :func:`prepare`, which took
    *first_s*) first, until at least ``MIN_REQUESTS`` are sent and while the
    next pass, its preparation included, is expected to end within
    *seconds* (one pass if traced); return samples, failures and the first
    pass's weighted CCT ratios."""
    latencies: List[float] = []
    traced: List[float] = []
    ratios: List[float] = []
    flows = attempted = failed = passes = 0
    cells: dict = {}
    failures: List[str] = []
    peak_rss_mb = 0.0
    specs, instances = first
    start = time.perf_counter() - first_s
    while True:
        for spec, generated in zip(specs, instances):
            attempted += 1
            instance, report, error, elapsed = send(spec, generated)
            faults = [error] if error else checks.problems(report, instance)
            if tracer is not None:
                cells[attempted] = (spec["algorithm"], spec["model"], spec["topology"])
                _, traced_report, traced_error, traced_elapsed = send(
                    spec, generated, tracer, attempted
                )
                if traced_error or (
                    report is not None
                    and traced_report.weighted_completion_time != report.weighted_completion_time
                ):
                    faults.append(f"traced request differs: {traced_error or 'weighted CCT'}")
            if faults:
                failed += 1
                failures.append(f"{spec['algorithm']}/{spec['model']}/n={spec['n']}: {faults[0]}")
                continue
            latencies.append(elapsed)
            if tracer is not None:
                traced.append(traced_elapsed)
            flows += spec["flows"]
            if passes == 0:
                ratios.append(report.weighted_completion_time / spec["bound"])
        passes += 1
        if passes == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spent = time.perf_counter() - start
        if tracer is not None or (
            attempted >= MIN_REQUESTS and spent * (passes + 1) / passes > seconds
        ):
            break
        specs, instances = prepare(workload, seed, passes)
    return {
        "latencies": latencies,
        "traced": traced,
        "ratios": ratios,
        "flows": flows,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "wall": time.perf_counter() - start,
        "peak_rss_mb": peak_rss_mb,
        "cells": cells,
        "failures": failures,
    }


def percentile_above(values: List[float], share: float) -> float:
    """The smallest sample with at most ``1 - share`` of the samples above it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.startswith("share.") or name.endswith(("_ratio", "_frac")):
        return "frac"
    if name.endswith("scaling_exponent"):
        return "slope"
    return "count"


def mix_lines(specs: List[dict]) -> List[str]:
    """A pass's request mix: shares per algorithm, model, topology; flows quartiles."""
    lines = []
    for key in ("algorithm", "model", "topology"):
        counts = Counter(spec[key] for spec in specs)
        shares = ", ".join(f"{name} {count / len(specs):.2f}" for name, count in sorted(counts.items()))
        lines.append(f"mix {key}: {shares}")
    q1, q2, q3 = statistics.quantiles([spec["flows"] for spec in specs], n=4)
    lines.append(f"mix flows/request: q1 {q1:g}, median {q2:g}, q3 {q3:g} ({len(specs)} requests/pass)")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    import_s = import_repro()
    started = time.perf_counter()
    first = prepare(args.workload, args.seed, 0)
    first_s = time.perf_counter() - started
    warmups = workloads.warmup_specs(args.workload, args.seed)
    setup_s = import_s + set_up(*first, warmups, [workloads.generate(spec) for spec in warmups])
    tracer = spans.Tracer() if args.trace else None
    origin = time.perf_counter()
    loop = run_loop(args.workload, args.seed, first, first_s, args.seconds, tracer)
    latencies = loop["latencies"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(*mix_lines(first[0]), sep="\n")
    print(
        f"requests {loop['attempted']} in {loop['passes']} passes, "
        f"{len(latencies)} latency samples, failed {loop['failed']} "
        f"(fail_frac {loop['failed'] / loop['attempted']:g}); "
        f"loop {loop['wall']:.1f} s, of which timed {sum(latencies):.1f} s"
    )
    for line in loop["failures"][:10]:
        print(f"FAILED {line}", file=sys.stderr)

    correct = loop["failed"] == 0
    if tracer is None:
        p90 = percentile_above(latencies, 0.9)
        above = sum(value > p90 for value in latencies)
        print(
            f"latency_p90_s from {len(latencies)} samples, {above} above it; "
            f"requests took {min(latencies):.3g}-{max(latencies):.3g} s"
        )
        if above < ABOVE_P90:
            print(f"FAILED fewer than {ABOVE_P90} samples above latency_p90_s", file=sys.stderr)
            correct = False
        values = {
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_p90_s": (p90, "s"),
            "flows_per_s": (loop["flows"] / sum(latencies), "flows/s"),
            "wcct_ratio": (math.exp(statistics.fmean(map(math.log, loop["ratios"]))), "ratio"),
            "ok_frac": (1.0 - loop["failed"] / loop["attempted"], "frac"),
            "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        layer = spans.layer_metrics(tracer, loop["cells"])
        layer["trace.overhead_frac"] = sum(loop["traced"]) / sum(latencies) - 1.0
        values = {name: (value, unit_of(name)) for name, value in layer.items()}
        out_dir = ROOT / ".perfbench" / "spans"
        out_dir.mkdir(parents=True, exist_ok=True)
        span_file = out_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file, origin)
        print(f"{len(tracer)} spans written to {span_file.relative_to(ROOT)}")

    for name, (value, unit) in values.items():
        print(f"{name:40s} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "result": result,
        }
        target = args.save / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        target.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
