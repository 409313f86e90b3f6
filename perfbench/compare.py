"""Compare two result sets of the benchmark, with a verdict per metric.

A result set is a directory of ``<workload>-seed<n>-trace0.json`` files, as
``run.py --save DIR`` (or ``sweep.py``) writes them.  Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR   # verdicts
    python3 perfbench/compare.py BASE_DIR           # one set's spread

For every (end-to-end metric, workload) pair it prints each side's median
and quartiles, and the spread: the distance between the quartiles as a
share of the median.  The verdict compares medians against the metric's
``bound`` from ``BENCHMARK.json``:

* ``unresolved`` — either side's spread is wider than the bound, and the
  runs of the two sides overlap;
* ``worse`` — the new median is worse by more than the bound (or, where
  the spread is too wide, every new run is worse than every base run);
* ``better`` — the new median is better by more than both spreads (or
  every new run is better than every base run);
* ``unchanged`` — otherwise.

Failures override all of this: every metric of a workload whose new set
holds a run with ``correct: false`` is ``worse``, and so is ``ok_frac``
whenever any new run has a lower share than the lowest base run, whatever
the bound.  With two sets, the command exits non-zero if any verdict is
``worse`` or a metric is missing; with one set, if a run is incorrect or a
spread — ``setup_s`` included — is wider than a third of its bound.

Run-to-run noise on one machine is judged by that machine's own spread, so
no ratio is ever compared across machines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> Tuple[Dict[str, Dict[str, List[float]]], Dict[str, int]]:
    """The untraced runs in *directory*: ``{workload: {metric: [value per run]}}``
    and ``{workload: number of runs with correct false}``."""
    sets: Dict[str, Dict[str, List[float]]] = {}
    incorrect: Dict[str, int] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        workload = record["workload"]
        metrics = sets.setdefault(workload, {})
        incorrect[workload] = incorrect.get(workload, 0) + (not record["result"]["correct"])
        for name, entry in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(float(entry["value"]))
    return sets, incorrect


def summary(values: List[float]) -> tuple:
    """(median, q1, q3, spread) with the quartiles of ``statistics.quantiles``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def verdict(base: List[float], new: List[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_med, _, _, b_spread = summary(base)
    n_med, _, _, n_spread = summary(new)
    if b_med == n_med:
        return "unchanged"
    change = sign * (n_med - b_med) / abs(b_med) if b_med else sign * float("inf")
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    if max(b_spread, n_spread) > bound:
        if all_better:
            return "better"
        if all_worse:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > max(b_spread, n_spread):
        return "better"
    return "unchanged"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, base_incorrect = load(args.base)
    new, new_incorrect = load(args.new) if args.new is not None else (None, {})
    if not base:
        raise SystemExit(f"no *-trace0.json results in {args.base}")

    def cells(values: List[float]) -> str:
        median, q1, q3, spread = summary(values)
        return f"{median:11.5g} [{q1:.5g}, {q3:.5g}] {spread:6.1%} n={len(values)}"

    flagged = 0
    for workload in sorted(base):
        print(f"== {workload}")
        incorrect = base_incorrect[workload] if new is None else new_incorrect.get(workload, 0)
        if incorrect:
            side = "" if new is None else "new set: "
            print(f"  {side}{incorrect} run(s) with correct=false")
            flagged += 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base_values = base[workload].get(name)
            if not base_values:
                continue
            line = f"  {name:14s} {metric['unit']:8s} bound {bound:5.1%}  base {cells(base_values)}"
            if new is None:
                steady = summary(base_values)[3] <= bound / 3
                flagged += not steady
                print(f"{line}  {'steady' if steady else 'SPREAD ABOVE BOUND/3'}")
                continue
            new_values = new.get(workload, {}).get(name)
            if not new_values:
                print(f"{line}  new: missing")
                flagged += 1
                continue
            call = verdict(base_values, new_values, bound, metric["better"])
            if incorrect or (name == "ok_frac" and min(new_values) < min(base_values)):
                call = "worse"
            flagged += call == "worse"
            print(f"{line}  new {cells(new_values)}  {call}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
