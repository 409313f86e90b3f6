"""Run the benchmark over several seeds into one result set.

Usage (from the repository root)::

    python3 perfbench/sweep.py --out .perfbench/results/base --seeds 1-10

Each run is a separate ``run.py`` process, started only after the previous
one has exited, on every workload of ``BENCHMARK.json`` and always with its
``run_seconds``, so result sets compare like with like.  An untraced sweep
ends by printing every end-to-end metric per workload with its unit,
median, quartiles and spread (``compare.py`` on the result set), and exits
non-zero if a run failed or a spread is wider than a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> List[int]:
    """``"1-10"`` or ``"3,5,8"`` as a list of seeds."""
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        for seed in args.seeds:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace), "--save", str(args.out),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1:] or [done.stderr.strip()]
            print(f"{workload} seed {seed}: exit {done.returncode} {last[0][:160]}", flush=True)
            status = status or done.returncode
    if args.trace == 0:
        import compare

        status = compare.main([str(args.out)]) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
