"""Seeded request passes for the three benchmark workloads.

A workload is a fixed list of *cells* — (algorithm, model, topology, n)
tuples — plus one of the paper's workload profiles
(:mod:`repro.workloads.profiles`) and a demand scale.  Every cell becomes
one request of a *pass*, and a run sends one pass after another.  The
seed and the pass number draw each request's generation seed (its coflows
come from :func:`repro.workloads.generate_instance`), its λ seed and the
order in which the pass is sent; they never change which cells exist.  So
every pass has the same mix of requests, and each brings new instances:
more passes sample more instances, not the same ones again.  No two
requests share an instance, so one hard instance weighs on one request
only, not on every algorithm of its cell.

A request spec is a plain JSON-safe dict.  :func:`generate` turns it into
the request's input once, before the pass is timed; the program only ever
receives a fresh copy of that instance (:func:`fresh_copy`).
"""

from __future__ import annotations

import itertools
from typing import Dict, List

import numpy as np

SINGLE, FREE = "single_path", "free_path"
BOTH = ("SWAN", "G-Scale")
OFFLINE_SIZES = tuple(range(8, 21))
ONLINE_SIZES = tuple(range(20, 61, 5))
SIM_SIZES = tuple(range(150, 251, 20))

#: Per workload: ``cells`` lists (algorithm, model, topologies, sizes), and
#: every (topology, size) pair becomes one request of a pass; ``profile``,
#: ``demand_scale`` and ``release_spread`` go to the repo's
#: ``WorkloadSpec``.  A pass takes roughly 12-20 s on a 2-core host, so two
#: or three fit in a run.  To keep it so, the dearest cells are left out:
#: free-path LPs beyond n = 10, n = 1200 on G-Scale, free-path simulation
#: beyond n = 150 and free-path online-batch beyond n = 40.  The last also
#: keeps online-stream's slowest tenth from spanning 0.3-2 s on a handful of
#: requests, which made its 90th percentile jump from run to run.
WORKLOADS: Dict[str, dict] = {
    "offline-lp": {
        "profile": "TPC-DS",
        "demand_scale": 1.0,
        "release_spread": 1.0,
        "cells": [
            ("lp-heuristic", SINGLE, BOTH, OFFLINE_SIZES),
            ("stretch-best", SINGLE, BOTH, OFFLINE_SIZES),
            ("jahanjou", SINGLE, BOTH, OFFLINE_SIZES),
            ("lp-heuristic", FREE, BOTH, tuple(range(8, 11))),
            ("stretch-best", FREE, BOTH, tuple(range(8, 11))),
        ],
    },
    "sim-large": {
        "profile": "FB",
        "demand_scale": 1.5,
        "release_spread": 1.0,
        "cells": [
            ("sebf", SINGLE, BOTH, SIM_SIZES + (300, 600)),
            ("sebf", SINGLE, ("SWAN",), (1200,)),
            ("sincronia", SINGLE, BOTH, SIM_SIZES),
            ("fifo", SINGLE, BOTH, SIM_SIZES),
            ("weighted-sjf", SINGLE, BOTH, SIM_SIZES),
            ("terra", FREE, BOTH, (150,)),
            ("sebf", FREE, BOTH, (150,)),
        ],
    },
    "online-stream": {
        "profile": "BigBench",
        "demand_scale": 1.0,
        "release_spread": 1.0,
        "cells": [
            ("online-batch", SINGLE, BOTH, ONLINE_SIZES),
            ("online-batch-wc", SINGLE, BOTH, ONLINE_SIZES),
            ("online-resolve", SINGLE, BOTH, ONLINE_SIZES),
            ("online-wsjf", SINGLE, BOTH, ONLINE_SIZES),
            ("online-batch", FREE, BOTH, tuple(range(20, 41, 5))),
            ("online-resolve", FREE, BOTH, ONLINE_SIZES),
        ],
    },
}


def topology(name: str):
    """A fresh topology object (so no request sees another's graph caches)."""
    from repro.network.topologies import gscale_topology, swan_topology

    return {"SWAN": swan_topology, "G-Scale": gscale_topology}[name]()


def _spec(workload: str, algorithm: str, model: str, topo: str, n: int, rng) -> dict:
    seed, lambda_seed = (int(x) for x in rng.integers(2**31, size=2))
    return {
        "workload": workload,
        "algorithm": algorithm,
        "model": model,
        "topology": topo,
        "n": n,
        "seed": seed,
        "lambda_seed": lambda_seed,
    }


def make_pass(workload: str, seed: int, number: int) -> List[dict]:
    """Pass *number* (from 0) of the workload's run for *seed*, in sending order."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload), number])
    pool = [
        _spec(workload, algorithm, model, topo, n, rng)
        for algorithm, model, topologies, sizes in WORKLOADS[workload]["cells"]
        for topo, n in itertools.product(topologies, sizes)
    ]
    order = rng.permutation(len(pool))
    return [pool[i] for i in order]


def warmup_specs(workload: str, seed: int) -> List[dict]:
    """One tiny request per (algorithm, model) the workload uses."""
    rng = np.random.default_rng([seed, 99])
    pairs = sorted({(cell[0], cell[1]) for cell in WORKLOADS[workload]["cells"]})
    return [_spec(workload, algorithm, model, "SWAN", 4, rng) for algorithm, model in pairs]


def generate(spec: dict):
    """The instance *spec* describes, from the repo's workload generator."""
    from repro.workloads import WorkloadSpec, generate_instance

    params = WORKLOADS[spec["workload"]]
    workload = WorkloadSpec(
        profile=params["profile"],
        num_coflows=spec["n"],
        demand_scale=params["demand_scale"],
        release_spread=params["release_spread"],
        seed=spec["seed"],
    )
    return generate_instance(topology(spec["topology"]), workload, model=spec["model"])


def fresh_copy(instance, topology_name: str):
    """An equal instance made of new objects, on a new topology.

    Flows cache their path edges and instances their derived arrays, so a
    request sent again gets new objects and starts as cold as the first.
    """
    from repro import Coflow, CoflowInstance, Flow

    coflows = [
        Coflow(
            tuple(
                Flow(f.source, f.sink, f.demand, f.path, f.release_time, f.name)
                for f in coflow.flows
            ),
            weight=coflow.weight,
            release_time=coflow.release_time,
            name=coflow.name,
        )
        for coflow in instance.coflows
    ]
    return CoflowInstance(
        topology(topology_name), coflows, model=instance.model, name=instance.name
    )
