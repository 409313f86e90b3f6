"""The multi-worker sweep loop: claim, solve, heartbeat, steal, merge.

:func:`run_worker` is what ``repro sweep SPEC --worker ID`` executes — one
member of a fleet cooperating on a single sweep through nothing but the
shared store directory:

1. **Claim.**  The worker scans the sweep's deterministic chunk list (the
   same :func:`~repro.experiments.sweep.shard_units` layout every worker
   computes independently) for a chunk with unresolved units, and takes
   its lease through :class:`~repro.fabric.leases.LeaseManager` — fresh
   chunks by exclusive create, crashed owners' chunks by expired-lease
   reclaim.
2. **Solve.**  The chunk's missing units run through the same
   retry-disciplined executor as a single-process sweep
   (:func:`~repro.experiments.sweep._solve_unit_tasks`), heartbeating the
   lease as each unit resolves.  Results land with first-write-wins
   :meth:`~repro.store.ResultStore.put`; terminal failures become
   quarantine records.  Unit seeds are address-derived, so *which* worker
   solves a unit can never change its bytes.
3. **Steal.**  A worker that finds every unresolved chunk actively leased
   does not idle: it re-shards the *oldest* still-leased straggler chunk's
   remaining units and solves the back half tail-first, approaching the
   owner from the opposite end.  Any overlap is absorbed by content
   addressing as counted benign races — duplicated effort, never
   divergent results.
4. **Merge.**  Each worker leaves a report under
   ``<store>/sweeps/<id>/workers/``; whichever worker observes full
   coverage last writes the merged manifest, indistinguishable from the
   manifest of a single-process run.

:func:`launch_workers` is the local supervisor behind
``repro sweep --launch N``: it spawns N worker processes (propagating any
chaos spec and a :class:`StartBarrier` through the environment) and waits
for the fleet to drain.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import repro
from repro.experiments.sweep import (
    SWEEP_SCHEMA,
    SweepResult,
    SweepSpec,
    SweepUnit,
    _checkpoint_manifest,
    _solve_unit_tasks,
    _unit_config,
    enumerate_units,
    shard_units,
    sweep_status,
)
from repro.fabric.chaos import CHAOS_ENV, ChaosInjector, ChaosSpec
from repro.fabric.leases import LeaseManager
from repro.store import ResultStore
from repro.utils.io import atomic_write_json, atomic_write_text, scratch_dir
from repro.utils.retry import Backoff
from repro.utils.timing import report_stamp


@dataclass
class WorkerReport:
    """What one :func:`run_worker` invocation did."""

    worker_id: str
    chunks_claimed: int = 0
    chunks_completed: int = 0
    steals: int = 0
    units_hit: int = 0
    units_solved: int = 0
    units_failed: int = 0
    races: int = 0
    seconds: float = 0.0
    complete: bool = False  # full sweep coverage observed at exit

    def to_dict(self) -> Dict:
        return {
            "schema": SWEEP_SCHEMA,
            "worker": self.worker_id,
            "chunks_claimed": self.chunks_claimed,
            "chunks_completed": self.chunks_completed,
            "steals": self.steals,
            "units_hit": self.units_hit,
            "units_solved": self.units_solved,
            "units_failed": self.units_failed,
            "races": self.races,
            "seconds": self.seconds,
            "complete": self.complete,
            "created": report_stamp(),
        }


#: Environment variable through which :func:`launch_workers` hands its
#: children the fleet's start barrier (``SIZE:DIRECTORY``).
BARRIER_ENV = "REPRO_START_BARRIER"

#: How long a worker waits at the start barrier for missing siblings.
BARRIER_TIMEOUT_SECONDS = 60.0


@dataclass(frozen=True)
class StartBarrier:
    """Rendezvous of a supervised fleet before anyone's first claim.

    Without it the worker that finishes starting up first can drain a small
    sweep before its siblings claim anything, so what each worker does —
    and whether a chaos fault keyed to one worker fires at all — would
    depend on process start-up order.  Every worker registers a file in
    *directory* and waits until *size* workers have.  A sibling that never
    arrives (it crashed while starting) only delays the fleet by
    :data:`BARRIER_TIMEOUT_SECONDS`: the barrier is about fairness, never
    correctness.
    """

    directory: Path
    size: int

    def render(self) -> str:
        return f"{self.size}:{self.directory}"

    @classmethod
    def from_env(cls) -> Optional["StartBarrier"]:
        """The barrier carried by ``REPRO_START_BARRIER``, if any."""
        raw = os.environ.get(BARRIER_ENV)
        if not raw:
            return None
        size, _, directory = raw.partition(":")
        return cls(directory=Path(directory), size=int(size))

    def wait(self, worker_id: str) -> None:
        """Register *worker_id* and wait until the whole fleet has."""
        atomic_write_text(self.directory / f"{worker_id}.ready", worker_id)
        # A short poll: siblings that wait start claiming at most this much
        # later than the last one to arrive.
        poller = Backoff(retries=0, base=0.01, factor=1.0, jitter=0.0)
        deadline = time.perf_counter() + BARRIER_TIMEOUT_SECONDS
        while (
            len(list(self.directory.glob("*.ready"))) < self.size
            and time.perf_counter() < deadline
        ):
            poller.sleep(0)


def _resolved(store: ResultStore, unit: SweepUnit) -> bool:
    """Whether *unit* needs no further work from the fleet.

    A stored result resolves a unit; so does a recorded terminal failure —
    the fabric treats quarantined poison units as settled evidence, so one
    pathological LP never wedges the fleet in a retry loop.  (A plain
    single-process re-run still retries them: records are history there.)
    """
    return store.contains(unit.key) or store.get_failure(unit.key) is not None


def _store_results(
    store: ResultStore,
    outcomes: Sequence[Tuple[str, Optional[Dict], Optional[Dict]]],
    report: WorkerReport,
    injector: ChaosInjector,
) -> None:
    for key, payload, failure in outcomes:
        if failure is not None:
            store.put_failure(key, failure)
            report.units_failed += 1
            continue
        store.put(key, payload, kind="solve-report")
        store.clear_failure(key)
        injector.after_store(store.object_path(key), key)
        report.units_solved += 1


def _solve_units(
    spec: SweepSpec,
    instances: List,
    units: Sequence[SweepUnit],
    store: ResultStore,
    report: WorkerReport,
    injector: ChaosInjector,
    backoff: Optional[Backoff],
    on_unit,
) -> None:
    """Solve *units* (grouped by instance/ε for LP sharing) and store them."""
    groups: Dict[Tuple[int, Optional[float]], List[SweepUnit]] = {}
    for unit in units:
        groups.setdefault((unit.instance_index, unit.epsilon), []).append(unit)
    for (instance_index, epsilon), group in groups.items():
        unit_tasks = [
            (unit.key, unit.algorithm, _unit_config(spec, unit.rng_seed, epsilon))
            for unit in group
        ]
        outcomes = _solve_unit_tasks(
            instances[instance_index],
            unit_tasks,
            True,
            backoff,
            injector,
            on_unit=on_unit,
        )
        _store_results(store, outcomes, report, injector)


def _steal_target(
    leases: LeaseManager, unresolved: Sequence[int]
) -> Optional[int]:
    """The oldest still-leased straggler chunk another worker owns."""
    candidates = [
        (lease.heartbeat, chunk)
        for chunk, lease in leases.active_leases()
        if chunk in set(unresolved)
        and lease.worker != leases.worker_id
        and not leases.expired(lease)
    ]
    if not candidates:
        return None
    return min(candidates)[1]


def run_worker(
    spec: SweepSpec,
    store: ResultStore,
    *,
    worker_id: str,
    ttl: float = 30.0,
    backoff: Optional[Backoff] = None,
    chaos: Optional[ChaosSpec] = None,
    poll_seconds: float = 0.2,
    steal: bool = True,
    max_seconds: Optional[float] = None,
    barrier: Optional[StartBarrier] = None,
) -> WorkerReport:
    """Run one fleet member of *spec* against *store* until coverage.

    Returns when every unit of the sweep is resolved (stored or
    failure-quarantined), or when *max_seconds* elapses.  Safe to run any
    number of workers concurrently on one store — and safe to ``SIGKILL``
    any of them at any moment: at most the killed worker's in-flight chunk
    is re-solved by a survivor after its lease expires.  With a *barrier*
    the worker waits for its fleet before the first claim.
    """
    started = time.perf_counter()
    instances = [ispec.build() for ispec in spec.instances]
    units = enumerate_units(spec, instances)
    chunks = shard_units(units, spec.num_shards)
    sweep_id = spec.sweep_id()
    leases = LeaseManager(store.root, sweep_id, worker_id, ttl=ttl)
    injector = ChaosInjector(spec=chaos or ChaosSpec(), worker_id=worker_id)
    report = WorkerReport(worker_id=worker_id)
    poller = Backoff(retries=0, base=poll_seconds, factor=1.0, jitter=0.0)
    if barrier is not None:
        barrier.wait(worker_id)

    while True:
        unresolved = [
            index
            for index, chunk in enumerate(chunks)
            if any(not _resolved(store, unit) for unit in chunk)
        ]
        if not unresolved:
            break
        if max_seconds is not None and time.perf_counter() - started > max_seconds:
            break

        claimed: Optional[int] = None
        for index in unresolved:
            if leases.claim(index):
                claimed = index
                break
        if claimed is not None:
            report.chunks_claimed += 1
            # The kill-worker chaos hook: dying here leaves the fresh
            # lease dangling, exactly the crash the reclaim path covers.
            injector.on_claim(report.chunks_completed)
            missing = [u for u in chunks[claimed] if not _resolved(store, u)]
            report.units_hit += len(chunks[claimed]) - len(missing)

            def beat(_key: str, chunk_index: int = claimed) -> None:
                if injector.allow_heartbeat():
                    leases.heartbeat(chunk_index)

            _solve_units(
                spec, instances, missing, store, report, injector, backoff, beat
            )
            report.chunks_completed += 1
            leases.release(claimed)
            continue

        if steal:
            target = _steal_target(leases, unresolved)
            if target is not None:
                remaining = [
                    u for u in chunks[target] if not _resolved(store, u)
                ]
                # Re-shard the straggler: take the back half, tail-first,
                # so thief and owner approach from opposite ends.  Overlap
                # is a counted benign race, not a correctness hazard.
                stolen = list(reversed(remaining[len(remaining) // 2 :]))
                if stolen:
                    report.steals += 1
                    _solve_units(
                        spec,
                        instances,
                        stolen,
                        store,
                        report,
                        injector,
                        backoff,
                        None,
                    )
                    continue
        poller.sleep(0)

    report.races = store.races
    report.seconds = time.perf_counter() - started
    stored = sum(1 for unit in units if store.contains(unit.key))
    report.complete = stored == len(units)

    workers_dir = store.root / "sweeps" / sweep_id / "workers"
    atomic_write_json(workers_dir / f"{worker_id}.json", report.to_dict())

    if all(_resolved(store, unit) for unit in units):
        _write_merged_manifest(spec, store, sweep_id, units, chunks)
    return report


def _write_merged_manifest(
    spec: SweepSpec,
    store: ResultStore,
    sweep_id: str,
    units: List[SweepUnit],
    chunks: List[List[SweepUnit]],
) -> None:
    """Checkpoint the fleet's manifest exactly as a solo run would.

    Statuses and objectives are probed from the store, so the manifest is
    a pure function of coverage — every worker that writes it writes the
    same document, no matter who solved what.
    """
    result = SweepResult(
        spec=spec,
        sweep_id=sweep_id,
        units=units,
        reports={},
        chunks_total=len(chunks),
    )
    for unit in units:
        payload = store.get(unit.key)
        if payload is not None:
            unit.status = "hit"
            unit.objective = payload.get("objective")
            result.hits += 1
        else:
            unit.status = "failed"
            result.failed += 1
    chunk_states = [
        "complete" if all(store.contains(u.key) for u in chunk) else "failed"
        for chunk in chunks
    ]
    _checkpoint_manifest(store, sweep_id, spec, chunk_states, result)
    if result.complete:
        store.put_run("sweep", result.summary())


# --------------------------------------------------------------------------- #
# local supervisor
# --------------------------------------------------------------------------- #
@dataclass
class WorkerExit:
    """Terminal state of one supervised worker process."""

    worker_id: str
    returncode: int
    output: str = ""


def launch_workers(
    spec_path: str | Path,
    store_root: str | Path,
    count: int,
    *,
    ttl: float = 30.0,
    chaos: Optional[ChaosSpec] = None,
    extra_args: Sequence[str] = (),
    timeout: float = 600.0,
) -> List[WorkerExit]:
    """Spawn *count* ``repro sweep --worker`` processes and wait for all.

    Workers are named ``w0..w{count-1}``; the chaos spec (if any) travels
    through :data:`~repro.fabric.chaos.CHAOS_ENV` so per-worker fault
    filters apply inside the children, and a fresh :class:`StartBarrier`
    through :data:`BARRIER_ENV` so no worker claims before all *count* have
    started.  The supervisor never restarts a dead worker — crash recovery
    is the *surviving* workers' job (expired leases), which is exactly what
    the chaos smoke asserts.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_root) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if chaos:
        env[CHAOS_ENV] = chaos.render()
    with scratch_dir(prefix="repro-barrier-") as barrier_dir:
        env[BARRIER_ENV] = StartBarrier(directory=barrier_dir, size=count).render()
        procs = []
        for index in range(count):
            command = [
                sys.executable,
                "-m",
                "repro",
                "sweep",
                str(spec_path),
                "--store",
                str(store_root),
                "--worker",
                f"w{index}",
                "--ttl",
                str(ttl),
                *extra_args,
            ]
            procs.append(
                subprocess.Popen(
                    command,
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                )
            )
        exits: List[WorkerExit] = []
        for index, proc in enumerate(procs):
            try:
                out, _ = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            exits.append(
                WorkerExit(
                    worker_id=f"w{index}",
                    returncode=proc.returncode,
                    output=out or "",
                )
            )
    return exits


def merged_status(spec: SweepSpec, store: ResultStore) -> Dict:
    """Fleet-wide view: store coverage plus leases and worker reports."""
    status = sweep_status(spec, store)
    sweep_id = spec.sweep_id()
    probe = LeaseManager(store.root, sweep_id, "status-probe")
    status["leases"] = [
        {
            "chunk": chunk,
            "worker": lease.worker,
            "generation": lease.generation,
            "expired": probe.expired(lease),
        }
        for chunk, lease in probe.active_leases()
    ]
    workers: Dict[str, Dict] = {}
    workers_dir = store.root / "sweeps" / sweep_id / "workers"
    if workers_dir.is_dir():
        for path in sorted(workers_dir.glob("*.json")):
            try:
                workers[path.stem] = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
    status["workers"] = workers
    status["races"] = sum(
        int(entry.get("races", 0)) for entry in workers.values()
    )
    return status
