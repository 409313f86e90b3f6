"""The sweep fabric: worker loops, work stealing, SIGKILL recovery, chaos.

The acceptance criteria of the distributed fabric are byte-level: for
every fault schedule, the completed result set must be canonically
byte-identical to a fault-free single-process run, and a warm re-run must
perform zero new LP solves.  Every test here asserts against those two
invariants, not against "it didn't crash".
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.api import SolverConfig
from repro.experiments.sweep import InstanceSpec, SweepSpec, run_sweep
from repro.fabric import (
    BARRIER_ENV,
    ChaosInjector,
    ChaosSpec,
    LeaseManager,
    StartBarrier,
    launch_workers,
    merged_status,
    run_worker,
)
import repro.fabric.worker as worker_module
from repro.fabric.chaos import CHAOS_ENV, KILLED_EXIT_CODE
from repro.store import ResultStore, canonical_payload_bytes
from repro.utils.retry import Backoff

FAST = Backoff(retries=2, base=0.0, jitter=0.0)


def tiny_spec(**overrides) -> SweepSpec:
    defaults = dict(
        name="fabric-sweep",
        instances=tuple(
            InstanceSpec(
                topology="paper-example",
                profile="FB",
                num_coflows=2,
                model="free_path",
                seed=seed,
            )
            for seed in (1, 2)
        ),
        algorithms=("lp-heuristic", "fifo"),
        config=SolverConfig(),
        seed=7,
        num_shards=3,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def store_bytes(root) -> dict:
    """key -> canonical payload bytes for every object entry under *root*."""
    out = {}
    for path in Path(root).glob("objects/*/*.json"):
        envelope = json.loads(path.read_text())
        out[envelope["key"]] = canonical_payload_bytes(envelope["payload"])
    return out


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The fault-free single-process run every fabric run must match."""
    root = tmp_path_factory.mktemp("reference") / "store"
    result = run_sweep(tiny_spec(), ResultStore(root))
    assert result.complete
    return store_bytes(root)


# --------------------------------------------------------------------------- #
# the worker loop
# --------------------------------------------------------------------------- #
class TestRunWorker:
    def test_single_worker_completes_byte_identically(self, tmp_path, reference):
        store = ResultStore(tmp_path / "s")
        report = run_worker(
            tiny_spec(), store, worker_id="w0", backoff=FAST, poll_seconds=0.01
        )
        assert report.complete
        assert report.units_solved == len(reference)
        assert report.units_failed == 0 and report.races == 0
        assert store_bytes(store.root) == reference
        # No dangling leases after a clean finish.
        assert LeaseManager(store.root, tiny_spec().sweep_id(), "probe").active_leases() == []

    def test_warm_worker_performs_zero_solves(self, tmp_path):
        spec = tiny_spec()
        run_worker(spec, ResultStore(tmp_path / "s"), worker_id="w0", backoff=FAST)
        store = ResultStore(tmp_path / "s")  # fresh counters
        report = run_worker(spec, store, worker_id="w1", backoff=FAST)
        assert report.complete
        assert report.units_solved == 0 and report.chunks_claimed == 0
        assert store.misses == 0  # not a single unit was re-solved

    def test_merged_manifest_is_complete(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s")
        run_worker(spec, store, worker_id="w0", backoff=FAST)
        manifest = store.get_manifest(spec.sweep_id())
        assert manifest is not None
        assert set(manifest["chunks"]) == {"complete"}
        assert all(unit["status"] == "hit" for unit in manifest["units"])
        assert all(unit["objective"] is not None for unit in manifest["units"])

    def test_failure_quarantined_units_do_not_wedge_the_fleet(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s")
        # Poison one unit up front: the fabric must treat its record as
        # resolved evidence and drain the rest of the sweep.
        from repro.experiments.sweep import enumerate_units

        units = enumerate_units(spec, [i.build() for i in spec.instances])
        store.put_failure(units[0].key, {"error": "Poison", "key": units[0].key})
        report = run_worker(spec, store, worker_id="w0", backoff=FAST)
        assert not report.complete  # honest: one unit is missing
        assert report.units_solved == len(units) - 1
        assert store.get_failure(units[0].key) is not None
        status = merged_status(spec, store)
        assert status["failed"] == 1 and not status["complete"]


class TestWorkStealing:
    def test_idle_worker_steals_stragglers_chunk(self, tmp_path, reference):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s")
        # A straggler holds a live lease on chunk 0 forever (its worker
        # never solves anything and never expires within the test).
        straggler = LeaseManager(
            store.root, spec.sweep_id(), "straggler", ttl=3600.0
        )
        assert straggler.claim(0)
        report = run_worker(
            spec,
            store,
            worker_id="thief",
            ttl=3600.0,
            backoff=FAST,
            poll_seconds=0.01,
        )
        # The thief drained the whole sweep — including the leased chunk,
        # via stealing — without ever claiming chunk 0.
        assert report.complete
        assert report.steals >= 1
        assert straggler.read(0).worker == "straggler"
        assert store_bytes(store.root) == reference

    def test_stealing_can_be_disabled(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s")
        straggler = LeaseManager(
            store.root, spec.sweep_id(), "straggler", ttl=3600.0
        )
        assert straggler.claim(0)
        report = run_worker(
            spec,
            store,
            worker_id="polite",
            ttl=3600.0,
            backoff=FAST,
            steal=False,
            poll_seconds=0.01,
            max_seconds=1.0,
        )
        # Every unleased chunk drained; the straggler's chunk untouched.
        assert not report.complete
        assert report.steals == 0


# --------------------------------------------------------------------------- #
# SIGKILL mid-chunk, survivor recovery (the kill-and-resume satellite)
# --------------------------------------------------------------------------- #
def _spawn_worker(spec_path, store_root, worker_id, *, ttl, chaos=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    if chaos:
        env[CHAOS_ENV] = chaos
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "sweep",
            str(spec_path),
            "--store",
            str(store_root),
            "--worker",
            worker_id,
            "--ttl",
            str(ttl),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


class TestKillAndResume:
    def test_sigkilled_worker_is_recovered_by_survivor(self, tmp_path, reference):
        spec = tiny_spec()
        spec_path = tmp_path / "spec.json"
        spec.save_json(spec_path)
        store_root = tmp_path / "store"

        # Worker A claims a chunk, then stalls inside the solve (chaos
        # stall) — pinned mid-chunk, holding a live lease.
        proc = _spawn_worker(
            spec_path, store_root, "wA", ttl=2.0, chaos="stall-solve:seconds=120"
        )
        try:
            leases = LeaseManager(store_root, spec.sweep_id(), "probe", ttl=2.0)
            deadline = time.perf_counter() + 60.0
            while not leases.active_leases():
                if time.perf_counter() - deadline > 0:
                    pytest.fail(f"worker never claimed: {proc.communicate()[0]}")
                time.sleep(0.05)
            claimed_before = [c for c, _ in leases.active_leases()]
            # SIGKILL mid-chunk: no cleanup, no release — a dangling lease.
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == -signal.SIGKILL
        assert store_bytes(store_root) == {}  # A stored nothing

        # Worker B reclaims the expired lease and completes the sweep.
        store = ResultStore(store_root)
        report = run_worker(
            spec, store, worker_id="wB", ttl=2.0, backoff=FAST, poll_seconds=0.05
        )
        assert report.complete
        # Merged manifest complete, result set byte-identical to the
        # fault-free single-process run.
        manifest = store.get_manifest(spec.sweep_id())
        assert set(manifest["chunks"]) == {"complete"}
        assert store_bytes(store_root) == reference
        # Zero duplicated solves: every stored unit was written exactly
        # once, and no write lost a race (A died before storing anything).
        assert store.writes >= len(reference)  # objects + run archive
        assert report.units_solved == len(reference)
        assert store.races == 0
        # The reclaimed chunk is the one A was holding.
        assert claimed_before  # sanity: A really was mid-chunk


# --------------------------------------------------------------------------- #
# the chaos matrix: each fault class vs byte-identity + warm zero-solve
# --------------------------------------------------------------------------- #
def _assert_warm_rerun_is_free(spec, store_root, reference):
    store = ResultStore(store_root)  # fresh counters
    warm = run_sweep(spec, store)
    assert warm.complete
    assert warm.solved == 0 and warm.hits == len(reference)
    assert store_bytes(store_root) == reference


class TestStartBarrier:
    def test_round_trips_through_the_environment(self, tmp_path, monkeypatch):
        barrier = StartBarrier(directory=tmp_path, size=3)
        monkeypatch.setenv(BARRIER_ENV, barrier.render())
        assert StartBarrier.from_env() == barrier
        monkeypatch.delenv(BARRIER_ENV)
        assert StartBarrier.from_env() is None

    def test_last_arrival_passes_at_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker_module, "BARRIER_TIMEOUT_SECONDS", 30.0)
        (tmp_path / "w0.ready").write_text("w0")
        start = time.perf_counter()
        StartBarrier(directory=tmp_path, size=2).wait("w1")
        assert time.perf_counter() - start < 10.0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w0.ready", "w1.ready"]

    def test_missing_sibling_only_delays(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker_module, "BARRIER_TIMEOUT_SECONDS", 0.05)
        start = time.perf_counter()
        StartBarrier(directory=tmp_path, size=2).wait("w0")
        assert time.perf_counter() - start >= 0.05


class TestChaosMatrix:
    def test_kill_worker_fleet_completes(self, tmp_path, reference):
        """A worker dies after its first claim; the fleet still drains."""
        spec = tiny_spec()
        spec_path = tmp_path / "spec.json"
        spec.save_json(spec_path)
        store_root = tmp_path / "store"
        exits = launch_workers(
            spec_path,
            store_root,
            2,
            ttl=2.0,
            chaos=ChaosSpec.parse("kill-worker:after=0,worker=w0"),
            timeout=120.0,
        )
        by_id = {e.worker_id: e for e in exits}
        assert by_id["w0"].returncode == KILLED_EXIT_CODE
        assert by_id["w1"].returncode == 0, by_id["w1"].output
        assert store_bytes(store_root) == reference
        status = merged_status(spec, ResultStore(store_root))
        assert status["complete"]
        _assert_warm_rerun_is_free(spec, store_root, reference)

    def test_fail_solve_retries_then_heals(self, tmp_path, reference):
        spec = tiny_spec()
        store_root = tmp_path / "store"
        chaos = ChaosInjector(spec=ChaosSpec.parse("fail-solve:p=0.6,seed=5"))
        first = run_sweep(
            spec, ResultStore(store_root), backoff=FAST, chaos=chaos
        )
        # Deterministic injection: some units survive via retries; any
        # terminal failures are quarantined, never raised.
        assert first.solved + first.failed == len(first.units)
        # The heal pass (no chaos) retries quarantined units to completion.
        healed = run_sweep(spec, ResultStore(store_root))
        assert healed.complete
        assert store_bytes(store_root) == reference
        assert ResultStore(store_root).failure_keys() == []  # records cleared
        _assert_warm_rerun_is_free(spec, store_root, reference)

    def test_stall_heartbeat_worker_still_completes(self, tmp_path, reference):
        """Heartbeats suppressed: leases expire under the worker, results
        land anyway as first-write-wins entries."""
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        report = run_worker(
            spec,
            store,
            worker_id="w0",
            ttl=0.05,
            backoff=FAST,
            chaos=ChaosSpec.parse("stall-heartbeat:worker=w0"),
            poll_seconds=0.01,
        )
        assert report.complete
        assert store_bytes(store.root) == reference
        _assert_warm_rerun_is_free(spec, store.root, reference)

    def test_corrupt_store_is_quarantined_and_healed(self, tmp_path, reference):
        spec = tiny_spec()
        store_root = tmp_path / "store"
        chaos = ChaosInjector(spec=ChaosSpec.parse("corrupt-store:p=1.0,seed=2"))
        run_sweep(spec, ResultStore(store_root), backoff=FAST, chaos=chaos)
        # Every entry rotted at rest.  The heal pass detects the
        # corruption (counted + quarantined) and recomputes.
        heal_store = ResultStore(store_root)
        healed = run_sweep(spec, heal_store)
        assert healed.complete
        assert heal_store.corrupted == len(reference)
        assert len(heal_store.quarantined()) == len(reference)
        assert store_bytes(store_root) == reference
        _assert_warm_rerun_is_free(spec, store_root, reference)


class TestMergedStatus:
    def test_status_surfaces_workers_and_leases(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s")
        run_worker(spec, store, worker_id="w0", backoff=FAST)
        straggler = LeaseManager(store.root, spec.sweep_id(), "w9", ttl=3600.0)
        assert straggler.claim(1)
        status = merged_status(spec, store)
        assert status["complete"]
        assert "w0" in status["workers"]
        assert status["workers"]["w0"]["complete"]
        assert [lease["worker"] for lease in status["leases"]] == ["w9"]
        assert status["races"] == 0
