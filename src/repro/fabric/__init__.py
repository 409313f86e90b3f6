"""Distributed sweep fabric: leases, workers, fault injection.

Multiple worker processes cooperate on one sweep through nothing but the
shared result-store directory — no daemon, no queue, no lock server:

* :mod:`repro.fabric.leases` — the atomic chunk-claim protocol (exclusive
  creates, heartbeat TTLs, deterministic reclaim arbitration);
* :mod:`repro.fabric.worker` — the claim/solve/steal worker loop
  (``repro sweep --worker``), the local fleet supervisor
  (``repro sweep --launch N``), and merged fleet status;
* :mod:`repro.fabric.chaos` — deterministic fault injection
  (``repro sweep --chaos SPEC``) used to *prove* the recovery paths.

The fabric's contract inherits the sweep orchestrator's: unit bytes are a
function of unit addresses alone, so any worker layout, crash schedule or
steal pattern yields a result set byte-identical to a single-process run.
"""

from repro.fabric.chaos import (
    CHAOS_ENV,
    ChaosFault,
    ChaosInjector,
    ChaosSpec,
    KILLED_EXIT_CODE,
)
from repro.fabric.leases import Lease, LeaseManager, arbitrate
from repro.fabric.worker import (
    BARRIER_ENV,
    StartBarrier,
    WorkerExit,
    WorkerReport,
    launch_workers,
    merged_status,
    run_worker,
)

__all__ = [
    "BARRIER_ENV",
    "CHAOS_ENV",
    "KILLED_EXIT_CODE",
    "ChaosFault",
    "ChaosInjector",
    "ChaosSpec",
    "Lease",
    "LeaseManager",
    "StartBarrier",
    "arbitrate",
    "WorkerExit",
    "WorkerReport",
    "launch_workers",
    "merged_status",
    "run_worker",
]
