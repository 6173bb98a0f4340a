"""Resilient campaign runtime: survive crashes, hangs, and bad disks.

PR 3's sanitizer gave the simulator *detection*; this package gives
campaigns *survival*:

* :mod:`~repro.resilience.supervisor` — the one cell lifecycle
  (:class:`~repro.resilience.supervisor.LeaseTable` under one
  :class:`~repro.resilience.supervisor.Supervision` policy: leases,
  bounded retries with deterministic backoff, quarantine of
  persistently failing cells), shared by the fabric coordinator and
  the supervised worker pool (per-cell timeouts, dead-worker respawn);
* :mod:`~repro.resilience.checkpoint` — fsync'd JSONL appends, torn-
  tail recovery, and write-failure absorption for crash-safe
  checkpoint/resume;
* :mod:`~repro.resilience.faults` — deterministic fault injection
  (worker crashes/hangs, checkpoint ENOSPC/EIO, on-disk corruption,
  and network faults for the distributed fabric);
* :mod:`~repro.resilience.chaos` — the seeded scenario harness behind
  ``repro chaos`` that proves all of the above, and the fabric fleet,
  end to end (not imported here: it depends on :mod:`repro.analysis`
  and :mod:`repro.fabric`).
"""

from .checkpoint import (
    CheckpointWriter,
    FileLock,
    atomic_write_bytes,
    fsync_dir,
    recover_jsonl,
)
from .faults import (
    CHAOS_ENV,
    CRASH_EXIT,
    FaultInjector,
    FaultSpec,
    corrupt_file,
    corrupt_tree,
)
from .supervisor import (
    FLEET_POLICY,
    CellFailure,
    LeaseTable,
    Supervision,
    backoff_delay,
    run_supervised,
)

__all__ = [
    "CheckpointWriter",
    "FileLock",
    "atomic_write_bytes",
    "fsync_dir",
    "recover_jsonl",
    "CHAOS_ENV",
    "CRASH_EXIT",
    "FaultInjector",
    "FaultSpec",
    "corrupt_file",
    "corrupt_tree",
    "FLEET_POLICY",
    "CellFailure",
    "LeaseTable",
    "Supervision",
    "backoff_delay",
    "run_supervised",
]
