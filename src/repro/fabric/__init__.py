"""Fault-tolerant distributed campaign fabric.

A coordinator/worker split for scaling campaigns beyond one machine
with robustness as the design center: an asyncio HTTP coordinator
(:mod:`~repro.fabric.coordinator`) leases ``DesignSpec x workload``
cells to thin worker clients (:mod:`~repro.fabric.worker`), reclaims
leases whose heartbeats stop, re-issues them with the supervisor's
deterministic backoff, quarantines cells that fail on N distinct
workers, and merges completions on arrival into the same fsync'd
clean-prefix campaign JSONL that ``repro campaign --resume`` and the
observatory RunStore already understand.

The lease bookkeeping is the same pure, I/O-free
:class:`~repro.resilience.supervisor.LeaseTable` the local supervised
pool runs on, under the same
:class:`~repro.resilience.supervisor.Supervision` policy (its
``timeout_s`` is the lease length a heartbeat renews), so its
determinism (same seed -> same re-lease ordering, across coordinator
restarts) is directly testable.  Workers
share the content-addressed result/trace caches through pluggable byte
stores (a local directory, or the coordinator's HTTP cache endpoints in
:mod:`~repro.fabric.cachebackend`).
"""

from ..resilience.checkpoint import LocalDirBackend
from .cachebackend import BackendResultCache, HTTPCacheBackend
from .coordinator import CoordinatorThread, FabricCoordinator, wire_cell
from .worker import FabricClient, FabricUnreachable, run_worker

__all__ = [
    "BackendResultCache",
    "CoordinatorThread",
    "FabricClient",
    "FabricCoordinator",
    "FabricUnreachable",
    "HTTPCacheBackend",
    "LocalDirBackend",
    "run_worker",
    "wire_cell",
]
