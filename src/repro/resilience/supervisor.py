"""One cell lifecycle (the lease table) and the supervised pool on it.

The local supervised pool (:func:`run_supervised`) and the fabric
coordinator (:mod:`repro.fabric.coordinator`) share one policy,
:class:`Supervision`, and one lifecycle, :class:`LeaseTable`::

    pending --lease()--> leased --complete()--> done
       ^                   |
       |                   +-- fail() / reclaim_expired() --+
       |                                                    |
       +-- (heappush at now + backoff) <-- attempts left ---+
                                                 |
                          quarantined <-- budget exhausted -+

Quarantine fires on either budget: ``max_attempts`` total failures, or
failures on ``quarantine_workers`` *distinct* workers — the fleet-wide
"this cell is poison, stop feeding it to healthy machines" signal.
The table is pure and I/O-free: everything time-dependent takes
``now`` and every delay derives from the policy seed, so a restarted
coordinator rebuilding its table from the same campaign file re-issues
the remaining cells in the same order with the same retry spacing
(pinned by ``tests/test_fabric.py``).

``concurrent.futures`` offers no way to kill a wedged worker without
tearing down the whole pool, so large campaigns inherit the weakest
worker's failure mode: one hang or crash sinks hours of finished work.
:func:`run_supervised` supervises each cell individually:

* every attempt runs in a worker **process** under a lease that is
  never renewed, i.e. an optional per-cell wall-clock timeout — a
  wedged worker is killed and respawned, never waited on forever;
* a worker that dies (crash, OOM-kill, injected fault) is detected by
  process liveness, respawned, and its cell retried;
* retries are bounded (:attr:`Supervision.max_attempts`) with
  exponential backoff and **deterministic** jitter
  (:func:`backoff_delay` hashes the cell key, so two runs of the same
  campaign space their retries identically);
* a cell that exhausts its attempts is **quarantined** — reported with
  its full failure history and skipped, in the same skip-and-report
  spirit as :mod:`repro.analysis.validation` — so one poisoned cell can
  never abort a campaign.

Workers are long-lived (one task loop per process, warm
per-process harness state, exactly like the plain pool behind
:func:`repro.exec.backends.run_cells`) and communicate over per-worker
queues, so the supervisor always knows which cell a worker holds and a
killed worker's possibly-torn queue is discarded with it.  Workers
orphaned by a SIGKILL'd supervisor die with it (``PR_SET_PDEATHSIG``
on Linux) or notice the parent change and exit on their own.  Chaos
faults (:mod:`repro.resilience.faults`) are installed in the child
from ``$REPRO_CHAOS``, never in the supervisor.
"""

from __future__ import annotations

import ctypes
import hashlib
import heapq
import multiprocessing
import os
import queue
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from . import faults


@dataclass(frozen=True)
class Supervision:
    """Lease/retry/quarantine policy of one supervised run or fleet.

    Args:
        timeout_s: Lease length: how long one attempt may hold a cell.
            A fleet worker's heartbeat renews the lease and silence
            past it reclaims the cell; the local supervisor never
            renews it, so there it is a per-cell wall-clock timeout.
            None means no deadline (crashes are still detected).
        max_attempts: Total failures (of any kind) a cell may accrue
            before quarantine (>= 1).
        quarantine_workers: Distinct workers that must fail a cell to
            quarantine it regardless of remaining attempts.  A fleet
            signal only: every local slot leases under one identity.
        backoff_base_s: First retry delay before jitter.
        backoff_cap_s: Upper bound on any retry delay.
        seed: Root of the deterministic jitter.
    """

    timeout_s: float | None = None
    max_attempts: int = 3
    quarantine_workers: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    seed: int = 0


#: The fabric fleet's policy (``repro fabric serve`` defaults): 30 s
#: leases, 4 attempts, quarantine after 2 distinct workers fail a cell.
FLEET_POLICY = Supervision(timeout_s=30.0, max_attempts=4,
                           backoff_cap_s=5.0)


@dataclass
class CellFailure:
    """The failure history of one quarantined cell.

    Attributes:
        key: The cell's task key.
        attempts: One human-readable reason per failed attempt, in
            order ("timeout after 2.0s", "worker died (exit 87)",
            "ValueError: ...").
    """

    key: str
    attempts: list[str]


def backoff_delay(key: str, attempt: int, base_s: float, cap_s: float,
                  seed: int) -> float:
    """Deterministic exponential backoff with hashed jitter.

    ``base_s * 2^attempt`` scaled by a jitter factor in ``[0.5, 1.5)``
    derived from ``sha256(seed, key, attempt)``, capped at ``cap_s`` —
    the classic decorrelated-retry shape, but reproducible run to run.
    """
    digest = hashlib.sha256(f"{seed}:{key}:{attempt}".encode()).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2 ** 64
    return min(base_s * (2 ** attempt) * jitter, cap_s)


@dataclass
class Lease:
    """One outstanding lease of one cell to one worker."""

    lease_id: str
    index: int
    worker: str
    attempt: int
    deadline: float | None


@dataclass
class CellState:
    """The table's view of one cell."""

    index: int
    key: str
    attempt: int = 0
    failures: list[str] = field(default_factory=list)
    failed_workers: set[str] = field(default_factory=set)
    status: str = "pending"      # pending | leased | done | quarantined


class LeaseTable:
    """Lease bookkeeping over an indexed list of cells.

    Args:
        keys: Cell keys in deterministic cell order (design-major, the
            order the campaign file emits).
        policy: Lease/retry/quarantine policy.

    Attributes:
        cells: Per-cell state, indexed by position in ``keys``.
        duplicates: Completions received for already-done (or unknown)
            cells — the reclaimed-cell-finishes-twice count.
        reclaimed: Leases taken back after their deadline passed.
    """

    def __init__(self, keys: list[str], policy: Supervision) -> None:
        self.policy = policy
        self.cells = [CellState(index=i, key=key)
                      for i, key in enumerate(keys)]
        self.duplicates = 0
        self.reclaimed = 0
        self._by_key = {cell.key: cell for cell in self.cells}
        self._leases: dict[str, Lease] = {}
        # (ready_at, index) min-heap: index breaks ties, so equal-ready
        # cells lease in deterministic cell order.
        self._ready: list[tuple[float, int]] = [
            (0.0, cell.index) for cell in self.cells]
        heapq.heapify(self._ready)

    def _deadline(self, now: float) -> float | None:
        timeout = self.policy.timeout_s
        return None if timeout is None else now + timeout

    # ---- issue ----------------------------------------------------------

    def lease(self, worker: str, now: float) -> Lease | None:
        """Issue the next ready cell to ``worker``, or None.

        Expired leases are reclaimed first, so a single slow poller
        still drives the whole reclaim cycle.  None means either
        nothing is pending (check :attr:`done`) or every pending cell
        is still serving its backoff delay (check
        :meth:`next_ready_at`).
        """
        self.reclaim_expired(now)
        while self._ready and self._ready[0][0] <= now:
            _, index = heapq.heappop(self._ready)
            cell = self.cells[index]
            if cell.status != "pending":
                continue
            cell.status = "leased"
            lease = Lease(lease_id=f"{cell.key}#a{cell.attempt}",
                          index=index, worker=worker,
                          attempt=cell.attempt,
                          deadline=self._deadline(now))
            cell.attempt += 1
            self._leases[lease.lease_id] = lease
            return lease
        return None

    def extend(self, keys: "list[str]") -> None:
        """Append new pending cells to the table (adaptive batches).

        The explorer's hosted fleet discovers its cells as the search
        narrows; appended cells take the next indices so the emission
        order stays the order of arrival — deterministic, because the
        search itself is.  Keys already tracked are ignored.
        """
        for key in keys:
            if key in self._by_key:
                continue
            cell = CellState(index=len(self.cells), key=key)
            self.cells.append(cell)
            self._by_key[key] = cell
            heapq.heappush(self._ready, (0.0, cell.index))

    def heartbeat(self, lease_id: str, now: float) -> bool:
        """Renew a live lease's deadline; False when it is unknown
        (expired and reclaimed — the worker should abandon the cell)."""
        lease = self._leases.get(lease_id)
        if lease is None:
            return False
        lease.deadline = self._deadline(now)
        return True

    # ---- resolve --------------------------------------------------------

    def complete(self, key: str, lease_id: str, now: float) -> str:
        """Record a completion; ``"ok"`` or ``"duplicate"``.

        Tolerant by design: an expired or unknown lease id does not
        reject the result (the work is done and correct — merge on
        arrival), and a second completion of a done cell is counted as
        a duplicate, not an error.  Unknown keys (a worker from a
        previous epoch) also count as duplicates so the caller can drop
        the payload.
        """
        cell = self._by_key.get(key)
        self._leases.pop(lease_id, None)
        if cell is None or cell.status in ("done", "quarantined"):
            self.duplicates += 1
            return "duplicate"
        cell.status = "done"
        return "ok"

    def fail(self, key: str, lease_id: str, worker: str, reason: str,
             now: float) -> str:
        """Record a failed attempt; the cell's resulting status."""
        self._leases.pop(lease_id, None)
        cell = self._by_key.get(key)
        if cell is None or cell.status in ("done", "quarantined"):
            return "ignored" if cell is None else cell.status
        return self._record_failure(cell, worker, reason, now)

    def _record_failure(self, cell: CellState, worker: str,
                        reason: str, now: float) -> str:
        cell.failures.append(reason)
        cell.failed_workers.add(worker)
        if (len(cell.failed_workers) >= self.policy.quarantine_workers
                or len(cell.failures) >= self.policy.max_attempts):
            cell.status = "quarantined"
            return "quarantined"
        cell.status = "pending"
        policy = self.policy
        delay = backoff_delay(cell.key, len(cell.failures) - 1,
                              policy.backoff_base_s, policy.backoff_cap_s,
                              policy.seed)
        heapq.heappush(self._ready, (now + delay, cell.index))
        return "pending"

    def reclaim_expired(self, now: float) -> int:
        """Fail every lease whose deadline passed; returns the count.

        Iterates in sorted lease-id order so two coordinators replaying
        the same history reclaim in the same order.
        """
        expired = sorted(lease_id
                         for lease_id, lease in self._leases.items()
                         if lease.deadline is not None
                         and lease.deadline <= now)
        for lease_id in expired:
            lease = self._leases.pop(lease_id)
            cell = self.cells[lease.index]
            if cell.status != "leased":
                continue
            self.reclaimed += 1
            self._record_failure(
                cell, lease.worker,
                f"lease expired after {self.policy.timeout_s:g}s on "
                f"{lease.worker}", now)
        return len(expired)

    # ---- queries --------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when no cell can make further progress."""
        return all(cell.status in ("done", "quarantined")
                   for cell in self.cells)

    def next_ready_at(self) -> float | None:
        """When the earliest backoff-delayed cell becomes leasable."""
        while self._ready and \
                self.cells[self._ready[0][1]].status != "pending":
            heapq.heappop(self._ready)
        return self._ready[0][0] if self._ready else None

    def counts(self) -> dict[str, int]:
        """Cells per status plus the duplicate/reclaim counters."""
        out = {"pending": 0, "leased": 0, "done": 0, "quarantined": 0}
        for cell in self.cells:
            out[cell.status] += 1
        out["duplicates"] = self.duplicates
        out["reclaimed"] = self.reclaimed
        return out


#: ``prctl`` option: the signal a process gets when its parent dies.
_PR_SET_PDEATHSIG = 1


def _child_main(worker: Callable[[Any], Any], task_q, result_q,
                parent: int) -> None:
    """Worker loop: pull (key, payload, attempt) tasks, push results.

    Installs chaos faults from the environment, keeps module-level
    caches warm across tasks, and exits when handed ``None`` or when
    its parent (pid ``parent``) disappears: on Linux the kernel
    SIGKILLs it, elsewhere it notices at its next queue timeout.
    """
    if sys.platform.startswith("linux"):
        # SIGKILL, not SIGTERM: a forked worker inherits run_campaign's
        # SIGTERM handler, whose KeyboardInterrupt this loop would
        # report as a cell error.  Should prctl fail, the ppid checks
        # below and at each queue timeout still catch an orphaning.
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        return  # the parent died before the death signal was armed
    faults.install_from_env()
    while True:
        try:
            item = task_q.get(timeout=1.0)
        except queue.Empty:
            if os.getppid() != parent:
                return
            continue
        if item is None:
            return
        key, payload, attempt = item
        try:
            injector = faults.active()
            if injector is not None:
                injector.on_task(key, attempt)
            result = worker(payload)
        except BaseException as exc:  # report, never kill the loop
            result_q.put(("error", key, attempt,
                          f"{type(exc).__name__}: {exc}"))
        else:
            result_q.put(("ok", key, attempt, result))


class _Slot:
    """One supervised worker process and its private queues."""

    def __init__(self, ctx, worker: Callable[[Any], Any]) -> None:
        self.task_q = ctx.Queue()
        self.result_q = ctx.Queue()
        self.proc = ctx.Process(target=_child_main,
                                args=(worker, self.task_q, self.result_q,
                                      os.getpid()),
                                daemon=True)
        self.proc.start()
        #: The lease this worker holds.
        self.busy: Lease | None = None

    def kill(self) -> None:
        """Terminate (then kill) the process; tolerates the already-dead."""
        try:
            self.proc.terminate()
            self.proc.join(0.5)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(0.5)
        except (OSError, ValueError):
            pass


def _context():
    """Fork where available (cheap, inherits warm state), else default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


#: The one worker identity every local slot leases under: slots are
#: respawnable processes on one machine, not distinct failure domains.
_LOCAL = "local"


def run_supervised(
        worker: Callable[[Any], Any],
        tasks: Sequence[tuple[str, Any]],
        jobs: int = 1,
        policy: Supervision | None = None,
        on_complete: "Callable[[str, Any], None] | None" = None,
        on_quarantine: "Callable[[str, CellFailure], None] | None" = None,
        tick_s: float = 0.02,
) -> tuple[dict[str, Any], dict[str, CellFailure]]:
    """Run every task under supervision; never raises for a bad cell.

    Args:
        worker: Called in a child process with each task's payload.
        tasks: ``(key, payload)`` pairs; keys must be unique strings
            (they name cells in failure reports and fault matching).
        jobs: Worker processes (floored at 1, capped at ``len(tasks)``).
        policy: Timeout/retry policy (default :class:`Supervision`).
        on_complete: Invoked in the supervisor, in completion order,
            as each cell resolves — the campaign's incremental
            checkpoint hook.
        on_quarantine: Invoked when a cell exhausts its attempts.
        tick_s: Supervisor poll interval while idle.

    Returns:
        ``(results, quarantined)``: resolved cell results by key, and
        the failure history of every quarantined cell.
    """
    policy = policy or Supervision()
    results: dict[str, Any] = {}
    quarantined: dict[str, CellFailure] = {}
    if not tasks:
        return results, quarantined
    ctx = _context()
    payloads = dict(tasks)
    table = LeaseTable([key for key, _ in tasks], policy)
    # A worker's death signal fires when the *thread* that started it
    # exits, so slots are created and replaced on this thread only.
    slots = [_Slot(ctx, worker)
             for _ in range(max(1, min(jobs, len(tasks))))]

    def resolve(lease: Lease, now: float, ok: bool, data: Any) -> None:
        """Report an attempt's result (``ok``) or failure reason."""
        key = table.cells[lease.index].key
        if ok:
            if table.complete(key, lease.lease_id, now) == "ok":
                results[key] = data
                if on_complete is not None:
                    on_complete(key, data)
        elif table.fail(key, lease.lease_id, _LOCAL, data,
                        now) == "quarantined":
            failure = CellFailure(
                key=key, attempts=list(table.cells[lease.index].failures))
            quarantined[key] = failure
            if on_quarantine is not None:
                on_quarantine(key, failure)

    def resolve_message(slot: _Slot, message: tuple, now: float) -> None:
        kind, key, attempt, data = message
        lease = slot.busy
        if lease is None or table.cells[lease.index].key != key \
                or lease.attempt != attempt:
            return  # stale echo from a superseded attempt
        slot.busy = None
        resolve(lease, now, kind == "ok", data)

    try:
        while len(results) + len(quarantined) < len(tasks):
            # One clock reading per round.  Overdue leases are failed as
            # timeouts (and their slots killed) here, before lease()
            # could reclaim them as merely expired.
            now = time.monotonic()
            progress = False
            for index, slot in enumerate(slots):
                lease = slot.busy
                if lease is None:
                    continue
                try:
                    message = slot.result_q.get_nowait()
                except queue.Empty:
                    pass
                else:
                    progress = True
                    resolve_message(slot, message, now)
                    continue
                if not slot.proc.is_alive():
                    # Drain once more: the result may have landed just
                    # before the process exited.
                    try:
                        message = slot.result_q.get_nowait()
                    except queue.Empty:
                        resolve(lease, now, False,
                                f"worker died (exit {slot.proc.exitcode})")
                    else:
                        resolve_message(slot, message, now)
                    slots[index] = _Slot(ctx, worker)
                    progress = True
                elif lease.deadline is not None and now >= lease.deadline:
                    slot.kill()
                    resolve(lease, now, False,
                            f"timeout after {policy.timeout_s:g}s")
                    slots[index] = _Slot(ctx, worker)
                    progress = True
            if progress:
                continue  # lease on a fresh clock: kills take a while
            for slot in slots:
                if slot.busy is not None:
                    continue
                lease = table.lease(_LOCAL, now)
                if lease is None:
                    break
                slot.busy = lease
                key = table.cells[lease.index].key
                slot.task_q.put((key, payloads[key], lease.attempt))
            pause = tick_s
            if all(slot.busy is None for slot in slots):
                # Everything outstanding is backing off: sleep to the
                # earliest retry rather than spinning.
                ready_at = table.next_ready_at()
                if ready_at is not None:
                    pause = min(max(ready_at - time.monotonic(), 0.0),
                                0.25) or tick_s
            time.sleep(pause)
    finally:
        for slot in slots:
            if slot.busy is None and slot.proc.is_alive():
                try:
                    slot.task_q.put(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + 1.0
        for slot in slots:
            slot.proc.join(max(deadline - time.monotonic(), 0.0))
            if slot.proc.is_alive():
                slot.kill()
    return results, quarantined
