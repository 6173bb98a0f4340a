"""A supervised worker pool: timeouts, retries, backoff, quarantine.

``concurrent.futures`` offers no way to kill a wedged worker without
tearing down the whole pool, so large campaigns inherit the weakest
worker's failure mode: one hang or crash sinks hours of finished work.
This module supervises each cell individually:

* every attempt runs in a worker **process** with an optional per-cell
  wall-clock timeout — a wedged worker is killed and respawned, never
  waited on forever;
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
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from . import faults


@dataclass(frozen=True)
class Supervision:
    """Retry/timeout policy of one supervised run.

    Args:
        timeout_s: Per-cell wall-clock limit; None disables timeouts
            (crashes are still detected).
        max_attempts: Attempts per cell before quarantine (>= 1).
        backoff_base_s: First retry delay before jitter.
        backoff_cap_s: Upper bound on any retry delay.
        seed: Root of the deterministic jitter.
    """

    timeout_s: float | None = None
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    seed: int = 0


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


def backoff_delay(policy: Supervision, key: str, attempt: int) -> float:
    """Deterministic exponential backoff with hashed jitter.

    ``base * 2^attempt`` scaled by a jitter factor in ``[0.5, 1.5)``
    derived from ``sha256(seed, key, attempt)``, capped at
    ``backoff_cap_s`` — the classic decorrelated-retry shape, but
    reproducible run to run.
    """
    digest = hashlib.sha256(
        f"{policy.seed}:{key}:{attempt}".encode()).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2 ** 64
    return min(policy.backoff_base_s * (2 ** attempt) * jitter,
               policy.backoff_cap_s)


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
        #: The (key, payload, attempt, deadline) this worker holds.
        self.busy: tuple[str, Any, int, float | None] | None = None

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
    ready: deque = deque((key, payload, 0) for key, payload in tasks)
    delayed: list = []  # (ready_at, tiebreak, key, payload, attempt)
    failures: dict[str, list[str]] = {}
    tiebreak = 0
    total = len(tasks)
    # A worker's death signal fires when the *thread* that started it
    # exits, so slots are created and replaced on this thread only.
    slots = [_Slot(ctx, worker)
             for _ in range(max(1, min(jobs, total)))]

    def resolve_failure(key: str, payload: Any, attempt: int,
                        reason: str) -> None:
        nonlocal tiebreak
        failures.setdefault(key, []).append(reason)
        if attempt + 1 >= policy.max_attempts:
            failure = CellFailure(key=key, attempts=failures[key])
            quarantined[key] = failure
            if on_quarantine is not None:
                on_quarantine(key, failure)
        else:
            tiebreak += 1
            ready_at = time.monotonic() + backoff_delay(policy, key,
                                                        attempt)
            heapq.heappush(delayed, (ready_at, tiebreak, key, payload,
                                     attempt + 1))

    def resolve_message(slot: _Slot, message: tuple) -> None:
        kind, key, attempt, data = message
        if slot.busy is None or slot.busy[0] != key \
                or slot.busy[2] != attempt:
            return  # stale echo from a superseded attempt
        payload = slot.busy[1]
        slot.busy = None
        if key in results or key in quarantined:
            return
        if kind == "ok":
            results[key] = data
            if on_complete is not None:
                on_complete(key, data)
        else:
            resolve_failure(key, payload, attempt, data)

    try:
        while len(results) + len(quarantined) < total:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, _, key, payload, attempt = heapq.heappop(delayed)
                if key not in results and key not in quarantined:
                    ready.append((key, payload, attempt))
            for slot in slots:
                while slot.busy is None and ready:
                    key, payload, attempt = ready.popleft()
                    if key in results or key in quarantined:
                        continue
                    deadline = (now + policy.timeout_s
                                if policy.timeout_s is not None else None)
                    slot.busy = (key, payload, attempt, deadline)
                    slot.task_q.put((key, payload, attempt))
            progress = False
            for index, slot in enumerate(slots):
                if slot.busy is None:
                    continue
                try:
                    message = slot.result_q.get_nowait()
                except queue.Empty:
                    pass
                else:
                    progress = True
                    resolve_message(slot, message)
                    continue
                key, payload, attempt, deadline = slot.busy
                if not slot.proc.is_alive():
                    # Drain once more: the result may have landed just
                    # before the process exited.
                    try:
                        message = slot.result_q.get_nowait()
                    except queue.Empty:
                        reason = (f"worker died "
                                  f"(exit {slot.proc.exitcode})")
                        resolve_failure(key, payload, attempt, reason)
                    else:
                        resolve_message(slot, message)
                    slots[index] = _Slot(ctx, worker)
                    progress = True
                elif deadline is not None and now >= deadline:
                    slot.kill()
                    resolve_failure(
                        key, payload, attempt,
                        f"timeout after {policy.timeout_s:g}s")
                    slots[index] = _Slot(ctx, worker)
                    progress = True
            if not progress:
                if delayed and not ready \
                        and all(s.busy is None for s in slots):
                    # Everything outstanding is backing off: sleep to
                    # the earliest retry rather than spinning.
                    pause = max(delayed[0][0] - time.monotonic(), 0.0)
                    time.sleep(min(pause, 0.25) or tick_s)
                else:
                    time.sleep(tick_s)
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
