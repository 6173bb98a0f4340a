"""Deterministic fault injection for the chaos harness.

Every fault decision is a pure function of ``(seed, kind, key, salt)``
through a SHA-256 roll — the same derive-a-stream-from-a-hash
discipline :func:`repro.traces.synthetic.derive_seed` and the
differential harness use — so a chaos run is exactly reproducible:
rerunning with the same seed injects the same crashes into the same
cells on the same attempts, and a retried attempt re-rolls (the salt is
the attempt number), which is what lets a supervised campaign *recover*
from injected faults instead of hitting them forever.

Fault kinds:

* ``crash`` — the worker process dies mid-cell (``os._exit``), the
  moral equivalent of a SIGKILL'd or OOM-killed worker;
* ``hang`` — the worker sleeps ``hang_s`` seconds before working, so a
  per-cell timeout must fire for the campaign to make progress;
* ``checkpoint`` — checkpoint appends raise ``ENOSPC``/``EIO``, the
  disk-full / flaky-disk case the
  :class:`~repro.resilience.checkpoint.CheckpointWriter` absorbs;
* ``net_*`` / ``partition_n`` — HTTP-layer faults evaluated by the
  fabric coordinator's server loop via :meth:`FaultInjector.on_http`:
  connections dropped before any response, responses delayed, 5xx
  errors, mid-body disconnects, and a deterministic network partition
  (the first N matching requests dropped outright, then healed).

Crash and hang faults only ever trigger inside supervised worker
processes (the supervisor's child loop calls
:meth:`FaultInjector.on_task`); the parent process is never crashed.
Workers pick their injector up from the ``$REPRO_CHAOS`` environment
variable (a JSON :class:`FaultSpec`), which they inherit at fork time;
checkpoint faults come from the injector explicitly installed in the
current process via :func:`install`.

On-disk corruption (result-cache / trace-cache entries) is not
injected at write time — the chaos harness corrupts the stored bytes
directly with :func:`corrupt_file` / :func:`corrupt_tree`, which is
what real bit-rot looks like to the self-healing readers.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

#: Environment variable carrying a JSON :class:`FaultSpec` to workers.
CHAOS_ENV = "REPRO_CHAOS"

#: Exit code of a chaos-crashed worker (distinguishable from signals).
CRASH_EXIT = 87


@dataclass(frozen=True)
class FaultSpec:
    """One chaos configuration: which faults fire, how often, where.

    Rates are probabilities in ``[0, 1]`` evaluated by deterministic
    hash rolls; ``1.0`` means "always" and keeps the run exactly
    reproducible.

    Args:
        seed: Root of every fault decision.
        crash: Worker-crash rate per (cell, attempt).
        hang: Worker-hang rate per (cell, attempt).
        hang_s: Sleep length of an injected hang.
        checkpoint: ENOSPC/EIO rate per checkpoint write attempt.
        match: Substring filter on fault keys (``""`` matches all) —
            e.g. ``"Banshee::mcf"`` targets one campaign cell, ``"w1"``
            one fabric worker's HTTP exchanges.
        once: When True, crash/hang faults fire on attempt 0 only, so
            every injected failure is recoverable by a single retry.
        net_drop: Rate of HTTP connections closed before any response.
        net_delay: Rate of HTTP responses delayed by ``net_delay_s``.
        net_delay_s: Length of an injected response delay.
        net_error: Rate of HTTP exchanges answered with a 500.
        net_disconnect: Rate of HTTP responses cut mid-body (headers
            plus a truncated payload, then close).
        partition_n: Drop the first N matching HTTP requests outright,
            then heal — a deterministic stand-in for a network
            partition that ends (no wall-clock in the decision).
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    hang_s: float = 30.0
    checkpoint: float = 0.0
    match: str = ""
    once: bool = False
    net_drop: float = 0.0
    net_delay: float = 0.0
    net_delay_s: float = 0.25
    net_error: float = 0.0
    net_disconnect: float = 0.0
    partition_n: int = 0

    def to_env(self) -> str:
        """The JSON form carried by ``$REPRO_CHAOS``."""
        return json.dumps(dataclasses.asdict(self))

    @classmethod
    def from_env(cls, text: str) -> "FaultSpec":
        """Parse the JSON form produced by :meth:`to_env`."""
        return cls(**json.loads(text))


class FaultInjector:
    """Evaluates a :class:`FaultSpec` with deterministic hash rolls.

    Attributes:
        spec: The active configuration.
        counters: Faults actually fired, by kind.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.counters: dict[str, int] = {
            "crash": 0, "hang": 0, "checkpoint": 0,
            "net_drop": 0, "net_delay": 0, "net_error": 0,
            "net_disconnect": 0, "partition": 0}
        self._partition_left = spec.partition_n

    def _roll(self, kind: str, key: str, salt: object) -> float:
        digest = hashlib.sha256(
            f"{self.spec.seed}:{kind}:{key}:{salt}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64

    def _fires(self, kind: str, rate: float, key: str,
               attempt: int) -> bool:
        if rate <= 0.0:
            return False
        if self.spec.match and self.spec.match not in key:
            return False
        if self.spec.once and attempt > 0:
            return False
        return self._roll(kind, key, attempt) < rate

    def on_task(self, key: str, attempt: int) -> None:
        """Worker-side hook: maybe hang, then maybe crash.

        Called by the supervisor's child loop before each cell attempt;
        never call this in a process you are not prepared to lose.  A
        hang sleeps in slices of at most 0.5 s and returns early once
        the worker's parent changes (the supervisor died).
        """
        if self._fires("hang", self.spec.hang, key, attempt):
            self.counters["hang"] += 1
            parent = os.getppid()
            end = time.monotonic() + self.spec.hang_s
            while (left := end - time.monotonic()) > 0:
                time.sleep(min(left, 0.5))
                if os.getppid() != parent:
                    return
        if self._fires("crash", self.spec.crash, key, attempt):
            self.counters["crash"] += 1
            os._exit(CRASH_EXIT)

    def on_http(self, key: str, salt: object) -> str | None:
        """Server-side HTTP hook: the fault injected into one exchange.

        Called by the fabric coordinator once per request with a key of
        the shape ``"METHOD /path worker-id"`` (so ``match`` can target
        one endpoint or one worker) and a monotonically increasing
        request sequence as salt — a retried request re-rolls.

        Returns:
            ``None`` (serve normally) or one of ``"drop"`` (close the
            connection before any response bytes), ``"delay"`` (sleep
            ``net_delay_s``, then serve), ``"error"`` (respond 500), or
            ``"disconnect"`` (send the headers plus a truncated body,
            then close).  While the partition budget lasts, every
            matching request is dropped unconditionally.
        """
        spec = self.spec
        matched = not spec.match or spec.match in key
        if self._partition_left > 0 and matched:
            self._partition_left -= 1
            self.counters["partition"] += 1
            return "drop"
        for kind, rate in (("net_drop", spec.net_drop),
                           ("net_delay", spec.net_delay),
                           ("net_error", spec.net_error),
                           ("net_disconnect", spec.net_disconnect)):
            if rate > 0.0 and matched \
                    and self._roll(kind, key, salt) < rate:
                self.counters[kind] += 1
                return kind[len("net_"):]
        return None

    def checkpoint_error(self, key: str, salt: int) -> None:
        """Raise ENOSPC or EIO when the roll says a write fails.

        ``salt`` is the writer's monotonically increasing attempt
        sequence, so a retried write re-rolls (unless ``rate`` is 1.0,
        the disk-stays-full case).
        """
        spec = self.spec
        if spec.checkpoint <= 0.0:
            return
        if spec.match and spec.match not in key:
            return
        if self._roll("checkpoint", key, salt) < spec.checkpoint:
            self.counters["checkpoint"] += 1
            code = (errno.ENOSPC
                    if self._roll("errno", key, salt) < 0.5 else errno.EIO)
            raise OSError(code, os.strerror(code))


_ACTIVE: FaultInjector | None = None


def install(spec: FaultSpec) -> FaultInjector:
    """Activate fault injection in this process; returns the injector."""
    global _ACTIVE
    _ACTIVE = FaultInjector(spec)
    return _ACTIVE


def uninstall() -> None:
    """Deactivate fault injection in this process."""
    global _ACTIVE
    _ACTIVE = None


def active() -> FaultInjector | None:
    """The injector active in this process, or None."""
    return _ACTIVE


def install_from_env() -> FaultInjector | None:
    """Install the injector ``$REPRO_CHAOS`` describes, if any.

    Supervised workers call this on startup; the variable travels to
    them through normal environment inheritance.
    """
    text = os.environ.get(CHAOS_ENV)
    if not text:
        return None
    return install(FaultSpec.from_env(text))


def checkpoint_error(key: str, salt: int) -> None:
    """Module-level hook for checkpoint writers (no-op when inactive)."""
    if _ACTIVE is not None:
        _ACTIVE.checkpoint_error(key, salt)


def corrupt_file(path: str | Path, seed: int = 0,
                 mode: str = "flip") -> None:
    """Deterministically damage one file in place.

    Args:
        path: The victim.
        seed: Chooses which bytes are flipped.
        mode: ``"flip"`` XORs a handful of bytes spread through the
            file, ``"truncate"`` drops the tail, ``"garbage"``
            replaces the content outright.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if mode == "garbage" or not data:
        path.write_bytes(b"\x00\xffnot a valid entry\x00")
        return
    if mode == "truncate":
        path.write_bytes(bytes(data[:max(1, len(data) // 3)]))
        return
    rng = hashlib.sha256(f"{seed}:{path.name}".encode()).digest()
    for i in range(8):
        position = int.from_bytes(rng[i * 4:i * 4 + 4], "big") % len(data)
        data[position] ^= 0xFF
    path.write_bytes(bytes(data))


def corrupt_tree(root: str | Path, pattern: str, seed: int = 0,
                 mode: str = "flip") -> int:
    """Damage every file under ``root`` matching ``pattern``.

    Returns:
        The number of files corrupted.
    """
    count = 0
    root = Path(root)
    if not root.is_dir():
        return 0
    for path in sorted(root.glob(pattern)):
        corrupt_file(path, seed=seed + count, mode=mode)
        count += 1
    return count
