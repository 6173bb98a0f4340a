"""Crash-safe JSONL checkpointing: durable appends, torn-tail recovery.

A campaign's JSONL file is its checkpoint: one fsync'd line per
completed cell, appended in deterministic cell order, so at any kill
point the file is a clean prefix of the uninterrupted run and a resume
appends exactly the missing suffix — byte-identical to never having
been interrupted (timing-free records; see
:class:`~repro.analysis.campaign.Campaign`).

Two failure modes are handled here:

* **Torn tails.** A process killed mid-``write`` can leave a partial
  final line (or, on a crashed kernel, arbitrary damaged lines).
  :func:`recover_jsonl` parses what is valid, drops what is not, and
  compacts the file atomically so the damage cannot compound.
* **Failing writes.** ENOSPC/EIO on an append must not abort the
  campaign or corrupt the file: :class:`CheckpointWriter` keeps the
  record in a FIFO pending buffer and retries in order on every later
  append (and on :meth:`CheckpointWriter.flush_pending`), so records
  land on disk in the same order they would have without the failure —
  graceful degradation, nothing lost while the process lives.
* **Concurrent processes.** Two processes sharing one checkpoint file
  (a fabric coordinator restarted next to a straggling old one, a
  ``repro db ingest`` compacting while a campaign appends) could
  interleave :func:`recover_jsonl`'s read-then-replace compaction with
  an append and silently drop the appended line.  Every append and
  every compaction therefore holds an advisory :class:`FileLock`
  (``flock`` on a ``<name>.lock`` sibling; a no-op where ``fcntl`` is
  unavailable), serialising the two paths.

The same durable write backs the content-addressed caches through
their one byte store (:class:`LocalDirBackend`) and one validated read
(:func:`read_valid`).

The :mod:`~repro.resilience.faults` hook lets the chaos harness inject
write failures deterministically.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from . import faults


class FileLock:
    """Advisory inter-process lock guarding one shared file.

    The lock is taken with ``flock`` on a sibling ``<name>.lock`` file
    (never on the guarded file itself — compaction replaces that inode,
    which would silently drop the lock).  Advisory means every writer
    must opt in; :func:`recover_jsonl` and :class:`CheckpointWriter` do,
    so campaign-file compaction and appends from different processes
    serialise instead of interleaving.  Re-raising platforms without
    ``fcntl`` degrade to a no-op, matching the previous behaviour.
    """

    def __init__(self, target: str | Path) -> None:
        self.path = Path(f"{target}.lock")
        self._fd: int | None = None

    def __enter__(self) -> "FileLock":
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return self
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        except OSError:  # pragma: no cover - flock-less filesystem
            os.close(self._fd)
            self._fd = None
        return self

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - defensive
                pass
            os.close(self._fd)
            self._fd = None


def fsync_dir(path: str | Path) -> None:
    """Best-effort fsync of a directory (durability of renames).

    Silently ignored where directories cannot be opened or synced
    (some filesystems / platforms); the rename itself is still atomic.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically and durably.

    Temp file in the same directory, fsync, ``os.replace``, directory
    fsync — readers never observe a partial file and the result
    survives a crash immediately after return.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)


class LocalDirBackend:
    """Durable byte store over a directory of ``<key><suffix>`` files.

    Puts go through :func:`atomic_write_bytes`, so a reader never sees
    a partial entry; the fabric coordinator serves the same object over
    HTTP.

    Args:
        root: The directory (created lazily on first put).
        suffix: Filename suffix — ``".json"`` for result entries,
            ``".trace"`` for trace entries.
    """

    def __init__(self, root: str | Path, suffix: str = "") -> None:
        self.root = Path(root)
        self.suffix = suffix

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def get(self, key: str) -> bytes | None:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            return None

    def put(self, key: str, data: bytes) -> None:
        atomic_write_bytes(self._path(key), data)

    def discard(self, key: str) -> None:
        """Best-effort removal of one entry."""
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return list(self.root.glob(f"*{self.suffix}"))

    def __len__(self) -> int:
        return len(self._entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def read_valid(store, key: str, decode: Callable[[bytes], Any]) -> Any:
    """``decode(store.get(key))``, or None when no valid entry exists.

    Bytes that ``decode`` rejects with ``ValueError`` are read once
    more: the first read may have observed another worker's put before
    its rename landed.  Damage that persists is dropped through the
    store's optional ``discard`` so the caller recomputes and heals it.
    An ``OSError`` from the store is a miss, like a missing entry.
    """
    for _ in range(2):
        try:
            data = store.get(key)
        except OSError:
            return None
        if data is None:
            return None
        try:
            return decode(data)
        except ValueError:
            pass
    discard = getattr(store, "discard", None)
    if discard is not None:
        discard(key)
    return None


def _parse_jsonl(raw: bytes) -> tuple[list[dict], list[bytes], int]:
    """``(records, their lines, damaged lines)`` of JSONL bytes.

    Every syntactically valid object line is kept; torn, corrupt or
    non-object lines (interrupted appends, bit-rot) are counted and
    skipped, so one bad line never hides the records after it.
    """
    records: list[dict] = []
    good_lines: list[bytes] = []
    dropped = 0
    for segment in raw.split(b"\n"):
        if not segment.strip():
            continue
        try:
            record = json.loads(segment)
        except ValueError:
            dropped += 1
            continue
        if not isinstance(record, dict):
            dropped += 1
            continue
        records.append(record)
        good_lines.append(segment)
    return records, good_lines, dropped


def read_jsonl(path: str | Path) -> tuple[list[dict], int]:
    """Read a campaign file's records; the file is never modified.

    The read-only twin of :func:`recover_jsonl` (same line parse, no
    repair) for readers that do not own the file, such as ``repro db
    ingest``.  Content starting with ``[`` is a legacy whole-file JSON
    array (``ValueError`` when malformed); its non-object entries count
    as damaged.

    Returns:
        ``(records, dropped)``: the valid records in file order and the
        number of damaged lines (or array entries) skipped.
    """
    raw = Path(path).read_bytes()
    if raw.lstrip().startswith(b"["):
        items = json.loads(raw)
        records = [item for item in items if isinstance(item, dict)]
        return records, len(items) - len(records)
    records, _, dropped = _parse_jsonl(raw)
    return records, dropped


def recover_jsonl(path: str | Path) -> tuple[list[dict], int]:
    """Load a JSONL checkpoint, repairing any damage in place.

    Parses like :func:`read_jsonl`.  When any line was dropped — or
    the file lacks its final newline, which would make the next append
    produce a run-on line — the file is rewritten atomically from the
    surviving lines.

    The read and the compacting rewrite happen under the file's
    advisory :class:`FileLock`, so an append racing in from another
    process (a fabric worker's merge-on-arrival, a second campaign
    sharing the file) can never land between the read and the replace
    and be silently discarded.

    Returns:
        ``(records, dropped)``: the surviving records in file order and
        the number of damaged lines discarded.
    """
    path = Path(path)
    with FileLock(path):
        raw = path.read_bytes()
        records, good_lines, dropped = _parse_jsonl(raw)
        if dropped or (raw and not raw.endswith(b"\n")):
            atomic_write_bytes(path, b"".join(line + b"\n"
                                              for line in good_lines))
    return records, dropped


class CheckpointWriter:
    """Durable, order-preserving JSONL appender with failure absorption.

    Args:
        path: The checkpoint file (created on first append).
        fsync: When True (default) every successful append is fsync'd
            before :meth:`append` returns, so a SIGKILL immediately
            after cannot lose it.

    Attributes:
        pending: Records whose writes failed, in append order, waiting
            to be flushed.
        write_errors: Total failed write attempts observed.
    """

    def __init__(self, path: str | Path, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.pending: list[tuple[str, str]] = []
        self.write_errors = 0
        self._seq = 0
        # Set while the head of ``pending`` may already be on disk: an
        # interrupt (the campaign's SIGTERM handler raises
        # KeyboardInterrupt anywhere) can land between a line's write
        # and its pop.
        self._unsure = False

    def _write_line(self, tag: str, line: str) -> None:
        """One append attempt; raises OSError on (possibly injected)
        failure."""
        self._seq += 1
        faults.checkpoint_error(tag, self._seq)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        with FileLock(self.path):
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())

    def _ends_with(self, line: str) -> bool:
        """Whether the file's last line is ``line``."""
        data = line.encode("utf-8")
        try:
            with self.path.open("rb") as handle:
                size = handle.seek(0, os.SEEK_END)
                handle.seek(max(0, size - len(data) - 1))
                tail = handle.read()
        except FileNotFoundError:
            return False
        return tail in (data, b"\n" + data)

    def _drain(self) -> bool:
        """Write pending lines in FIFO order; False on first failure.

        A line whose write was interrupted before its pop is not written
        twice: the retry pops it when the file already ends with it.
        """
        while self.pending:
            tag, line = self.pending[0]
            if not (self._unsure and self._ends_with(line)):
                self._unsure = True
                try:
                    self._write_line(tag, line)
                except OSError:
                    self._unsure = False
                    self.write_errors += 1
                    return False
            self.pending.pop(0)
            self._unsure = False
        return True

    def append(self, record: dict, tag: str = "") -> bool:
        """Queue one record and push everything queued to disk.

        The record always survives in ``pending`` on failure, and lines
        reach the file strictly in append order regardless of which
        attempts failed.

        Returns:
            True when the record (and all earlier pending ones) is on
            disk, False when it is parked in ``pending``.
        """
        self.pending.append((tag, json.dumps(record) + "\n"))
        return self._drain()

    def flush_pending(self, attempts: int = 20) -> bool:
        """Retry parked records; True once nothing is pending.

        Each retry re-rolls injected failures (the attempt sequence
        advances), mirroring a disk that recovers.
        """
        for _ in range(attempts):
            if self._drain():
                return True
        return not self.pending

    def rewrite(self, records: list[dict]) -> None:
        """Atomically replace the whole file (legacy-format migration)."""
        with FileLock(self.path):
            atomic_write_bytes(
                self.path,
                "".join(json.dumps(r) + "\n"
                        for r in records).encode("utf-8"))
