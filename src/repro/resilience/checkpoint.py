"""Crash-safe JSONL checkpointing: durable appends, torn-tail recovery.

A campaign's JSONL file is its checkpoint: one line per completed
cell, appended in deterministic cell order (each batch of lines in one
fsync'd write), so at any kill
point the file is a clean prefix of the uninterrupted run and a resume
appends exactly the missing suffix — byte-identical to never having
been interrupted (timing-free records; see
:class:`~repro.analysis.campaign.Campaign`).

Two failure modes are handled here:

* **Torn tails.** A process killed mid-``write`` can leave the whole
  lines written so far plus a partial final line (or, on a crashed
  kernel, arbitrary damaged lines).
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
from typing import Any, Callable, Iterable

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


def _parse_jsonl(raw: bytes,
                 path: Path) -> tuple[list[dict], list[bytes], int]:
    """``(records, their lines, damaged lines)`` of JSONL bytes.

    Every syntactically valid object line is kept; torn, corrupt,
    non-object or too deeply nested lines (interrupted appends, bit-rot)
    are counted and skipped, so one bad line never hides the records
    after it.

    Raises:
        ValueError: naming ``path`` when its first non-blank byte is
            ``[``: a whole-file JSON array (the retired campaign
            format), which line recovery would otherwise compact to
            nothing.
    """
    if raw.lstrip().startswith(b"["):
        raise ValueError(
            f"{path}: a whole-file JSON array, not JSON Lines; the "
            f"JSON-array campaign format is no longer read")
    records: list[dict] = []
    good_lines: list[bytes] = []
    dropped = 0
    for segment in raw.split(b"\n"):
        if not segment.strip():
            continue
        try:
            record = json.loads(segment)
        except (ValueError, RecursionError):
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
    ingest``.

    Returns:
        ``(records, dropped)``: the valid records in file order and the
        number of damaged lines skipped.

    Raises:
        ValueError: the file is a whole-file JSON array.
    """
    path = Path(path)
    records, _, dropped = _parse_jsonl(path.read_bytes(), path)
    return records, dropped


def recover_jsonl(path: str | Path, check=None) -> tuple[list[dict], int]:
    """Load a JSONL checkpoint, repairing any damage in place.

    Parses like :func:`read_jsonl`.  When any line was dropped — or
    the file lacks its final newline, which would make the next append
    produce a run-on line — the file is rewritten atomically from the
    surviving lines.  ``check(records)``, when given, sees the records
    before any rewrite: an exception it raises leaves the file untouched.

    The read and the compacting rewrite happen under the file's
    advisory :class:`FileLock`, so an append racing in from another
    process (a fabric worker's merge-on-arrival, a second campaign
    sharing the file) can never land between the read and the replace
    and be silently discarded.

    Returns:
        ``(records, dropped)``: the surviving records in file order and
        the number of damaged lines discarded.

    Raises:
        ValueError: the file is a whole-file JSON array; it is left
            untouched.
    """
    path = Path(path)
    with FileLock(path):
        raw = path.read_bytes()
        records, good_lines, dropped = _parse_jsonl(raw, path)
        if check is not None:
            check(records)
        if dropped or (raw and not raw.endswith(b"\n")):
            atomic_write_bytes(path, b"".join(line + b"\n"
                                              for line in good_lines))
    return records, dropped


class CheckpointWriter:
    """Durable, order-preserving JSONL appender with failure absorption.

    Records arrive in batches (:meth:`append_many`; :meth:`append` is a
    batch of one).  A batch lands with one lock, one open, one
    ``write``, one flush and one fsync, and behaves exactly like one
    :meth:`append` per record: every record rolls the fault hook with
    its own attempt sequence, and a record still failing at the end of
    the batch parks in ``pending`` with everything after it, in FIFO
    order.

    Args:
        path: The checkpoint file (created on first append).
        fsync: When True (default) every successful write is fsync'd
            before the call returns, so a SIGKILL immediately after
            cannot lose it.

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
        # How many head lines of ``pending`` may already be on disk: an
        # interrupt (the campaign's SIGTERM handler raises
        # KeyboardInterrupt anywhere) can land between a write and the
        # pops that follow it.
        self._unsure = 0

    def _write_lines(self, text: str) -> None:
        """One write of whole lines; raises OSError on failure."""
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        with FileLock(self.path):
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())

    def _ends_with(self, text: str) -> bool:
        """Whether the file ends with the whole lines ``text``."""
        data = text.encode("utf-8")
        try:
            with self.path.open("rb") as handle:
                size = handle.seek(0, os.SEEK_END)
                handle.seek(max(0, size - len(data) - 1))
                tail = handle.read()
        except FileNotFoundError:
            return False
        return tail in (data, b"\n" + data)

    def _settle(self) -> None:
        """Pop the head lines an interrupted write already landed.

        Lines that were not landed stay pending and roll again.
        """
        if self._unsure:
            head = "".join(line for _, line in self.pending[:self._unsure])
            if self._ends_with(head):
                del self.pending[:self._unsure]
            self._unsure = 0

    def _admit(self, ready: int) -> int:
        """Roll the fault hook for pending lines past the first
        ``ready``; returns how many head lines may now be written.

        Stops at the first injected failure, as one :meth:`append`
        does: the failed line and everything after it wait for the
        next roll.
        """
        while ready < len(self.pending):
            self._seq += 1
            try:
                faults.checkpoint_error(self.pending[ready][0], self._seq)
            except OSError:
                self.write_errors += 1
                break
            ready += 1
        return ready

    def _land(self, ready: int) -> bool:
        """Write the first ``ready`` pending lines in one write and pop
        them; True once nothing is pending."""
        if ready:
            self._unsure = ready
            try:
                self._write_lines("".join(
                    line for _, line in self.pending[:ready]))
            except OSError:
                self._unsure = 0
                self.write_errors += 1
                return False
            del self.pending[:ready]
            self._unsure = 0
        return not self.pending

    def append_many(self, entries: Iterable[tuple[dict, str]]) -> bool:
        """Queue ``(record, tag)`` entries and push everything queued to
        disk in one write.

        Each record rolls the fault hook as its own :meth:`append`
        would, so a batch leaves the same lines on disk, the same
        ``pending`` and the same ``write_errors`` as one append per
        record.  Lines reach the file strictly in append order
        regardless of which attempts failed.

        Returns:
            True when every record (and all earlier pending ones) is on
            disk, False when some are parked in ``pending``.
        """
        self._settle()
        ready = 0
        for record, tag in entries:
            self.pending.append((tag, json.dumps(record) + "\n"))
            ready = self._admit(ready)
        return self._land(ready)

    def append(self, record: dict, tag: str = "") -> bool:
        """Queue one record and push everything queued to disk.

        The record always survives in ``pending`` on failure.

        Returns:
            True when the record (and all earlier pending ones) is on
            disk, False when it is parked in ``pending``.
        """
        return self.append_many([(record, tag)])

    def flush_pending(self, attempts: int = 20) -> bool:
        """Retry parked records; True once nothing is pending.

        Each retry re-rolls injected failures (the attempt sequence
        advances), mirroring a disk that recovers.
        """
        for _ in range(attempts):
            self._settle()
            if self._land(self._admit(0)):
                return True
        return not self.pending
