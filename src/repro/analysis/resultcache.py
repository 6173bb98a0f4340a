"""Persistent, content-addressed cache of experiment results.

Every simulated cell of the evaluation — one design (or Bumblebee
configuration) on one workload — is a pure function of its inputs: the
trace is regenerated from a seed, the controller from a frozen config.
The :class:`ResultCache` exploits that purity by keying each record on a
SHA-256 hash of the *complete* input description (design, controller
knobs, workload spec, scale, window, seed, and the package version), so

* a repeated run — across benchmark sessions, CLI invocations, or sweep
  re-entries — loads the stored record instead of simulating;
* any change to an input, or to the simulator itself (version bump),
  changes the key and transparently invalidates the entry — stale data
  can never be returned, only left behind as unreachable files;
* a corrupted or hand-edited entry is detected through an embedded
  digest of the record and silently recomputed.

Entries are single JSON files under the cache root (default
``$REPRO_CACHE_DIR`` or ``~/.cache/repro-bumblebee``), written
atomically *and durably* (temp file + fsync + rename + directory
fsync) so a crashed run — or a crashed machine — never leaves a
half-written record behind.  JSON round-trips Python floats exactly
(shortest-round-trip repr), so a cached record is bit-identical to the
freshly computed one.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Mapping

from ..resilience.checkpoint import fsync_dir


def default_cache_dir() -> Path:
    """The cache root used when none is given.

    ``$REPRO_CACHE_DIR`` wins when set; otherwise
    ``~/.cache/repro-bumblebee``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-bumblebee"


def _canonical(payload: Any) -> str:
    """Deterministic JSON text of ``payload`` (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)


class ResultCache:
    """On-disk store of result records keyed by input content hash.

    Args:
        root: Directory holding the entries (created lazily).  Defaults
            to :func:`default_cache_dir`.

    Attributes:
        hits: Number of successful :meth:`get` lookups.
        misses: Number of lookups that found nothing usable.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    # ---- keying ---------------------------------------------------------

    @staticmethod
    def key_for(**fields: Any) -> str:
        """Content-hash key of one experiment cell.

        Every input that can change the result must appear in
        ``fields``; nested dataclass dumps (``dataclasses.asdict``) and
        enums are fine — non-JSON values are serialised via ``str``.
        """
        digest = hashlib.sha256(_canonical(fields).encode("utf-8"))
        return digest.hexdigest()

    @staticmethod
    def encode_fields(**fields: Any) -> dict[str, str]:
        """Each field as its canonical ``"name":value`` JSON text.

        Encoding is the costly part of :meth:`key_for`; a caller that
        keys many cells on the same inputs encodes them once and joins
        the texts with :meth:`key_for_encoded`.
        """
        return {name: f"{_canonical(name)}:{_canonical(value)}"
                for name, value in fields.items()}

    @staticmethod
    def key_for_encoded(encoded: Mapping[str, str]) -> str:
        """:meth:`key_for` of fields pre-encoded by :meth:`encode_fields`.

        The canonical form writes an object as its ``"name":value``
        pairs in sorted name order, so joining the pre-encoded pairs
        that way gives the same bytes, and so the same key.
        """
        body = ",".join(encoded[name] for name in sorted(encoded))
        return hashlib.sha256(f"{{{body}}}".encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # ---- lookup / store -------------------------------------------------

    def _read_entry(self, path: Path) -> Any:
        """Read and validate one entry; raises on any damage."""
        wrapped = json.loads(path.read_text())
        record = wrapped["record"]
        digest = hashlib.sha256(
            _canonical(record).encode("utf-8")).hexdigest()
        if digest != wrapped["digest"]:
            raise ValueError("record digest mismatch")
        return record

    def get(self, key: str) -> Any | None:
        """The record stored under ``key``, or None.

        Damage never surfaces as an error.  A validation failure
        (malformed bytes, digest mismatch, torn or empty file) is
        retried once first: with many fleet workers sharing one store,
        the failed read may have observed a concurrent ``put`` whose
        final rename had not landed yet, and the retry finds the
        completed entry instead of destroying it.  Only a failure that
        persists across both reads — genuine corruption, manual edits —
        deletes the entry and reports a miss, so the caller recomputes
        and overwrites it.
        """
        path = self._path(key)
        record = _MISSING = object()
        for _ in range(2):
            try:
                record = self._read_entry(path)
                break
            except FileNotFoundError:
                self.misses += 1
                return None
            except (ValueError, KeyError, TypeError, OSError):
                record = _MISSING
        if record is _MISSING:
            # Poisoned entry: drop it so the recompute can heal the cache.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: Any) -> None:
        """Store ``record`` (JSON-serialisable) under ``key``.

        The write is atomic (temp file + rename) and durable (file and
        directory fsync'd): concurrent writers of the same key are both
        writing identical content, readers never observe a partial
        file, and a machine crash right after return cannot lose the
        entry.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256(
            _canonical(record).encode("utf-8")).hexdigest()
        payload = json.dumps({"digest": digest, "record": record})
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        fsync_dir(self.root)

    def get_or_compute(self, key: str,
                       compute: Callable[[], Any]) -> Any:
        """The cached record, or ``compute()`` stored and returned."""
        record = self.get(key)
        if record is None:
            record = compute()
            self.put(key, record)
        return record

    # ---- maintenance ----------------------------------------------------

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
