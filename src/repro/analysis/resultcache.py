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

Entries are :func:`encode_record`'s ``{"digest", "record"}`` JSON
bytes in a byte store (``get``/``put`` of bytes plus an optional
``discard``): here ``<key>.json`` files under the cache root (default
``$REPRO_CACHE_DIR`` or ``~/.cache/repro-bumblebee``), written
atomically *and durably* by :class:`~repro.resilience.checkpoint.
LocalDirBackend`, so a crashed run — or a crashed machine — never
leaves a half-written record behind.  JSON round-trips Python floats
exactly (shortest-round-trip repr), so a cached record is bit-identical
to the freshly computed one.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping

from ..resilience.checkpoint import LocalDirBackend, read_valid


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


def encode_record(record: Any) -> bytes:
    """The stored bytes of one result entry: ``{"digest", "record"}``."""
    digest = hashlib.sha256(_canonical(record).encode("utf-8")).hexdigest()
    return json.dumps({"digest": digest, "record": record}).encode("utf-8")


def decode_record(data: bytes) -> Any:
    """The record of one :func:`encode_record` entry.

    Raises:
        ValueError: on malformed bytes or a record that does not match
            its embedded digest.
    """
    try:
        wrapped = json.loads(data)
        record, digest = wrapped["record"], wrapped["digest"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed result entry: {exc!r}") from exc
    if hashlib.sha256(
            _canonical(record).encode("utf-8")).hexdigest() != digest:
        raise ValueError("result entry digest mismatch")
    return record


class ResultCache:
    """On-disk store of result records keyed by input content hash.

    Args:
        root: Directory holding the entries (created lazily).  Defaults
            to :func:`default_cache_dir`.

    Attributes:
        store: The byte store holding the ``<key>.json`` entries.
        hits: Number of successful :meth:`get` lookups.
        misses: Number of lookups that found nothing usable.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.store = LocalDirBackend(self.root, ".json")
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

    # ---- lookup / store -------------------------------------------------

    def get(self, key: str) -> Any | None:
        """The record stored under ``key``, or None.

        Damage never surfaces as an error: :func:`~repro.resilience.
        checkpoint.read_valid` retries a read that fails validation
        once (it may have observed a concurrent put) and drops an entry
        whose damage persists, so the caller recomputes and heals it.
        """
        record = read_valid(self.store, key, decode_record)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(self, key: str, record: Any) -> None:
        """Store ``record`` (JSON-serialisable) under ``key``, atomically
        and durably."""
        self.store.put(key, encode_record(record))

    # ---- maintenance ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.store)

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        return self.store.clear()
