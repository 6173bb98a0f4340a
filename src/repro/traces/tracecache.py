"""Persistent, content-addressed cache of packed miss streams.

A synthetic trace is a pure function of ``(spec, n, seed)`` — the same
discipline :mod:`repro.analysis.resultcache` exploits for result
records.  The :class:`TraceCache` applies it to the traces themselves:
each ``(spec, n, seed)`` stream is generated **once**, persisted in
packed form under a SHA-256 content-hash key, and every later consumer —
including each of the ``--jobs`` worker processes of a campaign — loads
the stored bytes instead of re-synthesising the stream, so a campaign
materialises each workload once instead of ``designs x jobs`` times.

Entry format (:func:`~repro.traces.packed.encode_entry`): a single
JSON header line carrying the payload digest, request count, and
packed-format version, followed by the raw little-endian ``array('Q')``
payload.  Entries live in a byte store — ``<key>.trace`` files by
default, the coordinator's HTTP routes on a fleet worker; a corrupted
or truncated entry is dropped and transparently regenerated — the same
self-healing contract as the result cache.

The cache root resolves from (in order) an explicit path, the
``$REPRO_TRACE_CACHE`` environment variable, or
``~/.cache/repro-bumblebee/traces``.  Setting ``REPRO_TRACE_CACHE`` to
``0``/``off``/``none`` disables caching.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

from ..resilience.checkpoint import LocalDirBackend, read_valid
from .packed import PACKED_FORMAT_VERSION, PackedTrace, decode_entry, \
    encode_entry
from .synthetic import (
    GENERATOR_VERSION,
    SyntheticSpec,
    SyntheticTraceGenerator,
)

#: Environment variable holding the cache root (or an off switch).
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

_OFF_VALUES = ("0", "off", "none", "no")


def default_trace_cache_dir() -> Path:
    """The trace-cache root used when none is given.

    ``$REPRO_TRACE_CACHE`` wins when set to a path; otherwise
    ``~/.cache/repro-bumblebee/traces``.
    """
    env = os.environ.get(TRACE_CACHE_ENV)
    if env and env.lower() not in _OFF_VALUES:
        return Path(env)
    return Path.home() / ".cache" / "repro-bumblebee" / "traces"


def resolve_trace_cache(setting: str | None) -> "TraceCache | None":
    """Build the trace cache a configuration asks for, or None.

    Args:
        setting: ``None`` defers to ``$REPRO_TRACE_CACHE`` (unset or an
            off-value disables caching); an off-value (``"0"``,
            ``"off"``, ``"none"``, ``"no"``) disables explicitly; ``""``
            enables at the default root; any other string is the root
            directory.
    """
    if setting is None:
        env = os.environ.get(TRACE_CACHE_ENV)
        if not env or env.lower() in _OFF_VALUES:
            return None
        return TraceCache(env)
    if setting.lower() in _OFF_VALUES:
        return None
    return TraceCache(setting or None)


class TraceCache:
    """Store of packed traces keyed by input content hash.

    Args:
        root: Directory holding the entries (created lazily).  Defaults
            to :func:`default_trace_cache_dir`.  Ignored when
            ``backend`` is given.
        backend: A byte store to use instead of the directory, such as
            a fleet worker's :class:`~repro.fabric.cachebackend.
            HTTPCacheBackend`.

    Attributes:
        store: The byte store holding the entries.
        root: The entry directory, or None over a ``backend``.
        hits: Lookups served from disk.
        misses: Lookups that found no usable entry.
        generated: Traces synthesised (and stored) by this instance.
        bytes_read: Packed payload bytes loaded from disk.
        bytes_written: Packed payload bytes persisted to disk.
        put_errors: Stores that failed (full/flaky disk) and were
            absorbed — the generated trace is still returned.
    """

    def __init__(self, root: str | Path | None = None,
                 backend=None) -> None:
        self.root = None
        if backend is None:
            self.root = (Path(root) if root is not None
                         else default_trace_cache_dir())
            backend = LocalDirBackend(self.root, ".trace")
        self.store = backend
        self.hits = 0
        self.misses = 0
        self.generated = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.put_errors = 0

    # ---- keying ---------------------------------------------------------

    @staticmethod
    def key_for(spec: SyntheticSpec, n: int, seed: int) -> str:
        """Content-hash key of one ``(spec, n, seed)`` miss stream.

        The key covers every input that shapes the stream plus the
        packed-format and generator versions, so a generator or layout
        change can never resurface a stale trace — old entries are
        simply never looked up again.  (The v2 generator bump retired
        every pre-seed-mix-fix entry this way.)
        """
        fields = {
            "spec": dataclasses.asdict(spec),
            "n": n,
            "seed": seed,
            "format": PACKED_FORMAT_VERSION,
            "generator": GENERATOR_VERSION,
        }
        canonical = json.dumps(fields, sort_keys=True,
                               separators=(",", ":"), default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ---- lookup / store -------------------------------------------------

    def get(self, spec: SyntheticSpec, n: int, seed: int
            ) -> PackedTrace | None:
        """The stored stream, or None.

        Damage never surfaces as an error: :func:`~repro.resilience.
        checkpoint.read_valid` retries a read that fails validation
        once (it may have observed a concurrent put) and drops an entry
        whose damage persists, so the caller regenerates and heals it.
        """
        trace = read_valid(self.store, self.key_for(spec, n, seed),
                           decode_entry)
        if trace is None:
            self.misses += 1
            return None
        self.hits += 1
        self.bytes_read += trace.nbytes
        return trace

    def put(self, spec: SyntheticSpec, n: int, seed: int,
            trace: PackedTrace) -> None:
        """Persist a packed stream under its content key."""
        self.store.put(self.key_for(spec, n, seed), encode_entry(trace))
        self.bytes_written += trace.nbytes

    def get_or_generate(self, spec: SyntheticSpec, n: int,
                        seed: int) -> PackedTrace:
        """The cached stream, or generate, store, and return it.

        Concurrent workers racing on a cold entry each generate the
        identical stream and write it atomically — last writer wins with
        byte-identical content, and no reader ever sees a partial file.
        A store that fails (full or flaky disk) is counted in
        :attr:`put_errors` and the freshly generated trace is returned
        anyway: the cache accelerates runs, it never gates them.
        """
        trace = self.get(spec, n, seed)
        if trace is None:
            trace = SyntheticTraceGenerator(spec, seed=seed) \
                .generate_packed(n)
            try:
                self.put(spec, n, seed, trace)
            except OSError:
                self.put_errors += 1
            self.generated += 1
        return trace

    # ---- observability / maintenance ------------------------------------

    def counters(self) -> dict[str, int]:
        """A plain-dict snapshot of the observability counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "generated": self.generated,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    def __len__(self) -> int:
        return len(self.store)

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        return self.store.clear()
