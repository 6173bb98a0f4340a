"""The fleet's HTTP byte store and its result-cache adapter.

The result and trace caches are content-addressed (SHA-256 keys over
the complete input description), which makes sharing them across a
fleet trivially safe: a key either maps to the one correct byte string
or to nothing.  A byte store is therefore just ``get(key) -> bytes |
None`` / ``put(key, data)`` plus an optional best-effort
``discard(key)``; two implementations serve the caches:

* :class:`~repro.resilience.checkpoint.LocalDirBackend` — the native
  caches' own directory of ``<key><suffix>`` files, which the
  coordinator serves over HTTP as is; on a shared filesystem it is the
  many-workers-one-NFS-mount deployment.
* :class:`HTTPCacheBackend` — ``GET``/``PUT /cache/<kind>/<key>``
  against the fabric coordinator, for workers with no shared disk.  It
  has no ``discard``: the coordinator's store owns its own healing.

A worker's trace cache is a plain :class:`~repro.traces.tracecache.
TraceCache` over an :class:`HTTPCacheBackend`, and
:class:`BackendResultCache` is the result cache's counterpart.  Both
validate entries client-side with the native codecs and
:func:`~repro.resilience.checkpoint.read_valid`: damaged, torn, or
unreachable entries read as misses, never as errors — the fleet
recomputes and heals.
"""

from __future__ import annotations

from ..analysis.resultcache import decode_record, encode_record
from ..resilience.checkpoint import read_valid


class HTTPCacheBackend:
    """Byte store over the coordinator's ``/cache/<kind>/<key>`` routes.

    Args:
        client: A :class:`~repro.fabric.worker.FabricClient` (its retry
            budget and backoff apply to every cache exchange).
        kind: ``"result"`` or ``"trace"``.
    """

    def __init__(self, client, kind: str) -> None:
        self.client = client
        self.kind = kind

    def get(self, key: str) -> bytes | None:
        status, data = self.client.request(
            "GET", f"/cache/{self.kind}/{key}", raw=True)
        return data if status == 200 else None

    def put(self, key: str, data: bytes) -> None:
        self.client.request("PUT", f"/cache/{self.kind}/{key}",
                            body=data, raw=True)


class BackendResultCache:
    """Result-record cache over a byte store.

    Duck-types the subset of :class:`~repro.analysis.resultcache.
    ResultCache` the harness touches (``get``/``put``/counters; keying
    stays on the ``ResultCache.key_for`` classmethod), with the same
    entry codec and validated read.
    """

    def __init__(self, backend) -> None:
        self.backend = backend
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        record = read_valid(self.backend, key, decode_record)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(self, key: str, record) -> None:
        self.backend.put(key, encode_record(record))
