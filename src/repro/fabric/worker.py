"""The fabric worker: a thin lease-run-report loop over HTTP.

A worker owns no campaign state.  It fetches the harness configuration
from the coordinator, then loops: lease a cell, heartbeat it from a
daemon thread while simulating, and report the result (or the
failure).  Everything durable — ordering, retry budgets, quarantine,
the campaign file — lives on the coordinator, so a worker can be
SIGKILL'd at any instant with no cleanup: its lease simply expires and
the cell is re-issued elsewhere.

Networking is deliberately pessimistic: every exchange runs through
:class:`FabricClient`, which retries connection errors *and* 5xx
responses with the supervisor's deterministic backoff.  The retry
budget spans several seconds by default, long enough to ride out a
coordinator SIGKILL + restart (the chaos harness pins that scenario);
only a budget exhausted end to end raises :class:`FabricUnreachable`.

Chaos hooks: the worker installs ``$REPRO_CHAOS`` faults on startup
and fires :meth:`~repro.resilience.faults.FaultInjector.on_task`
*before* starting a cell's heartbeat thread — an injected hang
therefore freezes the worker with no heartbeats flowing, exactly like
a real wedged process, and the coordinator's lease expiry must rescue
the cell.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import urllib.parse

from ..analysis.experiments import ExperimentConfig, ExperimentHarness
from ..analysis.campaign import _cell_key
from ..resilience import faults
from ..resilience.supervisor import Supervision, backoff_delay
from ..traces.spec import SystemScale
from ..traces.tracecache import TraceCache
from .cachebackend import BackendResultCache, HTTPCacheBackend
from .coordinator import unwire_cell


class FabricUnreachable(ConnectionError):
    """The coordinator stayed unreachable through the retry budget.

    Subclasses :class:`ConnectionError` (an ``OSError``) so cache
    plumbing that degrades gracefully on I/O errors — the harness's
    ``cache_put``, ``TraceCache.get_or_generate`` — treats a vanished
    coordinator like a failing disk: absorb and continue.
    """


class FabricClient:
    """One worker's HTTP client: retries, backoff, identity header.

    Args:
        url: Coordinator base URL (``http://host:port``).
        worker_id: Sent as ``X-Repro-Worker`` on every request (fault
            ``match`` filters and lease bookkeeping key on it).
        attempts: Exchange attempts before :class:`FabricUnreachable`.
        backoff_base_s / backoff_cap_s / seed: Deterministic retry
            spacing (:func:`~repro.resilience.supervisor.backoff_delay`).
        timeout_s: Per-connection socket timeout.
    """

    def __init__(self, url: str, worker_id: str,
                 attempts: int = 14, backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 1.0, timeout_s: float = 10.0,
                 seed: int = 0) -> None:
        parsed = urllib.parse.urlparse(url)
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.worker_id = worker_id
        self.attempts = attempts
        self.timeout_s = timeout_s
        self._policy = Supervision(timeout_s=None,
                                   max_attempts=attempts,
                                   backoff_base_s=backoff_base_s,
                                   backoff_cap_s=backoff_cap_s,
                                   seed=seed)

    def request(self, method: str, path: str,
                body: bytes | None = None,
                raw: bool = False) -> tuple[int, bytes]:
        """One exchange with retries; returns ``(status, body)``.

        Retries connection-level failures (refused, reset, torn
        responses) and 5xx statuses; 2xx/4xx are returned to the
        caller.  ``raw`` marks byte-payload routes (cache traffic) —
        it only affects the Content-Type sent.
        """
        last_error: Exception | None = None
        for attempt in range(self.attempts):
            if attempt:
                time.sleep(backoff_delay(self._policy,
                                         f"{method} {path}", attempt - 1))
            conn = http.client.HTTPConnection(self.host, self.port,
                                             timeout=self.timeout_s)
            try:
                conn.request(method, path, body=body, headers={
                    "X-Repro-Worker": self.worker_id,
                    "Content-Type": ("application/octet-stream" if raw
                                     else "application/json"),
                    "Connection": "close",
                })
                response = conn.getresponse()
                data = response.read()
                if response.status >= 500:
                    last_error = RuntimeError(
                        f"HTTP {response.status} from {method} {path}")
                    continue
                return response.status, data
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
            finally:
                conn.close()
        raise FabricUnreachable(
            f"coordinator unreachable after {self.attempts} attempts "
            f"({method} {path}): {last_error}")

    def call(self, method: str, path: str,
             payload: dict | None = None) -> dict | None:
        """A JSON exchange; ``None`` on 404, parsed body otherwise."""
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        status, data = self.request(method, path, body=body)
        if status == 404:
            return None
        if status >= 400:
            raise RuntimeError(f"{method} {path} -> HTTP {status}: "
                               f"{data[:200]!r}")
        return json.loads(data) if data else {}


class _Heartbeat:
    """Daemon thread renewing one lease until stopped."""

    def __init__(self, client: FabricClient, lease_id: str,
                 interval_s: float) -> None:
        self._client = client
        self._lease_id = lease_id
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                self._client.call("POST", "/heartbeat",
                                  {"lease": self._lease_id})
            except (OSError, RuntimeError):
                return        # lease will expire; the cell is rescued

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()


def run_worker(url: str, worker_id: str | None = None,
               max_cells: int | None = None,
               harness: ExperimentHarness | None = None,
               local_caches: bool = False,
               progress=None,
               client: FabricClient | None = None) -> int:
    """Work one coordinator's queue until it reports done.

    Args:
        url: Coordinator base URL.
        worker_id: Identity for leases/faults; defaults to
            ``<hostname>-<pid>``.
        max_cells: Stop after this many completed cells (tests).
        harness: Pre-built harness (tests); by default one is built
            from ``GET /config`` so every fleet member simulates the
            exact same window.
        local_caches: Keep the harness's own local caches instead of
            attaching the coordinator's HTTP cache backends.
        progress: Optional ``callable(str)`` for per-cell lines.
        client: Pre-built :class:`FabricClient` (tests).

    Returns:
        The number of cells this worker completed.
    """
    faults.install_from_env()
    worker_id = worker_id or f"{os.uname().nodename}-{os.getpid()}"
    client = client or FabricClient(url, worker_id)
    config = client.call("GET", "/config")
    if config is None:
        raise RuntimeError(f"no fabric coordinator at {url}")
    from .. import __version__
    if config["version"] != __version__:
        raise RuntimeError(
            f"fabric version skew: coordinator {config['version']} "
            f"vs worker {__version__}")
    if harness is None:
        harness = ExperimentHarness(ExperimentConfig(
            scale=SystemScale(config["scale"]),
            requests=config["requests"],
            warmup=config["warmup"],
            seed=config["seed"],
            workloads=tuple(config["workloads"]),
            engine=config["engine"],
        ))
    if not local_caches:
        if config["caches"]["result"]:
            harness.cache = BackendResultCache(
                HTTPCacheBackend(client, "result"))
        if config["caches"]["trace"]:
            harness.trace_cache = TraceCache(
                backend=HTTPCacheBackend(client, "trace"))
    lease_s = float(config.get("lease_s", 30.0))
    injector = faults.active()
    completed = 0
    while True:
        reply = client.call("POST", "/lease", {"worker": worker_id})
        if reply is None or reply.get("status") == "done":
            break
        if reply["status"] == "wait":
            time.sleep(float(reply.get("retry_s", 0.2)))
            continue
        design, workload = unwire_cell(reply["cell"])
        key = _cell_key(design, workload)
        if progress is not None:
            progress(f"[{worker_id}] lease {key} "
                     f"(attempt {reply['attempt']})")
        # Fault hook BEFORE the heartbeat starts: an injected hang
        # freezes the worker with no heartbeats flowing, so the
        # coordinator's lease expiry — not this process — rescues it.
        if injector is not None:
            injector.on_task(key, int(reply["attempt"]))
        heartbeat = _Heartbeat(client, reply["lease"],
                               max(lease_s / 3.0, 0.05))
        heartbeat.start()
        try:
            comparison = harness.run_design(design, workload)
        except FabricUnreachable:
            raise
        except Exception as exc:
            heartbeat.stop()
            client.call("POST", "/fail", {
                "worker": worker_id, "lease": reply["lease"],
                "cell": reply["cell"],
                "error": f"{type(exc).__name__}: {exc}"})
            continue
        finally:
            heartbeat.stop()
        outcome = client.call("POST", "/complete", {
            "worker": worker_id, "lease": reply["lease"],
            "cell": reply["cell"],
            "comparison": comparison.to_record(),
            "timing": harness.cell_timing(design, workload)})
        completed += 1
        if progress is not None:
            progress(f"[{worker_id}] {outcome['status']} {key}")
        if max_cells is not None and completed >= max_cells:
            break
        if outcome.get("done"):
            break
    return completed
