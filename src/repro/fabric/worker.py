"""The fabric worker: a thin lease-run-report loop over HTTP.

A worker owns no campaign state.  It fetches the harness configuration
from the coordinator, then loops: lease a cell, heartbeat it from a
daemon thread while simulating, and report the result (or the
failure).  Everything durable — ordering, retry budgets, quarantine,
the campaign file — lives on the coordinator, so a worker can be
SIGKILL'd at any instant with no cleanup: its lease simply expires and
the cell is re-issued elsewhere.

A cell costs two exchanges on one kept-open connection: the result
cache's ``GET`` and the ``/complete`` (or ``/fail``) report.  The
report asks for the next lease (``"next": true``), so ``/lease`` is
called only for the first cell and after a ``wait``, and it carries the
cell's result-cache puts, which the coordinator writes into its store
before it replies.  Trace-cache traffic stays plain ``GET``/``PUT``.

Networking is deliberately pessimistic: every exchange runs through
:class:`FabricClient`, which retries connection errors *and* 5xx
responses with the supervisor's deterministic backoff.  The retry
budget spans several seconds by default, long enough to ride out a
coordinator SIGKILL + restart (the chaos harness pins that scenario);
only a budget exhausted end to end raises :class:`FabricUnreachable`.
The client keeps one connection per thread and sends each request in
one write; a kept-open connection the coordinator has since closed is
reopened and the request resent at once, without spending a retry
attempt.

Chaos hooks: the worker installs ``$REPRO_CHAOS`` faults on startup
and fires :meth:`~repro.resilience.faults.FaultInjector.on_task`
*before* starting a cell's heartbeat thread — an injected hang
therefore freezes the worker with no heartbeats flowing, exactly like
a real wedged process, and the coordinator's lease expiry must rescue
the cell.
"""

from __future__ import annotations

import io
import json
import os
import socket
import threading
import time
import urllib.parse

from ..analysis.experiments import ExperimentConfig, ExperimentHarness
from ..analysis.campaign import _cell_key
from ..resilience import faults
from ..resilience.supervisor import backoff_delay
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


#: Longest status or header line a reply may have.
_MAX_LINE = 8192


def _whole(line: bytes) -> bytes:
    """``line`` as read by ``readline(_MAX_LINE)``, refused when it
    filled the limit without reaching its newline (read on, its tail
    would parse as the next line)."""
    if len(line) >= _MAX_LINE and not line.endswith(b"\n"):
        raise ValueError(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _read_reply(line: bytes, stream) -> tuple[int, bytes, bool]:
    """Parse the coordinator's reply whose status line is ``line``.

    Returns ``(status, body, close)``.  The coordinator frames every
    reply with ``Content-Length``; ``close`` is set when it ends the
    connection after this reply.

    Raises:
        ConnectionError: when the reply is cut short.
        ValueError: when it is not an HTTP reply: a status that is not
            three ASCII digits in 100-599, a status or header line
            longer than ``_MAX_LINE``, or a ``Content-Length`` that is
            not digits or differs from an earlier one.
    """
    if not line:
        raise ConnectionResetError("connection closed before a reply")
    version, status = _whole(line).split(None, 2)[:2]
    if not (len(status) == 3 and status.isdigit()
            and 100 <= int(status) <= 599):
        raise ValueError(f"bad reply status {status[:16]!r}")
    close = version != b"HTTP/1.1"
    length = None
    while (header := stream.readline(_MAX_LINE)) not in (b"\r\n", b"\n"):
        if not header:
            raise ConnectionResetError("reply headers cut short")
        name, _, value = _whole(header).partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            value = value.strip()
            if not value.isdigit() or length not in (None, int(value)):
                raise ValueError(
                    f"bad or conflicting Content-Length {value[:16]!r}")
            length = int(value)
        elif name == b"connection":
            close = value.strip().lower() == b"close"
    length = length or 0
    body = stream.read(length)
    if len(body) < length:
        raise ConnectionResetError("reply body cut short")
    return int(status), body, close


class FabricClient:
    """One worker's HTTP client: retries, backoff, identity header.

    Each thread that calls :meth:`request` gets its own persistent
    HTTP/1.1 connection, kept open between exchanges; :meth:`close`
    closes the calling thread's, and so does leaving a ``with
    FabricClient(...)`` block or a :class:`FabricUnreachable` from
    :meth:`request`.  A request goes out in one write, and
    replies are read by the coordinator's framing: every reply carries
    ``Content-Length``.

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
        self._backoff = (backoff_base_s, backoff_cap_s, seed)
        self._local = threading.local()

    def __enter__(self) -> "FabricClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the calling thread's connection, if it has one."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            sock, stream = conn
            stream.close()
            sock.close()

    def _connect(self) -> tuple[socket.socket, "io.BufferedReader"]:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, sock.makefile("rb")

    def _exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send one whole request on the calling thread's connection and
        read its reply.

        A kept-open connection that fails before any response byte
        (the coordinator closed it while idle) is reopened and the
        request sent again at once.  Any other failure closes the
        connection and raises.
        """
        while True:
            conn = getattr(self._local, "conn", None)
            reused = conn is not None
            try:
                if not reused:
                    conn = self._local.conn = self._connect()
                sock, stream = conn
                try:
                    sock.sendall(request)
                    line = stream.readline(_MAX_LINE)
                except ConnectionError:
                    if not reused:
                        raise
                    line = b""
                if not line and reused:
                    self.close()
                    continue
                status, data, close = _read_reply(line, stream)
            except (OSError, ValueError):
                self.close()
                raise
            if close:
                self.close()
            return status, data

    def request(self, method: str, path: str,
                body: bytes | None = None,
                raw: bool = False) -> tuple[int, bytes]:
        """One exchange with retries; returns ``(status, body)``.

        Retries connection-level failures (refused, reset, torn
        responses) and 5xx statuses; 2xx/4xx are returned to the
        caller.  ``raw`` marks byte-payload routes (cache traffic) —
        it only affects the Content-Type sent.
        """
        body = body or b""
        ctype = "application/octet-stream" if raw else "application/json"
        request = (f"{method} {path} HTTP/1.1\r\n"
                   f"Host: {self.host}:{self.port}\r\n"
                   f"X-Repro-Worker: {self.worker_id}\r\n"
                   f"Content-Type: {ctype}\r\n"
                   f"Content-Length: {len(body)}\r\n\r\n"
                   ).encode("latin-1") + body
        last_error: Exception | None = None
        for attempt in range(self.attempts):
            if attempt:
                time.sleep(backoff_delay(f"{method} {path}", attempt - 1,
                                         *self._backoff))
            try:
                status, data = self._exchange(request)
            except (OSError, ValueError) as exc:
                last_error = exc
                continue
            if status >= 500:
                last_error = RuntimeError(
                    f"HTTP {status} from {method} {path}")
                continue
            return status, data
        self.close()
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
    """Daemon thread renewing one lease until stopped; it closes its
    own connection when it ends."""

    def __init__(self, client: FabricClient, lease_id: str,
                 interval_s: float) -> None:
        self._client = client
        self._lease_id = lease_id
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            while not self._stop.wait(self._interval_s):
                self._client.call("POST", "/heartbeat",
                                  {"lease": self._lease_id})
        except (OSError, RuntimeError):
            pass              # lease will expire; the cell is rescued
        finally:
            self._client.close()

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

    The calling thread's connection to the coordinator is closed when
    this returns or raises.

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
    with client or FabricClient(url, worker_id) as client:
        return _work(client, url, worker_id, max_cells, harness,
                     local_caches, progress)


def _work(client: FabricClient, url: str, worker_id: str,
          max_cells: int | None, harness: ExperimentHarness | None,
          local_caches: bool, progress) -> int:
    """:func:`run_worker`'s loop, on an open client."""
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
    results = None
    if not local_caches:
        if config["caches"]["result"]:
            # Puts wait for the cell's report, which carries them.
            results = HTTPCacheBackend(client, "result", defer_puts=True)
            harness.cache = BackendResultCache(results)
        if config["caches"]["trace"]:
            harness.trace_cache = TraceCache(
                backend=HTTPCacheBackend(client, "trace"))
    lease_s = float(config.get("lease_s", 30.0))
    injector = faults.active()

    def report(route: str, payload: dict, more: bool) -> dict:
        payload["next"] = more
        if results is not None and results.pending:
            payload["cache"] = {"result": results.take_pending()}
        return client.call("POST", route, payload)

    completed = 0
    reply = client.call("POST", "/lease", {"worker": worker_id})
    while reply is not None and reply.get("status") != "done":
        if reply["status"] == "wait":
            time.sleep(float(reply.get("retry_s", 0.2)))
            reply = client.call("POST", "/lease", {"worker": worker_id})
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
            reply = report("/fail", {
                "worker": worker_id, "lease": reply["lease"],
                "cell": reply["cell"],
                "error": f"{type(exc).__name__}: {exc}"}, True)["next"]
            continue
        finally:
            heartbeat.stop()
        more = max_cells is None or completed + 1 < max_cells
        outcome = report("/complete", {
            "worker": worker_id, "lease": reply["lease"],
            "cell": reply["cell"],
            "comparison": comparison.to_record(),
            "timing": harness.cell_timing(design, workload)}, more)
        completed += 1
        if progress is not None:
            progress(f"[{worker_id}] {outcome['status']} {key}")
        if not more:
            break
        reply = outcome["next"]
    if results is not None:
        results.flush()
    return completed
