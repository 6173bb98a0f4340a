"""The fabric coordinator: an asyncio HTTP lease server over a campaign.

One coordinator owns one campaign file.  It leases the campaign's
missing ``design x workload`` cells to worker clients
(:mod:`~repro.fabric.worker`), tracks them through the deterministic
:class:`~repro.resilience.supervisor.LeaseTable`, and merges completions
on arrival into the campaign through
:meth:`~repro.analysis.campaign.Campaign.persist_comparison` — in
deterministic cell order, via the same fsync'd clean-prefix
checkpoint writer a single-machine run uses.  With timing disabled the
resulting file is therefore *byte-identical* to a serial run, no
matter how the fleet's completions interleave, which worker crashed,
or how many duplicate completions arrived (the chaos harness pins
this).

The HTTP surface (HTTP/1.1, one request per connection)::

    GET  /config                 harness window/seed/scale + lease terms
    POST /lease      {worker}    -> lease | wait(retry_s) | done
    POST /heartbeat  {lease}     extend the lease deadline
    POST /complete   {worker, lease, cell, comparison, timing?}
    POST /fail       {worker, lease, cell, error}
    GET  /status                 cell counts + quarantined cells
    GET  /file                   the campaign JSONL bytes
    GET|PUT /cache/{result,trace}/<key>   shared-cache byte store

Plain stdlib asyncio — the server is a few routes over
``asyncio.start_server``, not a web framework, and the single event
loop makes every state transition atomic without locks.  Fault
injection (:meth:`~repro.resilience.faults.FaultInjector.on_http`)
wraps every exchange, so the chaos harness can drop, delay, 5xx,
partition, or mid-body-disconnect any request deterministically.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time

from ..analysis.campaign import Campaign, QuarantinedCell, _cell_key
from ..analysis.metrics import WorkloadComparison
from ..analysis.resultcache import _canonical
from ..designs import DesignSpec
from ..resilience import faults
from ..resilience.supervisor import FLEET_POLICY, LeaseTable, Supervision

_REASONS = {200: "OK", 204: "No Content", 400: "Bad Request",
            404: "Not Found", 500: "Internal Server Error"}


def wire_cell(design: "str | DesignSpec", workload: str) -> dict:
    """The JSON wire form of one cell (spec dump or registered name)."""
    if isinstance(design, DesignSpec):
        return {"spec": design.to_dict(), "workload": workload}
    return {"design": design, "workload": workload}


def unwire_cell(payload: dict) -> tuple["str | DesignSpec", str]:
    """Invert :func:`wire_cell`."""
    if "spec" in payload:
        return DesignSpec.from_dict(payload["spec"]), payload["workload"]
    return payload["design"], payload["workload"]


def _response(status: int, body: bytes,
              content_type: str = "application/json") -> bytes:
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1") + body


def _hex_key(key: str) -> bool:
    return (0 < len(key) <= 128
            and all(c in "0123456789abcdef" for c in key))


class FabricCoordinator:
    """Serves one campaign's missing cells to a worker fleet.

    Args:
        campaign: The campaign to fill (its already-present cells are
            never leased — constructing over an existing file *is* the
            resume path).
        designs: Full design axis, names and specs mixed freely.
        workloads: Full workload axis.
        policy: Lease/retry/quarantine policy (default
            :data:`~repro.resilience.supervisor.FLEET_POLICY`); its
            ``timeout_s`` is the lease length and must be set.
        result_backend: Optional byte store served at
            ``/cache/result/`` (workers then share result records).
        trace_backend: Optional byte store served at ``/cache/trace/``.
        hold: Start in adaptive mode: the lease table may begin empty
            and grows via :meth:`extend`; workers are told to wait
            (never "done") until :meth:`release` lifts the hold.

    Attributes:
        divergent: Duplicate completions whose payload hash differed
            from the accepted one — always 0 for a deterministic
            simulator; anything else is a red flag the summary
            surfaces.
    """

    def __init__(self, campaign: Campaign, designs, workloads,
                 policy: Supervision | None = None,
                 result_backend=None, trace_backend=None,
                 hold: bool = False) -> None:
        self.campaign = campaign
        self.policy = policy or FLEET_POLICY
        if self.policy.timeout_s is None:
            raise ValueError("a fleet policy needs a lease length "
                             "(timeout_s)")
        self.hold = hold
        self.result_backend = result_backend
        self.trace_backend = trace_backend
        self.pending_cells = [(design, workload)
                              for design in designs
                              for workload in workloads
                              if not campaign.has(design, workload)]
        self._keys = [_cell_key(design, workload)
                      for design, workload in self.pending_cells]
        self._index = {key: i for i, key in enumerate(self._keys)}
        self.state = LeaseTable(self._keys, self.policy)
        self._results: dict[int, WorkloadComparison] = {}
        self._timings: dict[int, dict] = {}
        self._hashes: dict[str, str] = {}
        self._emitted = 0
        self.divergent = 0
        self._fault_seq = 0
        self.port: int | None = None
        self.url: str | None = None
        self.ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None

    # ---- merge-on-arrival ----------------------------------------------

    @property
    def finished(self) -> bool:
        """Every cell resolved *and* emitted to the campaign file.

        A held coordinator (adaptive mode) is never finished: more
        cells may still arrive via :meth:`extend`, so workers are told
        to wait rather than shut down.
        """
        return (not self.hold and self.state.done
                and self._emitted == len(self.pending_cells))

    def _flush(self) -> None:
        """Emit the longest fully-resolved prefix, in cell order.

        Mirrors the serial runner's ordered flush: a completion can
        only reach the file once every cell before it (in deterministic
        cell order) is done or quarantined — the invariant that keeps
        the file a clean prefix of the serial run at every instant.
        """
        while self._emitted < len(self.pending_cells):
            cell = self.state.cells[self._emitted]
            design, workload = self.pending_cells[self._emitted]
            if cell.status == "quarantined":
                self.campaign.quarantined.append(QuarantinedCell(
                    getattr(design, "name", design), workload,
                    tuple(cell.failures)))
            elif cell.status == "done" and self._emitted in self._results:
                self.campaign.persist_comparison(
                    design, workload, self._results.pop(self._emitted),
                    timing=self._timings.pop(self._emitted, None))
            else:
                break
            self._emitted += 1

    # ---- adaptive cells (held coordinators) -----------------------------

    def _extend(self, cells) -> None:
        for design, workload in cells:
            if self.campaign.has(design, workload):
                continue
            key = _cell_key(design, workload)
            if key in self._index:
                continue
            self._index[key] = len(self.pending_cells)
            self.pending_cells.append((design, workload))
            self._keys.append(key)
            self.state.extend([key])

    def extend(self, cells) -> None:
        """Append (design, workload) cells to the lease table.

        Thread-safe: when the serve loop is running, the mutation is
        marshalled onto the event loop (every state transition stays
        single-threaded) and this call blocks until applied.  Cells the
        campaign already holds, or that are already tracked, are
        ignored.
        """
        cells = list(cells)
        loop = self._loop
        if loop is None or not loop.is_running():
            self._extend(cells)
            return
        applied = threading.Event()

        def _apply() -> None:
            self._extend(cells)
            applied.set()

        loop.call_soon_threadsafe(_apply)
        if not applied.wait(timeout=10.0):
            raise RuntimeError("fabric coordinator did not accept the "
                               "extended cells")

    def release(self) -> None:
        """Lift the adaptive hold: no more cells will arrive.

        Once the table drains, the coordinator reports ``done`` to
        workers and a ``--once`` serve loop winds down after its
        linger.  Callable from any thread.
        """
        loop = self._loop
        if loop is None or not loop.is_running():
            self.hold = False
            return
        loop.call_soon_threadsafe(lambda: setattr(self, "hold", False))

    def cell_status(self, design, workload) -> "str | None":
        """The lease-table status of one cell, or None when untracked."""
        cell = self.state._by_key.get(_cell_key(design, workload))
        return None if cell is None else cell.status

    def summary(self) -> str:
        """The one-line exit summary (parsed by the chaos harness)."""
        counts = self.state.counts()
        return (f"fabric: cells={len(self.pending_cells)} "
                f"emitted={self._emitted} "
                f"reclaimed={counts['reclaimed']} "
                f"duplicates={counts['duplicates']} "
                f"divergent={self.divergent} "
                f"quarantined={counts['quarantined']}")

    # ---- routes ---------------------------------------------------------

    def _route(self, method: str, path: str, body: bytes,
               worker: str) -> tuple[int, bytes, str]:
        try:
            if path.startswith("/cache/"):
                return self._route_cache(method, path, body)
            if method == "GET" and path == "/config":
                return self._ok(self._config_payload())
            if method == "GET" and path == "/status":
                return self._ok(self._status_payload())
            if method == "GET" and path == "/file":
                self.campaign.flush_pending()
                if not self.campaign.path.exists():
                    return 404, b'{"error":"no campaign file"}', \
                        "application/json"
                return (200, self.campaign.path.read_bytes(),
                        "application/octet-stream")
            if method == "POST":
                payload = json.loads(body) if body else {}
                if path == "/lease":
                    return self._ok(self._do_lease(
                        payload.get("worker", worker)))
                if path == "/heartbeat":
                    alive = self.state.heartbeat(
                        payload.get("lease", ""), time.monotonic())
                    return self._ok({"ok": alive})
                if path == "/complete":
                    return self._ok(self._do_complete(payload))
                if path == "/fail":
                    return self._ok(self._do_fail(payload, worker))
            return 404, b'{"error":"no such route"}', "application/json"
        except (KeyError, TypeError, ValueError) as exc:
            detail = json.dumps({"error": str(exc)}).encode("utf-8")
            return 400, detail, "application/json"

    @staticmethod
    def _ok(payload: dict) -> tuple[int, bytes, str]:
        return 200, json.dumps(payload).encode("utf-8"), \
            "application/json"

    def _config_payload(self) -> dict:
        from .. import __version__
        config = self.campaign.harness.config
        return {
            "version": __version__,
            "requests": config.requests,
            "warmup": config.warmup,
            "seed": config.seed,
            "scale": config.scale.factor,
            "engine": config.engine,
            "workloads": list(config.workloads),
            "lease_s": self.policy.timeout_s,
            "caches": {"result": self.result_backend is not None,
                       "trace": self.trace_backend is not None},
        }

    def _status_payload(self) -> dict:
        counts = self.state.counts()
        quarantined = [
            {"design": getattr(design, "name", design),
             "workload": workload,
             "attempts": list(self.state.cells[i].failures)}
            for i, (design, workload) in enumerate(self.pending_cells)
            if self.state.cells[i].status == "quarantined"]
        return {"cells": len(self.pending_cells),
                "emitted": self._emitted,
                "finished": self.finished,
                "divergent": self.divergent,
                "counts": counts,
                "quarantined": quarantined}

    def _do_lease(self, worker: str) -> dict:
        now = time.monotonic()
        lease = self.state.lease(worker, now)
        self._flush()
        if lease is not None:
            design, workload = self.pending_cells[lease.index]
            return {"status": "lease",
                    "cell": wire_cell(design, workload),
                    "lease": lease.lease_id,
                    "attempt": lease.attempt,
                    "lease_s": self.policy.timeout_s}
        if self.finished:
            return {"status": "done"}
        ready_at = self.state.next_ready_at()
        retry = (max(ready_at - now, 0.05) if ready_at is not None
                 else max(self.policy.timeout_s / 4, 0.05))
        # A held coordinator may be extended with a new batch (or
        # released) at any moment; keep idle workers polling fast so
        # they pick it up — and catch the final "done" within linger.
        if self.hold:
            retry = min(retry, 0.2)
        return {"status": "wait", "retry_s": min(retry, 1.0)}

    def _do_complete(self, payload: dict) -> dict:
        design, workload = unwire_cell(payload["cell"])
        key = _cell_key(design, workload)
        digest = hashlib.sha256(
            _canonical(payload["comparison"]).encode("utf-8")).hexdigest()
        verdict = self.state.complete(key, payload.get("lease", ""),
                                      time.monotonic())
        if verdict == "ok":
            index = self._index[key]
            self._results[index] = WorkloadComparison(
                **payload["comparison"])
            timing = payload.get("timing")
            if timing:
                self._timings[index] = timing
            self._hashes[key] = digest
            self._flush()
        elif self._hashes.get(key, digest) != digest:
            self.divergent += 1
        return {"status": verdict, "done": self.finished}

    def _do_fail(self, payload: dict, worker: str) -> dict:
        design, workload = unwire_cell(payload["cell"])
        status = self.state.fail(
            _cell_key(design, workload), payload.get("lease", ""),
            payload.get("worker", worker),
            payload.get("error", "worker reported failure"),
            time.monotonic())
        self._flush()
        return {"status": status, "done": self.finished}

    def _route_cache(self, method: str, path: str,
                     body: bytes) -> tuple[int, bytes, str]:
        parts = path.split("/")
        if len(parts) != 4:
            return 404, b'{"error":"bad cache path"}', "application/json"
        kind, key = parts[2], parts[3]
        backend = {"result": self.result_backend,
                   "trace": self.trace_backend}.get(kind)
        if backend is None or not _hex_key(key):
            return 404, b'{"error":"no such cache"}', "application/json"
        if method == "GET":
            data = backend.get(key)
            if data is None:
                return 404, b'{"error":"miss"}', "application/json"
            return 200, data, "application/octet-stream"
        if method == "PUT":
            backend.put(key, body)
            return 204, b"", "application/octet-stream"
        return 404, b'{"error":"no such route"}', "application/json"

    # ---- HTTP plumbing --------------------------------------------------

    @staticmethod
    async def _read_request(reader) -> tuple[str, str, dict, bytes] | None:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _handle_conn(self, reader, writer) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            worker = headers.get("x-repro-worker", "-")
            action = None
            injector = faults.active()
            if injector is not None:
                self._fault_seq += 1
                action = injector.on_http(
                    f"{method} {path} {worker}", self._fault_seq)
            if action == "drop":
                return                    # partition: no response bytes
            if action == "delay":
                await asyncio.sleep(injector.spec.net_delay_s)
            if action == "error":
                status, payload, ctype = (
                    500, b'{"error":"injected"}', "application/json")
            else:
                status, payload, ctype = self._route(method, path,
                                                     body, worker)
            if action == "disconnect":
                torn = _response(status, payload, ctype)
                writer.write(torn[:len(torn) - max(1, len(payload) // 2)])
                await writer.drain()
                return
            writer.write(_response(status, payload, ctype))
            await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError,
                ValueError, IndexError):
            pass                          # half-open client; drop it
        finally:
            try:
                writer.close()
            except Exception:             # pragma: no cover - defensive
                pass

    # ---- serving --------------------------------------------------------

    async def serve_async(self, host: str = "127.0.0.1", port: int = 0,
                          once: bool = False, announce: bool = True,
                          linger_s: float = 2.0) -> None:
        """Serve until stopped (or, with ``once``, until finished).

        ``once`` keeps serving for ``linger_s`` after the last cell is
        emitted so stragglers' duplicate completions, trailing ``done``
        polls, and a final ``GET /file`` are still answered.
        """
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle_conn, host,
                                            port)
        self.port = server.sockets[0].getsockname()[1]
        self.url = f"http://{host}:{self.port}"
        if announce:
            print(f"fabric: serving {len(self.pending_cells)} cell(s) "
                  f"at {self.url}", flush=True)
        self.ready.set()
        sweep_s = max(min(self.policy.timeout_s / 4, 0.5), 0.05)
        finished_at: float | None = None
        try:
            async with server:
                while not self._stop.is_set():
                    try:
                        await asyncio.wait_for(self._stop.wait(),
                                               timeout=sweep_s)
                    except asyncio.TimeoutError:
                        pass
                    self.state.reclaim_expired(time.monotonic())
                    self._flush()
                    if once and self.finished:
                        if finished_at is None:
                            finished_at = time.monotonic()
                        elif time.monotonic() - finished_at >= linger_s:
                            break
        finally:
            self._flush()
            self.campaign.flush_pending()

    def serve(self, host: str = "127.0.0.1", port: int = 0,
              once: bool = False, announce: bool = True,
              linger_s: float = 2.0) -> None:
        """Blocking wrapper: install env chaos faults, run the loop."""
        faults.install_from_env()
        asyncio.run(self.serve_async(host=host, port=port, once=once,
                                     announce=announce,
                                     linger_s=linger_s))

    def request_stop(self) -> None:
        """Stop the serve loop, callable from any thread.

        A no-op once the loop has already wound down (``once`` mode
        exits on its own; a closed loop means there is nothing left to
        stop)."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            pass        # closed between the check and the call


class CoordinatorThread:
    """A coordinator served on a daemon thread (in-process tests).

    Args:
        coordinator: The coordinator to serve.
        host / port / once / linger_s: Passed to
            :meth:`FabricCoordinator.serve_async`.
    """

    def __init__(self, coordinator: FabricCoordinator,
                 host: str = "127.0.0.1", port: int = 0,
                 once: bool = False, linger_s: float = 2.0) -> None:
        self.coordinator = coordinator
        self._thread = threading.Thread(
            target=lambda: asyncio.run(coordinator.serve_async(
                host=host, port=port, once=once, announce=False,
                linger_s=linger_s)),
            daemon=True)

    def start(self) -> str:
        """Start serving; returns the coordinator URL once bound."""
        self._thread.start()
        if not self.coordinator.ready.wait(timeout=10.0):
            raise RuntimeError("fabric coordinator failed to start")
        return self.coordinator.url

    def wait(self, timeout_s: float = 60.0) -> bool:
        """Wait for the serve loop to end on its own (``once`` mode);
        True when it did."""
        self._thread.join(timeout=timeout_s)
        return not self._thread.is_alive()

    def stop(self, timeout_s: float = 10.0) -> None:
        self.coordinator.request_stop()
        self._thread.join(timeout=timeout_s)
