"""Tests of the distributed campaign fabric.

Covers the pure lease table (issue/heartbeat/expiry/quarantine, and
the restart-determinism contract: same seed, same history, same
re-lease order and backoff schedule), the pluggable cache byte stores
(round trips, torn remote bytes read as misses), the HTTP fault hooks
(drop/delay/5xx/disconnect/partition injected below the routing
layer), the exchange contract (one kept-open connection per worker
thread, two exchanges per cell), fuzzed request bodies and framing,
and the end-to-end contract: a two-worker in-process fleet produces a
campaign file byte-identical to a serial run, and duplicate
completions add zero rows on RunStore ingest.

The full fleet scenarios — worker SIGKILL, lease expiry under a hung
worker, coordinator restart + --resume, partition-then-heal — run real
subprocesses and live in ``repro chaos --scenarios fleet-...`` (see
:mod:`repro.resilience.chaos`); these tests pin the mechanisms those
scenarios compose.
"""

import dataclasses
import gc
import io
import json
import logging
import socket
import threading
import time
import urllib.request
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import Campaign
from repro.analysis.experiments import ExperimentConfig, ExperimentHarness
from repro.designs import registry
from repro.fabric import (
    BackendResultCache,
    FabricClient,
    FabricCoordinator,
    FabricUnreachable,
    CoordinatorThread,
    HTTPCacheBackend,
    LocalDirBackend,
    run_worker,
)
from repro.fabric.coordinator import unwire_cell, wire_cell
from repro.fabric import worker as fabric_worker
from repro.fabric.worker import _Heartbeat
from repro.resilience import (FLEET_POLICY, FaultSpec, LeaseTable,
                              Supervision, faults)
from repro.traces.spec import SystemScale, synthetic_spec
from repro.traces.tracecache import TraceCache

FLEET = ExperimentConfig(requests=600, warmup=150, workloads=("leela",))


def _harness() -> ExperimentHarness:
    return ExperimentHarness(FLEET)


# ---- lease table ----------------------------------------------------------


class TestFabricState:
    """The coordinator's lease table (``FabricCoordinator.state``)."""

    def test_leases_issue_in_cell_order(self):
        state = LeaseTable(["a::x", "b::x", "c::x"], FLEET_POLICY)
        issued = [state.lease(f"w{i}", 0.0).index for i in range(3)]
        assert issued == [0, 1, 2]
        assert state.lease("w9", 0.0) is None       # nothing left

    def test_heartbeat_extends_expiry_reclaims(self):
        policy = Supervision(timeout_s=5.0)
        state = LeaseTable(["a::x"], policy)
        lease = state.lease("w1", 0.0)
        assert lease.deadline == 5.0
        assert state.heartbeat(lease.lease_id, 4.0)
        assert state.reclaim_expired(6.0) == 0      # extended to 9.0
        assert state.reclaim_expired(9.5) == 1
        assert state.reclaimed == 1
        assert not state.heartbeat(lease.lease_id, 9.6)
        # The cell comes back after its backoff delay, as a new attempt.
        release = state.lease("w2", 20.0)
        assert release is not None
        assert release.attempt == 1

    def test_quarantine_on_distinct_workers(self):
        policy = Supervision(quarantine_workers=2, max_attempts=10)
        state = LeaseTable(["a::x"], policy)
        lease = state.lease("w1", 0.0)
        assert state.fail("a::x", lease.lease_id, "w1", "boom",
                          1.0) == "pending"
        lease = state.lease("w2", 50.0)
        assert state.fail("a::x", lease.lease_id, "w2", "boom",
                          51.0) == "quarantined"
        assert state.done
        assert state.counts()["quarantined"] == 1

    def test_quarantine_on_attempt_budget(self):
        policy = Supervision(quarantine_workers=99, max_attempts=2)
        state = LeaseTable(["a::x"], policy)
        lease = state.lease("w1", 0.0)
        assert state.fail("a::x", lease.lease_id, "w1", "boom",
                          1.0) == "pending"
        lease = state.lease("w1", 50.0)
        assert state.fail("a::x", lease.lease_id, "w1", "boom",
                          51.0) == "quarantined"

    def test_duplicate_completions_counted_not_fatal(self):
        state = LeaseTable(["a::x"], FLEET_POLICY)
        lease = state.lease("w1", 0.0)
        assert state.complete("a::x", lease.lease_id, 1.0) == "ok"
        assert state.complete("a::x", "stale", 2.0) == "duplicate"
        assert state.complete("ghost::x", "stale", 3.0) == "duplicate"
        assert state.duplicates == 2
        assert state.done

    def test_orphaned_completion_merges_on_arrival(self):
        # An expired lease does not reject the (correct) result.
        state = LeaseTable(["a::x"], Supervision(timeout_s=1.0))
        lease = state.lease("w1", 0.0)
        state.reclaim_expired(2.0)
        assert state.complete("a::x", lease.lease_id, 2.5) == "ok"
        assert state.counts()["done"] == 1

    def test_restart_replays_identical_release_schedule(self):
        # Satellite: same seed, same failure history => a restarted
        # coordinator re-issues cells in the same order with the same
        # backoff spacing.
        policy = Supervision(timeout_s=1.0, max_attempts=6, seed=7,
                             quarantine_workers=99)
        def replay():
            state = LeaseTable(["a::x", "b::x", "c::x"], policy)
            for worker in ("w1", "w2", "w3"):
                state.lease(worker, 0.0)
            state.reclaim_expired(2.0)      # all three expire together
            schedule = [state.next_ready_at()]
            order = []
            while (lease := state.lease("w4", 30.0)) is not None:
                order.append((lease.lease_id, lease.attempt))
                schedule.append(state.next_ready_at())
            return order, schedule
        first = replay()
        second = replay()
        assert first == second
        assert len(first[0]) == 3
        # Jitter is real: per-key delays differ from one another.
        delays = {ready for ready in first[1] if ready is not None}
        assert len(delays) >= 2

    def test_different_seed_different_schedule(self):
        def schedule(seed):
            policy = Supervision(timeout_s=1.0, seed=seed,
                                 backoff_base_s=1.0, backoff_cap_s=60.0)
            state = LeaseTable(["a::x"], policy)
            state.lease("w1", 0.0)
            state.reclaim_expired(2.0)
            return state.next_ready_at()
        assert schedule(1) != schedule(2)

    def test_coordinator_needs_a_lease_length(self, tmp_path):
        campaign = Campaign(_harness(), tmp_path / "c.jsonl")
        with pytest.raises(ValueError, match="lease length"):
            FabricCoordinator(campaign, ["Bumblebee"], ["leela"],
                              policy=Supervision())


# ---- cell wire format -----------------------------------------------------


class TestWireCell:
    def test_name_round_trip(self):
        design, workload = unwire_cell(wire_cell("Bumblebee", "leela"))
        assert (design, workload) == ("Bumblebee", "leela")

    def test_spec_round_trip(self):
        spec = registry.spec("Bumblebee")
        design, workload = unwire_cell(wire_cell(spec, "mcf"))
        assert design == spec
        assert workload == "mcf"


# ---- cache backends -------------------------------------------------------


class TestCacheBackends:
    def test_local_dir_round_trip(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "store", ".json")
        assert backend.get("ab" * 32) is None
        backend.put("ab" * 32, b"payload")
        assert backend.get("ab" * 32) == b"payload"
        assert (tmp_path / "store" / f"{'ab' * 32}.json").exists()

    def test_result_cache_round_trip_and_torn_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path, ".json")
        cache = BackendResultCache(backend)
        key = "cd" * 32
        assert cache.get(key) is None
        cache.put(key, {"norm_ipc": 1.25, "workload": "leela"})
        assert cache.get(key) == {"norm_ipc": 1.25, "workload": "leela"}
        assert (cache.hits, cache.misses) == (1, 1)
        # A torn concurrent put (valid prefix, truncated) is a miss.
        entry = tmp_path / f"{key}.json"
        entry.write_bytes(entry.read_bytes()[:-10])
        assert cache.get(key) is None
        assert cache.misses == 2

    def test_result_cache_unreachable_backend_is_miss(self):
        class Down:
            def get(self, key):
                raise ConnectionError("gone")
        cache = BackendResultCache(Down())
        assert cache.get("ef" * 32) is None

    def test_damaged_remote_bytes_retried_once_and_kept(self):
        # A store without ``discard`` (the HTTP one) is read twice on
        # damage and then left alone: the coordinator owns its healing.
        class Remote:
            def __init__(self):
                self.gets = 0

            def get(self, key):
                self.gets += 1
                return b'{"digest": "00", "record": {}}'
        store = Remote()
        cache = BackendResultCache(store)
        assert cache.get("ab" * 32) is None
        assert (store.gets, cache.misses) == (2, 1)

    def test_trace_cache_round_trip_and_torn_miss(self, tmp_path):
        spec = synthetic_spec("mcf", SystemScale(1 / 256))
        backend = LocalDirBackend(tmp_path, ".trace")
        cache = TraceCache(backend=backend)
        assert cache.root is None
        trace = cache.get_or_generate(spec, 2000, 9)
        assert cache.counters()["generated"] == 1
        warm = TraceCache(backend=backend)
        assert warm.get_or_generate(spec, 2000, 9) == trace
        assert warm.counters()["hits"] == 1
        assert warm.counters()["generated"] == 0
        # Truncate the stored payload: reads as a miss, regenerates.
        entry = tmp_path / f"{cache.key_for(spec, 2000, 9)}.trace"
        entry.write_bytes(entry.read_bytes()[:-16])
        torn = TraceCache(backend=backend)
        assert torn.get(spec, 2000, 9) is None
        assert not entry.exists()             # persistent damage dropped
        assert torn.get_or_generate(spec, 2000, 9) == trace

    def test_local_store_maintenance(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "store", ".json")
        assert (len(backend), backend.clear()) == (0, 0)
        for key in ("ab" * 32, "cd" * 32):
            backend.put(key, b"x")
        (tmp_path / "store" / "stray.trace").write_bytes(b"y")
        assert len(backend) == 2              # only its own suffix
        backend.discard("ab" * 32)
        backend.discard("ab" * 32)            # best effort, no error
        assert backend.get("ab" * 32) is None
        assert (backend.clear(), len(backend)) == (1, 0)


# ---- worker client --------------------------------------------------------


class TestFabricClient:
    def test_unreachable_raises_oserror_subclass(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with FabricClient(f"http://127.0.0.1:{port}", "w0",
                          attempts=2, backoff_base_s=0.001) as client:
            with pytest.raises(FabricUnreachable) as failure:
                client.call("GET", "/config")
        assert isinstance(failure.value, OSError)


# ---- HTTP fault injection -------------------------------------------------


class TestNetworkFaults:
    @pytest.fixture()
    def served(self, tmp_path):
        campaign = Campaign(_harness(), tmp_path / "empty.jsonl",
                            record_timing=False)
        coordinator = FabricCoordinator(campaign, (), ("leela",))
        thread = CoordinatorThread(coordinator)
        url = thread.start()
        yield url
        faults.uninstall()
        thread.stop()

    def test_injected_5xx_exhausts_retry_budget(self, served):
        with FabricClient(served, "wX", attempts=3, backoff_base_s=0.001,
                          backoff_cap_s=0.01) as client:
            assert client.call("GET", "/status")["finished"] is True
            injector = faults.install(FaultSpec(net_error=1.0,
                                                match="GET /status"))
            with pytest.raises(FabricUnreachable):
                client.call("GET", "/status")
            # Giving up closes the connection the 500s kept open.
            assert client._local.conn is None
        assert injector.counters["net_error"] == 3

    def test_injected_disconnect_tears_mid_body(self, served):
        injector = faults.install(FaultSpec(net_disconnect=1.0,
                                            match="GET /config"))
        with FabricClient(served, "wX", attempts=3, backoff_base_s=0.001,
                          backoff_cap_s=0.01) as client:
            with pytest.raises(FabricUnreachable):
                client.call("GET", "/config")
        assert injector.counters["net_disconnect"] == 3

    def test_injected_delay_slows_but_succeeds(self, served):
        injector = faults.install(FaultSpec(net_delay=1.0,
                                            net_delay_s=0.01,
                                            match="GET /status"))
        with FabricClient(served, "wX", attempts=3) as client:
            assert client.call("GET", "/status")["finished"] is True
        assert injector.counters["net_delay"] >= 1

    def test_partition_budget_drops_then_heals(self, served):
        injector = faults.install(FaultSpec(partition_n=2, match="wX"))
        with FabricClient(served, "wX", attempts=8, backoff_base_s=0.001,
                          backoff_cap_s=0.01) as client:
            assert client.call("GET", "/status")["finished"] is True
        assert injector.counters["partition"] == 2


# ---- end to end -----------------------------------------------------------


class TestFleetEndToEnd:
    def test_busy_port_fails_to_start_at_once(self, tmp_path):
        campaign = Campaign(_harness(), tmp_path / "c.jsonl")
        coordinator = FabricCoordinator(campaign, ["Bumblebee"], ["leela"])
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            thread = CoordinatorThread(coordinator,
                                       port=busy.getsockname()[1])
            started = time.monotonic()
            with pytest.raises(OSError, match="address already in use"):
                thread.start()
        assert time.monotonic() - started < 5.0
        assert thread.wait(timeout_s=5.0)

    def test_two_workers_match_serial_reference(self, tmp_path):
        designs, workloads = ("Bumblebee", "Banshee"), ("leela",)
        reference = Campaign(_harness(), tmp_path / "ref.jsonl",
                             record_timing=False)
        reference.run(designs, workloads)
        ref_bytes = (tmp_path / "ref.jsonl").read_bytes()

        campaign = Campaign(_harness(), tmp_path / "fleet.jsonl",
                            record_timing=False)
        coordinator = FabricCoordinator(campaign, designs, workloads)
        thread = CoordinatorThread(coordinator)
        url = thread.start()
        try:
            completed = []
            crews = [threading.Thread(
                target=lambda wid=f"w{i}": completed.append(
                    run_worker(url, wid, harness=_harness(),
                               local_caches=True)))
                for i in range(2)]
            for crew in crews:
                crew.start()
            for crew in crews:
                crew.join(timeout=120.0)
        finally:
            thread.stop()
        assert (tmp_path / "fleet.jsonl").read_bytes() == ref_bytes
        assert sum(completed) == len(designs) * len(workloads)
        assert coordinator.finished
        assert ("reclaimed=0 duplicates=0 divergent=0 quarantined=0"
                in coordinator.summary())

    def test_duplicate_completion_adds_zero_rows(self, tmp_path):
        from repro.observatory import RunStore
        campaign = Campaign(_harness(), tmp_path / "dup.jsonl",
                            record_timing=False)
        coordinator = FabricCoordinator(campaign, ("Bumblebee",),
                                        ("leela",))
        thread = CoordinatorThread(coordinator)
        url = thread.start()
        try:
            with FabricClient(url, "wA") as client:
                reply = client.call("POST", "/lease", {"worker": "wA"})
                comparison = dataclasses.asdict(
                    _harness().run_design("Bumblebee", "leela"))
                payload = {"worker": "wA", "lease": reply["lease"],
                           "cell": reply["cell"],
                           "comparison": comparison}
                first = client.call("POST", "/complete", payload)
                second = client.call("POST", "/complete",
                                     dict(payload, worker="wB",
                                          lease="stale"))
        finally:
            thread.stop()
        assert first["status"] == "ok" and first["done"] is True
        assert second["status"] == "duplicate"
        assert coordinator.state.duplicates == 1
        assert coordinator.divergent == 0
        lines = (tmp_path / "dup.jsonl").read_text().splitlines()
        assert len(lines) == 1
        store = RunStore(tmp_path / "runs.db")
        assert store.ingest_jsonl(tmp_path / "dup.jsonl",
                                  source="campaign") == (1, 1)
        # Re-ingest (the duplicate's would-be rows): zero new.
        assert store.ingest_jsonl(tmp_path / "dup.jsonl",
                                  source="campaign") == (0, 1)
        assert store.run_count == 1

    def test_served_file_and_status_routes(self, tmp_path):
        campaign = Campaign(_harness(), tmp_path / "served.jsonl",
                            record_timing=False)
        coordinator = FabricCoordinator(campaign, ("Bumblebee",),
                                        ("leela",))
        thread = CoordinatorThread(coordinator)
        url = thread.start()
        try:
            run_worker(url, "wA", harness=_harness(), local_caches=True)
            with FabricClient(url, "wB") as client:
                status, data = client.request("GET", "/file")
                state = client.call("GET", "/status")
        finally:
            thread.stop()
        assert status == 200
        assert data == (tmp_path / "served.jsonl").read_bytes()
        assert json.loads(data.splitlines()[0])["design"] == "Bumblebee"
        assert state["finished"] is True
        assert state["cells"] == state["emitted"] == 1

    def test_resume_serves_only_missing_cells(self, tmp_path):
        designs, workloads = ("Bumblebee", "Banshee"), ("leela",)
        path = tmp_path / "resume.jsonl"
        first = Campaign(_harness(), path, record_timing=False)
        first.run(("Bumblebee",), workloads)     # pre-fill one cell
        campaign = Campaign(_harness(), path, record_timing=False)
        coordinator = FabricCoordinator(campaign, designs, workloads)
        assert len(coordinator.pending_cells) == 1   # only Banshee left
        thread = CoordinatorThread(coordinator)
        url = thread.start()
        try:
            completed = run_worker(url, "wA", harness=_harness(),
                                   local_caches=True)
        finally:
            thread.stop()
        assert completed == 1
        reference = Campaign(_harness(), tmp_path / "ref.jsonl",
                             record_timing=False)
        reference.run(designs, workloads)
        assert path.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


# ---- exchange contract ----------------------------------------------------


def _served(coordinator, **kwargs):
    thread = CoordinatorThread(coordinator, **kwargs)
    return thread, thread.start()


def _await(condition, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _open_connections(coordinator) -> int:
    return len(coordinator._idle)


class _RecordingClient(FabricClient):
    """Records each exchange as ``METHOD route`` (cache keys dropped)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.exchanges = Counter()

    def request(self, method, path, body=None, raw=False):
        route = path.rsplit("/", 1)[0] if path.startswith("/cache/") \
            else path
        self.exchanges[f"{method} {route}"] += 1
        return super().request(method, path, body=body, raw=raw)


class TestExchangeContract:
    def test_one_connection_two_exchanges_per_cell(self, tmp_path):
        designs, workloads = ("Bumblebee", "Banshee"), ("leela", "mcf")
        config = dataclasses.replace(FLEET, workloads=workloads)
        results = LocalDirBackend(tmp_path / "results", ".json")
        traces = LocalDirBackend(tmp_path / "traces", ".trace")
        campaign = Campaign(ExperimentHarness(config),
                            tmp_path / "fleet.jsonl", record_timing=False)
        coordinator = FabricCoordinator(campaign, designs, workloads,
                                        result_backend=results,
                                        trace_backend=traces)
        thread, url = _served(coordinator)
        client = _RecordingClient(url, "wA")
        try:
            completed = run_worker(url, "wA", client=client)
            assert _await(lambda: _open_connections(coordinator) == 0)
        finally:
            thread.stop()
        cells = len(designs) * len(workloads)
        assert completed == cells
        # Per cell: its result GET and its /complete; per workload: the
        # baseline's result GET and the trace GET + PUT.  No result PUT,
        # no further /lease: both ride on /complete.
        assert client.exchanges == {
            "GET /config": 1, "POST /lease": 1,
            "GET /cache/result": cells + len(workloads),
            "POST /complete": cells,
            "GET /cache/trace": len(workloads),
            "PUT /cache/trace": len(workloads)}
        assert coordinator.connections == 1
        assert coordinator.requests == sum(client.exchanges.values())
        assert "requests=16 connections=1" in coordinator.summary()
        # Every cell's and every baseline's entry reached the store.
        warm = ExperimentHarness(config)
        warm.cache = BackendResultCache(results)
        for design in designs:
            for workload in workloads:
                warm.run_design(design, workload)
        for workload in workloads:
            warm.baseline(workload)
        assert (warm.cache.hits, warm.cache.misses) == (
            cells + len(workloads), 0)

    def test_next_lease_and_cache_ride_on_reports(self, tmp_path):
        results = LocalDirBackend(tmp_path / "results", ".json")
        campaign = Campaign(_harness(), tmp_path / "next.jsonl",
                            record_timing=False)
        # A minute of backoff: the failed cell cannot come back while
        # the test computes the other one.
        coordinator = FabricCoordinator(
            campaign, ("Bumblebee", "Banshee"), ("leela",),
            policy=dataclasses.replace(FLEET_POLICY, backoff_base_s=60.0,
                                       backoff_cap_s=60.0),
            result_backend=results)
        thread, url = _served(coordinator)
        client = FabricClient(url, "wA")
        try:
            first = client.call("POST", "/lease", {"worker": "wA"})
            failed = client.call("POST", "/fail", {
                "worker": "wA", "lease": first["lease"],
                "cell": first["cell"], "error": "boom", "next": True,
                "cache": {"result": {"ab" * 32: "entrée"}}})
            comparison = _harness().run_design("Banshee", "leela")
            done = client.call("POST", "/complete", {
                "worker": "wA", "lease": failed["next"]["lease"],
                "cell": failed["next"]["cell"],
                "comparison": comparison.to_record(), "next": True})
        finally:
            client.close()
            thread.stop()
        assert failed["status"] == "pending"
        assert failed["next"]["status"] == "lease"
        assert unwire_cell(failed["next"]["cell"]) == ("Banshee", "leela")
        assert results.get("ab" * 32) == "entrée".encode("latin-1")
        # Bumblebee is still in its retry backoff: the next lease waits.
        assert done["status"] == "ok"
        assert done["next"]["status"] == "wait"
        assert coordinator.connections == 1

    def test_deferred_puts_wait_then_flush_as_puts(self, tmp_path):
        results = LocalDirBackend(tmp_path / "results", ".json")
        campaign = Campaign(_harness(), tmp_path / "puts.jsonl",
                            record_timing=False)
        coordinator = FabricCoordinator(campaign, (), ("leela",),
                                        result_backend=results)
        thread, url = _served(coordinator)
        client = FabricClient(url, "wA")
        store = HTTPCacheBackend(client, "result", defer_puts=True)
        try:
            store.put("ab" * 32, b"first")
            store.put("cd" * 32, b"\xff\x00")
            assert coordinator.requests == 0          # nothing sent yet
            # Latin-1 text carries any bytes through the JSON report.
            assert store.take_pending() == {"ab" * 32: "first",
                                            "cd" * 32: "\xff\x00"}
            assert store.pending == {}
            store.put("ef" * 32, b"\xff\x00")
            store.flush()
            assert store.pending == {}
        finally:
            client.close()
            thread.stop()
        assert coordinator.requests == 1
        assert len(results) == 1
        assert results.get("ef" * 32) == b"\xff\x00"

    def test_idle_connection_closed_by_coordinator_is_reopened(
            self, tmp_path):
        def coordinator():
            campaign = Campaign(_harness(), tmp_path / "idle.jsonl",
                                record_timing=False)
            return FabricCoordinator(campaign, (), ("leela",))
        first = coordinator()
        thread, url = _served(first)
        client = FabricClient(url, "wA", attempts=1)
        try:
            assert client.call("GET", "/status")["finished"] is True
            thread.stop()         # closes the client's idle connection
            second = coordinator()
            thread, _ = _served(second, port=first.port)
            # Not one retry attempt is spent on the stale connection.
            assert client.call("GET", "/status")["finished"] is True
        finally:
            client.close()
            thread.stop()
        assert second.connections == 1

    def test_connection_close_client_is_served_then_closed(self, tmp_path):
        campaign = Campaign(_harness(), tmp_path / "close.jsonl",
                            record_timing=False)
        coordinator = FabricCoordinator(campaign, (), ("leela",))
        thread, url = _served(coordinator)
        try:
            with urllib.request.urlopen(f"{url}/status",
                                        timeout=5.0) as resp:
                assert json.loads(resp.read())["finished"] is True
            for request in (b"GET /status HTTP/1.1\r\n"
                            b"Connection: close\r\n\r\n",
                            b"GET /status HTTP/1.0\r\n\r\n"):
                with socket.create_connection(
                        ("127.0.0.1", coordinator.port), timeout=5) as sock:
                    sock.sendall(request)
                    reply = _read_to_eof(sock)
                assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
                assert b"\r\nConnection: close\r\n" in reply
            assert _await(lambda: _open_connections(coordinator) == 0)
        finally:
            thread.stop()
        assert coordinator.connections == 3

    def test_heartbeat_closes_its_own_connection(self, tmp_path):
        campaign = Campaign(_harness(), tmp_path / "beat.jsonl",
                            record_timing=False)
        coordinator = FabricCoordinator(campaign, (), ("leela",))
        thread, url = _served(coordinator)
        client = FabricClient(url, "wH")
        beat = _Heartbeat(client, "no-such-lease", 0.01)
        gc.collect()          # earlier tests' unclosed clients warn here
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                beat.start()
                assert _await(lambda: coordinator.requests >= 2)
                beat.stop()
                beat._thread.join(timeout=5.0)
                gc.collect()
            assert not beat._thread.is_alive()
            assert _await(lambda: _open_connections(coordinator) == 0)
        finally:
            thread.stop()
        assert coordinator.connections == 1
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_once_coordinator_exits_with_an_idle_connection_open(
            self, tmp_path):
        campaign = Campaign(_harness(), tmp_path / "once.jsonl",
                            record_timing=False)
        coordinator = FabricCoordinator(campaign, (), ("leela",))
        thread, url = _served(coordinator, once=True, linger_s=0.3)
        client = FabricClient(url, "wA")
        try:
            assert client.call("GET", "/status")["finished"] is True
            assert _open_connections(coordinator) == 1
            assert thread.wait(timeout_s=5.0)
        finally:
            client.close()
            thread.stop()


# ---- malformed requests ---------------------------------------------------


def _read_to_eof(sock) -> bytes:
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


def _read_reply(stream) -> "int | None":
    """Status of the next reply on ``stream``, None once it is closed."""
    line = stream.readline()
    if not line:
        return None
    length = 0
    while (header := stream.readline()) not in (b"\r\n", b""):
        name, _, value = header.decode("latin-1").partition(":")
        if name.lower() == "content-length":
            length = int(value)
    stream.read(length)
    return int(line.split()[1])


class _Errors(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(scope="module")
def fuzzed(tmp_path_factory):
    """A coordinator with nothing to lease and its asyncio error log."""
    campaign = Campaign(_harness(),
                        tmp_path_factory.mktemp("fuzz") / "fuzz.jsonl",
                        record_timing=False)
    coordinator = FabricCoordinator(campaign, (), ("leela",))
    errors = _Errors()
    logging.getLogger("asyncio").addHandler(errors)
    thread, _ = _served(coordinator)
    counts = coordinator.state.counts()
    try:
        yield coordinator, errors
        assert not errors.records, [r.getMessage() for r in errors.records]
        assert coordinator.state.counts() == counts
        with socket.create_connection(("127.0.0.1", coordinator.port),
                                      timeout=5) as sock:
            sock.sendall(b"GET /status HTTP/1.1\r\n\r\n")
            assert _read_reply(sock.makefile("rb")) == 200
    finally:
        thread.stop()
        logging.getLogger("asyncio").removeHandler(errors)


_ROUTES = ("/lease", "/heartbeat", "/complete", "/fail")
_FIELDS = ("worker", "lease", "cell", "comparison", "error", "next",
           "cache", "timing", "spec", "design", "workload", "result")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(_FIELDS) | st.text(max_size=4), inner,
        max_size=5),
    max_leaves=12)


def _post(coordinator, route: str, body: bytes) -> int:
    with socket.create_connection(("127.0.0.1", coordinator.port),
                                  timeout=5) as sock:
        sock.sendall(f"POST {route} HTTP/1.1\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n".encode()
                     + body)
        return _read_reply(sock.makefile("rb"))


class TestRequestFuzz:
    """Whatever a client sends, the coordinator answers 2xx/4xx or
    closes the connection, logs no unhandled exception, moves no lease
    state, and keeps serving (checked by the ``fuzzed`` fixture)."""

    @pytest.mark.parametrize("route, body", [
        ("/lease", b"[]"), ("/lease", b"1"), ("/heartbeat", b'"x"'),
        ("/complete", b"null"), ("/fail", b"[1, 2]")])
    def test_non_object_body_is_400_naming_the_route(self, fuzzed, route,
                                                     body):
        coordinator, _ = fuzzed
        client = FabricClient(f"http://127.0.0.1:{coordinator.port}",
                              "wF", attempts=1)
        try:
            status, data = client.request("POST", route, body=body)
            # The same connection serves the next request.
            assert client.call("GET", "/status")["finished"] is True
        finally:
            client.close()
        assert status == 400
        assert json.loads(data)["error"] == \
            f"POST {route}: body must be a JSON object"

    @settings(max_examples=80, deadline=None)
    @given(route=st.sampled_from(_ROUTES), value=_JSON)
    def test_json_bodies(self, fuzzed, route, value):
        status = _post(fuzzed[0], route, json.dumps(value).encode())
        assert status is not None and 200 <= status < 500

    @settings(max_examples=40, deadline=None)
    @given(route=st.sampled_from(_ROUTES), body=st.binary(max_size=48))
    def test_raw_bodies(self, fuzzed, route, body):
        status = _post(fuzzed[0], route, body)
        assert status is not None and 200 <= status < 500

    @settings(max_examples=40, deadline=None)
    @given(head=st.one_of(
        st.binary(max_size=40),
        st.sampled_from([b"GET\r\n", b"GET /status\r\n",
                         b"GET /status HTTP/1.1 extra\r\n"]),
        st.from_regex(rb"\AContent-Length: [-+a-z0-9. ]{0,6}\r\n\Z")
        .map(lambda header: b"POST /lease HTTP/1.1\r\n" + header)))
    def test_malformed_framing(self, fuzzed, head):
        with socket.create_connection(("127.0.0.1", fuzzed[0].port),
                                      timeout=5) as sock:
            sock.sendall(head + b"\r\n")
            sock.shutdown(socket.SHUT_WR)
            stream = sock.makefile("rb")
            while (status := _read_reply(stream)) is not None:
                assert 200 <= status < 500

    def test_truncated_body_closes_the_connection(self, fuzzed):
        with socket.create_connection(("127.0.0.1", fuzzed[0].port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /lease HTTP/1.1\r\n"
                         b"Content-Length: 100\r\n\r\n{\"worker\"")
            sock.shutdown(socket.SHUT_WR)
            assert _read_to_eof(sock) == b""

    def test_pipelined_requests_answered_in_order(self, fuzzed):
        with socket.create_connection(("127.0.0.1", fuzzed[0].port),
                                      timeout=5) as sock:
            sock.sendall(b"GET /status HTTP/1.1\r\n\r\n"
                         b"GET /nowhere HTTP/1.1\r\n\r\n"
                         b"POST /lease HTTP/1.1\r\n"
                         b"Content-Length: 2\r\n\r\n{}")
            stream = sock.makefile("rb")
            assert [_read_reply(stream) for _ in range(3)] == \
                [200, 404, 200]


# ---- malformed replies ----------------------------------------------------


def _parse(reply: bytes):
    """``fabric.worker._read_reply`` over ``reply`` as the client reads it."""
    stream = io.BytesIO(reply)
    return fabric_worker._read_reply(
        stream.readline(fabric_worker._MAX_LINE), stream)


_STATUS_LINES = st.sampled_from([
    b"HTTP/1.1 200 OK\r\n", b"HTTP/1.1 404 Not Found\r\n",
    b"HTTP/1.0 200 OK\r\n", b"HTTP/1.1 599\r\n", b"HTTP/1.1 -1 OK\r\n",
    b"HTTP/1.1 99999 OK\r\n", b"HTTP/1.1 099 OK\r\n", b"HTTP/1.1\r\n",
    b"\r\n"])
_HEADERS = st.lists(st.sampled_from([
    b"Connection: close\r\n", b"Connection: keep-alive\r\n",
    b"Content-Type: application/json\r\n", b"X: y\r\n",
    b"Content-Length: 0\r\n", b"Content-Length: 3\r\n",
    b"Content-Length: 9\r\n", b"Content-Length: -2\r\n",
    b"Content-Length: +3\r\n", b"Content-Length: 1_0\r\n"]), max_size=4)


class TestReplyParser:
    """The worker's reply parser returns a whole ``(status, body,
    close)`` or raises ``ValueError`` / ``ConnectionError``: a reply it
    cannot frame must never read as a success or desynchronise the
    kept-open connection."""

    def test_well_formed_reply(self):
        assert _parse(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
                      b"HTTP/1.1 ...") == (200, b"{}", False)
        assert _parse(b"HTTP/1.1 503 X\r\nConnection: close\r\n"
                      b"Content-Length: 0\r\n\r\n") == (503, b"", True)

    @pytest.mark.parametrize("status", [
        b"-1", b"99999", b"20", b"600", b"099", b"2O0", b"+20",
        "٢٠٠".encode()])
    def test_status_must_be_three_digits_in_range(self, status):
        with pytest.raises(ValueError, match="status"):
            _parse(b"HTTP/1.1 " + status + b" OK\r\n"
                   b"Content-Length: 2\r\n\r\n{}")

    def test_conflicting_content_lengths(self):
        with pytest.raises(ValueError, match="Content-Length"):
            _parse(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                   b"Content-Length: 1\r\n\r\n{}")
        # A repeated equal value frames the same body.
        assert _parse(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                      b"Content-Length: 2\r\n\r\n{}")[1] == b"{}"

    @pytest.mark.parametrize("value", [b"-1", b"+2", b"1_0", b"", b"2 2"])
    def test_content_length_must_be_digits(self, value):
        with pytest.raises(ValueError, match="Content-Length"):
            _parse(b"HTTP/1.1 200 OK\r\nContent-Length: " + value
                   + b"\r\n\r\n{}")

    def test_overlong_header_line_is_refused(self):
        """Read on, the tail of the long line would parse as its own
        header line and the ``Content-Length`` after it would be
        missed, leaving the body on the connection."""
        long = b"X-Pad: " + b"a" * fabric_worker._MAX_LINE + b"\r\n"
        with pytest.raises(ValueError, match="longer than"):
            _parse(b"HTTP/1.1 200 OK\r\n" + long
                   + b"Content-Length: 2\r\n\r\n{}")
        # A line that just fits, newline included, is fine.
        fits = b"X-Pad: " + b"a" * (fabric_worker._MAX_LINE - 9) + b"\r\n"
        assert len(fits) == fabric_worker._MAX_LINE
        assert _parse(b"HTTP/1.1 200 OK\r\n" + fits
                      + b"Content-Length: 2\r\n\r\n{}") == \
            (200, b"{}", False)

    def test_overlong_status_line_is_refused(self):
        with pytest.raises(ValueError, match="longer than"):
            _parse(b"HTTP/1.1 200 " + b"O" * fabric_worker._MAX_LINE
                   + b"\r\nContent-Length: 0\r\n\r\n")

    def test_bad_status_is_retried_not_returned(self):
        """Through :meth:`FabricClient.request` a reply with status -1
        is a failed exchange, not a success whose body ``call``
        decodes."""
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def answer():
            conn, _ = server.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"HTTP/1.1 -1 OK\r\nContent-Length: 2\r\n"
                             b"\r\n{}")
        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        try:
            with FabricClient(f"http://127.0.0.1:{port}", "wR",
                              attempts=1) as client:
                with pytest.raises(FabricUnreachable, match="status"):
                    client.request("GET", "/status")
        finally:
            thread.join(5)
            server.close()

    @settings(max_examples=300, deadline=None)
    @given(reply=st.binary(max_size=120) | st.builds(
        lambda line, headers, rest: line + b"".join(headers) + b"\r\n"
        + rest,
        _STATUS_LINES, _HEADERS, st.binary(max_size=12)))
    def test_arbitrary_bytes_parse_whole_or_raise(self, reply):
        try:
            status, body, close = _parse(reply)
        except (ValueError, ConnectionError):
            return
        assert 100 <= status <= 599 and isinstance(close, bool)
        assert body in reply

    @settings(max_examples=200, deadline=None)
    @given(headers=_HEADERS, body=st.binary(max_size=12))
    def test_body_is_never_short(self, headers, body):
        """A reply either yields exactly its declared body or raises."""
        reply = b"HTTP/1.1 200 OK\r\n" + b"".join(headers) + b"\r\n" + body
        lengths = {h.split(b":")[1].strip() for h in headers
                   if h.startswith(b"Content-Length")}
        try:
            _, got, _ = _parse(reply)
        except ValueError:
            assert len(lengths) > 1 or not all(v.isdigit() for v in lengths)
            return
        except ConnectionError:
            assert int(lengths.pop()) > len(body)
            return
        declared = int(lengths.pop()) if lengths else 0
        assert got == body[:declared] and len(got) == declared
