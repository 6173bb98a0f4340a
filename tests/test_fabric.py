"""Tests of the distributed campaign fabric.

Covers the pure lease table (issue/heartbeat/expiry/quarantine, and
the restart-determinism contract: same seed, same history, same
re-lease order and backoff schedule), the pluggable cache byte stores
(round trips, torn remote bytes read as misses), the HTTP fault hooks
(drop/delay/5xx/disconnect/partition injected below the routing
layer), and the end-to-end contract: a two-worker in-process fleet
produces a campaign file byte-identical to a serial run, and duplicate
completions add zero rows on RunStore ingest.

The full fleet scenarios — worker SIGKILL, lease expiry under a hung
worker, coordinator restart + --resume, partition-then-heal — run real
subprocesses and live in ``repro chaos --scenarios fleet-...`` (see
:mod:`repro.resilience.chaos`); these tests pin the mechanisms those
scenarios compose.
"""

import dataclasses
import json
import socket
import threading

import pytest

from repro.analysis.campaign import Campaign
from repro.analysis.experiments import ExperimentConfig, ExperimentHarness
from repro.designs import registry
from repro.fabric import (
    BackendResultCache,
    FabricClient,
    FabricCoordinator,
    FabricUnreachable,
    CoordinatorThread,
    LocalDirBackend,
    run_worker,
)
from repro.fabric.coordinator import unwire_cell, wire_cell
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
        client = FabricClient(f"http://127.0.0.1:{port}", "w0",
                              attempts=2, backoff_base_s=0.001)
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
        client = FabricClient(served, "wX", attempts=3,
                              backoff_base_s=0.001, backoff_cap_s=0.01)
        assert client.call("GET", "/status")["finished"] is True
        injector = faults.install(FaultSpec(net_error=1.0,
                                            match="GET /status"))
        with pytest.raises(FabricUnreachable):
            client.call("GET", "/status")
        assert injector.counters["net_error"] == 3

    def test_injected_disconnect_tears_mid_body(self, served):
        client = FabricClient(served, "wX", attempts=3,
                              backoff_base_s=0.001, backoff_cap_s=0.01)
        injector = faults.install(FaultSpec(net_disconnect=1.0,
                                            match="GET /config"))
        with pytest.raises(FabricUnreachable):
            client.call("GET", "/config")
        assert injector.counters["net_disconnect"] == 3

    def test_injected_delay_slows_but_succeeds(self, served):
        client = FabricClient(served, "wX", attempts=3)
        injector = faults.install(FaultSpec(net_delay=1.0,
                                            net_delay_s=0.01,
                                            match="GET /status"))
        assert client.call("GET", "/status")["finished"] is True
        assert injector.counters["net_delay"] >= 1

    def test_partition_budget_drops_then_heals(self, served):
        client = FabricClient(served, "wX", attempts=8,
                              backoff_base_s=0.001, backoff_cap_s=0.01)
        injector = faults.install(FaultSpec(partition_n=2, match="wX"))
        assert client.call("GET", "/status")["finished"] is True
        assert injector.counters["partition"] == 2


# ---- end to end -----------------------------------------------------------


class TestFleetEndToEnd:
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
            client = FabricClient(url, "wA")
            reply = client.call("POST", "/lease", {"worker": "wA"})
            comparison = dataclasses.asdict(
                _harness().run_design("Bumblebee", "leela"))
            payload = {"worker": "wA", "lease": reply["lease"],
                       "cell": reply["cell"], "comparison": comparison}
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
            client = FabricClient(url, "wB")
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
