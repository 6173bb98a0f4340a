"""The vectorized epoch replay engine (``repro.sim.vectorized``).

The contract mirrors ``tests/test_packed_traces.py``'s: the epoch
engine is an *engine*, not a model — every :class:`SimResult` it
produces must be bit-identical to the scalar reference loop, across
warm-up boundaries, request caps, epoch sizes, and page-fault-heavy
footprints.  Every registered design must take it, a controller without
``batch_epoch_plan`` must fall back to the scalar loop transparently,
and the harness must record which engine ran in its per-cell timing.
"""

import dataclasses
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExperimentConfig, ExperimentHarness
from repro.baselines import HybridMemoryController
from repro.baselines.mempod import MemPodController
from repro.core import (AllocationPolicy, BumblebeeConfig,
                        BumblebeeController)
from repro.designs import registry
from repro.mem import ddr4_3200_config, hbm2_config
from repro.sim import SimulationDriver, fallback_reason
from repro.sim.vectorized import (EpochPlan, ScriptRecorder,
                                  _row_outcomes)
from repro.traces import SyntheticTraceGenerator, synthetic_spec
from repro.traces.packed import PackedTrace, encode_request

CONFIG = ExperimentConfig(requests=1200, warmup=400, workloads=("mcf",))
#: The designs whose plans script nothing.
PLAIN_DESIGNS = ("No-HBM", "Ideal")
#: Every registered spec: all of them take the two-pass epoch engine.
#: Derived from the registry so a design added later joins the
#: bit-identity matrix automatically.
EPOCH_DESIGNS = tuple(registry.names())
N = 1700


def _trace(harness, n=N, seed=None):
    spec = synthetic_spec("mcf", harness.config.scale)
    return SyntheticTraceGenerator(
        spec, seed=seed if seed is not None else harness.config.seed
    ).generate_packed(n)


def _run(harness, design, trace, engine, warmup=0, max_requests=None,
         vector_epoch=None):
    driver = SimulationDriver(harness.config.cpu,
                              vector_epoch=vector_epoch)
    result = driver.run(
        registry.build(design, harness.hbm_config, harness.dram_config,
                       sram_bytes=harness.config.scale.sram_bytes),
        trace, workload="mcf", max_requests=max_requests, warmup=warmup,
        engine=engine)
    return result, driver


class TestBitIdentity:
    def test_batch_designs_identical_to_scalar(self):
        """Vector == scalar over warm-up x cap combinations.

        ``warmup=400, max_requests=200`` pins the cap-inside-warm-up
        edge, where the scalar loop never reaches the measurement
        reset and the whole run is one segment.
        """
        harness = ExperimentHarness(CONFIG)
        trace = _trace(harness)
        for design in PLAIN_DESIGNS:
            for warmup in (0, 400):
                for cap in (None, 200, 700):
                    scalar, _ = _run(harness, design, trace, "scalar",
                                     warmup=warmup, max_requests=cap)
                    vector, driver = _run(harness, design, trace,
                                          "vector", warmup=warmup,
                                          max_requests=cap)
                    label = (design, warmup, cap)
                    assert driver.last_engine == "vector", label
                    assert vector == scalar, label

    def test_cross_epoch_state_carry(self):
        """Tiny epochs force bank/bus/open-row state across epoch
        boundaries; the result must not change."""
        harness = ExperimentHarness(CONFIG)
        trace = _trace(harness)
        for design in PLAIN_DESIGNS:
            scalar, _ = _run(harness, design, trace, "scalar",
                             warmup=400)
            vector, driver = _run(harness, design, trace, "vector",
                                  warmup=400, vector_epoch=64)
            assert vector == scalar, design
            # Epochs count per segment: warm-up and measured windows
            # each round up to whole epochs.
            assert driver.last_vector_epochs \
                == -(-400 // 64) + -(-(N - 400) // 64)

    def test_fault_heavy_footprint_identical(self):
        """Addresses past the OS-visible window fault on No-HBM; the
        vectorized fault penalty and accounting must match exactly."""
        harness = ExperimentHarness(CONFIG)
        probe = registry.build("No-HBM", harness.hbm_config,
                               harness.dram_config)
        lines = 2 * probe.os_visible_bytes() // 64
        stride = lines // 400 + 1       # span the whole 2x window
        trace = PackedTrace(array("Q", [
            encode_request((i * stride % lines) * 64, i % 3 == 0,
                           i % 50)
            for i in range(900)]))
        scalar, _ = _run(harness, "No-HBM", trace, "scalar", warmup=100)
        vector, driver = _run(harness, "No-HBM", trace, "vector",
                              warmup=100, vector_epoch=128)
        assert driver.last_engine == "vector"
        assert scalar.controller_stats.get("page_faults", 0) > 0
        assert vector == scalar

    def test_vector_epoch_size_is_invisible(self):
        harness = ExperimentHarness(CONFIG)
        trace = _trace(harness)
        results = [
            _run(harness, "Ideal", trace, "vector", warmup=400,
                 vector_epoch=epoch)[0]
            for epoch in (None, 1, 63, 512, 10 ** 6)]
        assert all(result == results[0] for result in results[1:])


class TestEpochBitIdentity:
    """The two-pass engine on every registered design."""

    def test_epoch_designs_identical_to_scalar(self):
        """Vector == scalar for all 18 registered designs (MemPod's
        recorded pass 1 included) across the warm-up x cap matrix
        (including the cap-inside-warm-up edge)."""
        harness = ExperimentHarness(CONFIG)
        trace = _trace(harness)
        assert len(EPOCH_DESIGNS) >= 18 and "MemPod" in EPOCH_DESIGNS
        for design in EPOCH_DESIGNS:
            for warmup, cap in ((0, None), (400, None), (400, 200),
                                (0, 700)):
                scalar, _ = _run(harness, design, trace, "scalar",
                                 warmup=warmup, max_requests=cap)
                vector, driver = _run(harness, design, trace, "vector",
                                      warmup=warmup, max_requests=cap)
                label = (design, warmup, cap)
                assert driver.last_engine == "vector", label
                assert driver.last_fallback_reason is None, label
                assert vector == scalar, label

    def test_small_epochs_identical(self):
        """Tiny epochs maximise pass-1 invocations and cross-epoch
        feedback carry; the result must not change."""
        harness = ExperimentHarness(CONFIG)
        trace = _trace(harness)
        for design in EPOCH_DESIGNS:
            scalar, _ = _run(harness, design, trace, "scalar",
                             warmup=400)
            for epoch in (64, 512):
                vector, driver = _run(harness, design, trace, "vector",
                                      warmup=400, vector_epoch=epoch)
                assert driver.last_engine == "vector", (design, epoch)
                assert vector == scalar, (design, epoch)

    def test_commit_keeps_every_used_line_of_a_page(self):
        """A 64KB page has 1024 lines: pass 1's commit must OR line bits
        past 63 exactly (a uint64 shift wraps them), or the BLE used
        bitmaps and ``overfetch_bytes`` drift from the scalar loop."""
        harness = ExperimentHarness(ExperimentConfig(
            requests=20_000, warmup=10_000, seed=1234,
            workloads=("lbm",)))
        trace = harness.trace("lbm")
        records = []
        for engine in ("scalar", "auto"):
            controller = registry.build(
                "No-HMF", harness.hbm_config, harness.dram_config,
                sram_bytes=harness.config.scale.sram_bytes)
            records.append(harness.driver.run(
                controller, trace, workload="lbm", warmup=10_000,
                engine=engine).to_record())
        assert records[0]["controller_stats"]["overfetch_bytes"] > 0
        assert records[1] == records[0]

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_two_pass_commit_matches_scalar_feedback_order(self, data):
        """Property pin: whatever the request mix, pass 1's per-run
        commit replays Bumblebee's feedback (BLE used and dirty bits,
        hotness counter order) exactly as the scalar loop applied it
        inline — every SimResult field equal."""
        harness = ExperimentHarness(CONFIG)
        lines = (32 << 20) // 64
        n = data.draw(st.integers(min_value=64, max_value=300))
        stream = data.draw(st.lists(
            st.tuples(st.integers(0, lines - 1), st.booleans(),
                      st.integers(0, 200)),
            min_size=n, max_size=n))
        trace = PackedTrace(array("Q", [
            encode_request(line * 64, wr, icount)
            for line, wr, icount in stream]))
        warmup = data.draw(st.sampled_from([0, 50]))
        epoch = data.draw(st.sampled_from([None, 32, 256]))
        scalar, _ = _run(harness, "Bumblebee", trace, "scalar",
                         warmup=warmup)
        vector, driver = _run(harness, "Bumblebee", trace, "vector",
                              warmup=warmup, vector_epoch=epoch)
        assert driver.last_engine == "vector"
        assert vector == scalar


#: Bumblebee and every spec built on its controller (ablations and
#: static partitions), whose roms cells cross the high-memory-footprint
#: window.
BUMBLEBEE_FAMILY = ("Bumblebee", "No-Multi", "Meta-H", "No-HMF", "C-Only",
                    "M-Only", "Alloc-D", "Alloc-H")


def _window_harness(workloads, requests, warmup):
    return ExperimentHarness(ExperimentConfig(
        requests=requests, warmup=warmup, seed=1234, workloads=workloads))


def _replay(harness, design, workload, engine, vector_epoch=None):
    driver = SimulationDriver(harness.config.cpu,
                              vector_epoch=vector_epoch)
    controller = registry.build(design, harness.hbm_config,
                                harness.dram_config,
                                sram_bytes=harness.config.scale.sram_bytes)
    result = driver.run(controller, harness.trace(workload),
                        workload=workload, warmup=harness.config.warmup,
                        engine=engine)
    return result, driver


class TestHitRateOracle:
    """A hit rate known in closed form, which the engines must measure
    and not only agree on (Babaie et al.'s synthetic known-hit-rate
    validation of DRAM-cache models)."""

    PAGES = 8
    PAGE_BYTES = 64 * 1024

    def test_footprint_inside_hbm_always_hits(self):
        """A cyclic sweep over every line of a few 64 KiB pages, far
        fewer than the stack holds: after a one-pass warm-up every
        request of the next two passes hits HBM, for every Bumblebee
        spec, on the scalar loop and on the epoch engine at its advised
        epoch and at 8192 requests (pure runs of whole passes)."""
        harness = ExperimentHarness(CONFIG)
        hbm_pages = (harness.hbm_config.geometry.capacity_bytes
                     // self.PAGE_BYTES)
        assert self.PAGES * 8 <= hbm_pages
        lines = self.PAGES * self.PAGE_BYTES // 64
        trace = PackedTrace(array("Q", [
            encode_request(line * 64, line % 4 == 0, 20)
            for line in range(lines)] * 3))
        for design in BUMBLEBEE_FAMILY:
            results = []
            for engine, epoch in (("scalar", None), ("auto", None),
                                  ("auto", 8192)):
                driver = SimulationDriver(harness.config.cpu,
                                          vector_epoch=epoch)
                controller = registry.build(
                    design, harness.hbm_config, harness.dram_config,
                    sram_bytes=harness.config.scale.sram_bytes)
                results.append(driver.run(controller, trace,
                                          warmup=lines, engine=engine))
                assert driver.last_engine == (
                    "scalar" if engine == "scalar" else "vector"), design
            assert results[0].requests == 2 * lines
            assert results[0].hbm_hit_rate == 1.0, design
            assert results[1] == results[0], design
            assert results[2] == results[0], design


class TestReclassification:
    """Requests pass 1 runs through ``access`` re-classify the stale
    requests of their set, and the high-memory-footprint window is a
    trajectory pass 1 computes rather than a veto on whole epochs."""

    def test_family_identical_to_scalar_on_pressure_workloads(self):
        """lbm (5x the HBM) and roms (beyond off-chip DRAM, so HMF
        cooldowns run through epochs) at the tiny, a small and the
        advised epoch size.  Every change a policy request makes
        re-stales what it affects, so what runs through ``access`` is
        what is impure against the live state: the policy-request count
        cannot depend on when snapshots were taken."""
        harness = _window_harness(("lbm", "roms"), 3000, 1000)
        for workload in ("lbm", "roms"):
            for design in BUMBLEBEE_FAMILY:
                scalar, _ = _replay(harness, design, workload, "scalar")
                policy = set()
                for epoch in (7, 512, None):
                    vector, driver = _replay(harness, design, workload,
                                             "auto", vector_epoch=epoch)
                    label = (design, workload, epoch)
                    assert driver.last_engine == "vector", label
                    assert vector == scalar, label
                    policy.add(driver.last_policy_requests)
                assert len(policy) == 1, (design, workload, policy)

    def test_hmf_window_epochs_are_not_all_impure(self):
        """roms keeps the HMF cooldown running for the whole window;
        M-Only still runs only its allocations and movements through
        ``access``."""
        harness = _window_harness(("roms",), 20_000, 10_000)
        _, driver = _replay(harness, "M-Only", "roms", "auto")
        assert driver.last_engine == "vector"
        assert 0 < driver.last_policy_requests <= 0.05 * 30_000

    def test_flush_and_reenable_mid_epoch(self):
        """A short cooldown makes batch flushes and set re-enables land
        inside epochs: both run through ``access``, the requests between
        them do not, and the counters the commits land carry across
        epochs."""
        harness = _window_harness(("roms",), 6000, 2000)
        spec = registry.spec("Bumblebee").with_params(
            hmf_cooldown_requests=40)
        scalar, _ = _replay(harness, spec, "roms", "scalar")
        stats = scalar.controller_stats
        assert stats["hmf_flushes"] > 2 and stats["hmf_reenables"] > 2
        for epoch in (7, 512, None):
            vector, driver = _replay(harness, spec, "roms", "auto",
                                     vector_epoch=epoch)
            assert vector == scalar, epoch
            assert driver.last_policy_requests < 0.2 * 8000, epoch

def _small_bumblebee(config):
    """A Bumblebee over 4 MiB of HBM (8 sets of 8 64 KiB ways) and
    40 MiB of DRAM: a handful of requests reach every movement path."""
    return BumblebeeController(hbm2_config(4 << 20),
                               ddr4_3200_config(40 << 20), config)


def _movement_case(case):
    """``(config, requests, expected stats)`` of one crafted trace.

    Pages are ``k`` of set 0 at page offset 0, so a movement issued
    for a way shares the way's home channel with the demand that
    follows it on that way.
    """
    probe = _small_bumblebee(BumblebeeConfig())
    sets = probe.geometry.sets
    page_bytes = probe.config.page_bytes
    block_bytes = probe.config.block_bytes

    def page(k, offset=0):
        return k * sets * page_bytes + offset

    if case == "alloc-flushes-chbm":
        # p0's write caches its block 0 dirty in cHBM way 0; p1..p7 are
        # hot-allocated into the other ways; p8's PRT miss then finds no
        # free way and flushes way 0 (writeback) before its demand on
        # that very way.
        return (BumblebeeConfig(),
                [(page(0), True)] + [(page(k), False) for k in range(1, 9)],
                {"chbm_evictions": 1, "alloc_hbm": 8})
    if case == "hmf-batch-flush":
        # The first beyond-DRAM request flushes set 0's dirty cHBM way 0
        # before it allocates into that freed way and reads it.
        return (BumblebeeConfig(),
                [(page(0), True), (page(1), False),
                 (probe.dram.capacity_bytes, False)],
                {"hmf_flushes": 1, "chbm_evictions": 1})
    # Block fills after each DRAM-home demand of p0 switch it to mHBM at
    # the 13th block; p1 then migrates, its page fetch after its demand.
    return (BumblebeeConfig(allocation=AllocationPolicy.DRAM),
            [(page(0, b * block_bytes), b == 0) for b in range(13)]
            + [(page(1), False)],
            {"block_fills": 13, "switch_c2m": 1, "migrations": 1})


class _FaultThenFetch(HybridMemoryController):
    """DRAM-served requests that fault beyond 1 MiB; a request to
    ``FETCH`` first fetches a page into HBM.  Pass 1 records ``access``,
    so every epoch without a fetch scripts nothing."""

    FETCH = 1 << 19

    def os_visible_bytes(self):
        return 1 << 20

    def access(self, request, now_ns):
        if request.addr == self.FETCH:
            self.mover.fetch_to_hbm(self.FETCH, 0, 4096, now_ns)
        return self._demand_dram(request.addr, request, now_ns)

    def batch_epoch_plan(self, addr, is_write):
        m = addr.shape[0]
        plan = EpochPlan(use_hbm=np.zeros(m, dtype=bool),
                         local_addr=np.zeros(m, dtype=np.int64))
        with ScriptRecorder(self) as recorder:
            for i, (a, w) in enumerate(zip(addr.tolist(),
                                           is_write.tolist())):
                recorder.run(i, a, w)
        recorder.fill(plan)
        return plan


class _Recorded(HybridMemoryController):
    """DRAM-served requests that each fetch their line into HBM first;
    a request to ``RAISE`` raises, one to ``SKIP`` issues no demand and
    one to ``TWICE`` issues two."""

    RAISE, SKIP, TWICE = 1 << 20, 2 << 20, 3 << 20

    def access(self, request, now_ns):
        addr = request.addr
        if addr == self.RAISE:
            raise RuntimeError("policy failure")
        self.mover.fetch_to_hbm(addr, 0, 64, now_ns)
        if addr == self.SKIP:
            return None
        if addr == self.TWICE:
            self._demand_dram(addr + 64, request, now_ns)
        return self._demand_dram(addr, request, now_ns)


class TestScriptRecorderContract:
    """The recorder binds the controller's demand helpers and the
    devices' ``bulk_transfer`` only inside its block, and each request
    it runs must issue exactly one demand."""

    def test_bindings_removed_when_access_raises(self):
        controller = _Recorded(*_small_pair(), "R")
        with pytest.raises(RuntimeError, match="policy failure"):
            with ScriptRecorder(controller) as recorder:
                recorder.run(0, 0, False)
                recorder.run(1, _Recorded.RAISE, False)
        assert "_demand_hbm" not in vars(controller)
        assert "_demand_dram" not in vars(controller)
        for device in (controller.hbm, controller.dram):
            assert "bulk_transfer" not in vars(device)
        # A later scalar run times its demands as a fresh controller's.
        trace = _four_requests()
        later = SimulationDriver().run(controller, trace, engine="scalar")
        fresh = SimulationDriver().run(_Recorded(*_small_pair(), "R"),
                                       trace, engine="scalar")
        assert later.avg_latency_ns > 0
        assert (later.elapsed_ns, later.avg_latency_ns) == \
            (fresh.elapsed_ns, fresh.avg_latency_ns)
        assert later.controller_stats["demand_reads"] == 4

    @pytest.mark.parametrize("addr, demands", [
        (_Recorded.SKIP, 1), (_Recorded.TWICE, 3)])
    def test_fill_rejects_a_request_without_one_demand(self, addr,
                                                        demands):
        controller = _Recorded(*_small_pair(), "R")
        with ScriptRecorder(controller) as recorder:
            recorder.run(0, 0, False)
            recorder.run(1, addr, False)
        plan = EpochPlan(use_hbm=np.zeros(2, dtype=bool),
                         local_addr=np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match=f"2 recorded requests issued "
                                             f"{demands} demand accesses"):
            recorder.fill(plan)


class TestPlainWalk:
    def test_plain_epoch_advances_the_drain_timestamp(self):
        """A faulted request starts 250 ns after it arrives, so the
        fetch the next request issues is charged at an earlier time,
        and the request after that starts before the faulted demand did:
        the fetch's backlog has not drained yet when it reaches the bus.
        The faulted request's epoch scripts nothing (the plain walk),
        which must still advance its channel's drain timestamp."""
        def build():
            return _FaultThenFetch(hbm2_config(4 << 20),
                                   ddr4_3200_config(40 << 20), "FT")

        dram = build().dram
        home = dram.mapper.decode(_FaultThenFetch.FETCH).channel
        fault, later = (next(a for a in range(start, 40 << 20, 64)
                             if dram.mapper.decode(a).channel == home)
                        for start in (2 << 20, 1 << 18))
        trace = PackedTrace(array("Q", [
            encode_request(fault, False, 10_000),
            encode_request(_FaultThenFetch.FETCH, False, 8),
            encode_request(later, False, 8)]))
        scalar = SimulationDriver().run(build(), trace, engine="scalar")
        assert scalar.controller_stats["page_faults"] == 1
        driver = SimulationDriver(vector_epoch=1)
        assert driver.run(build(), trace, engine="vector") == scalar
        assert driver.last_engine == "vector"


class TestMovementOrder:
    """Movement a request issues before its demand is charged before
    the demand in the walk, and movement issued after it after."""

    @pytest.mark.parametrize("case", ["alloc-flushes-chbm",
                                      "hmf-batch-flush",
                                      "fill-switch-migrate"])
    @pytest.mark.parametrize("vector_epoch", [1, 7, 2048])
    def test_movement_order(self, case, vector_epoch):
        config, requests, expected = _movement_case(case)
        trace = PackedTrace(array("Q", [encode_request(addr, wr, 40)
                                        for addr, wr in requests]))
        scalar = SimulationDriver().run(_small_bumblebee(config), trace,
                                        engine="scalar")
        for key, count in expected.items():
            assert scalar.controller_stats[key] == count, key
        driver = SimulationDriver(vector_epoch=vector_epoch)
        epoch = driver.run(_small_bumblebee(config), trace, engine="auto")
        assert driver.last_engine == "vector"
        assert epoch == scalar


class _FetchOutOfRange(HybridMemoryController):
    """Fetches every request's line to one address past the end of the
    stack: the scalar ``bulk_transfer`` rejects it, and so must the
    epoch engine."""

    def access(self, request, now_ns):
        self.mover.fetch_to_hbm(request.addr % self._dram_capacity,
                                self.hbm.capacity_bytes + 64, 64, now_ns)
        return self._demand_dram(request.addr, request, now_ns)

    def batch_epoch_plan(self, addr, is_write):
        m = addr.shape[0]
        plan = EpochPlan(use_hbm=np.zeros(m, dtype=bool),
                         local_addr=np.zeros(m, dtype=np.int64))
        with ScriptRecorder(self) as recorder:
            for i, (a, w) in enumerate(zip(addr.tolist(),
                                           is_write.tolist())):
                recorder.run(i, a, w)
        recorder.fill(plan)
        return plan


class _FixedTable(HybridMemoryController):
    """DRAM-served requests whose pass 1 returns ``rows`` as the op
    table of every epoch."""

    rows: tuple = ()

    def access(self, request, now_ns):
        return self._demand_dram(request.addr, request, now_ns)

    def batch_epoch_plan(self, addr, is_write):
        m = addr.shape[0]
        return EpochPlan(use_hbm=np.zeros(m, dtype=bool),
                         local_addr=addr % self._dram_capacity,
                         ops=list(self.rows))


def _small_pair():
    return hbm2_config(4 << 20), ddr4_3200_config(40 << 20)


def _four_requests():
    return PackedTrace(array("Q", [encode_request(a * 4096, False, 8)
                                   for a in range(4)]))


class TestOpTableChecks:
    """The walk checks each epoch's op table once, against the ranges
    ``MemoryDevice`` enforces, instead of wrapping a bad address onto
    a channel."""

    def test_out_of_range_fetch_raises_on_both_engines(self):
        hbm, dram = _small_pair()
        trace = _four_requests()
        with pytest.raises(ValueError, match="outside device"):
            SimulationDriver().run(_FetchOutOfRange(hbm, dram, "Toy"),
                                   trace, engine="scalar")
        with pytest.raises(ValueError, match="'Toy'.*outside its device"):
            SimulationDriver().run(_FetchOutOfRange(hbm, dram, "Toy"),
                                   trace, engine="auto")

    @pytest.mark.parametrize("rows, problem", [
        ((4, 2, 1, 0, 64, 0), "owner outside the 4-request epoch"),
        ((-1, 2, 1, 0, 64, 0), "owner outside"),
        ((1, 2, 1, 0, 64, 0, 0, 2, 1, 0, 64, 0), "out of .owner, kind"),
        ((0, 2, 1, 0, 64, 0, 0, 0, 1, 0, 64, 0), "out of .owner, kind"),
        ((0, 3, 1, 0, 64, 0), "kind other than 0, 1 or 2"),
        ((0, 2, 2, 0, 64, 0), "device the design lacks"),
        ((0, 2, 1, 0, -64, 0), "negative byte count"),
        ((0, 2, 1, 40 << 20, 64, 1), "address outside its device"),
        ((0, 0, 0, -64, 64, 0), "address outside its device"),
        ((0, 1, 0, 4 << 20, 8, 0), "address outside its device"),
        ((0, 2, 1, 0, 64), "5 ints, not rows of 6"),
    ])
    def test_malformed_table_names_the_design(self, rows, problem):
        hbm, dram = _small_pair()
        design = _FixedTable(hbm, dram, "Toy")
        design.rows = rows
        with pytest.raises(ValueError, match="'Toy' scripted .*" + problem):
            SimulationDriver().run(design, _four_requests(), engine="auto")

    def test_stacked_lane_on_a_design_without_one(self):
        design = _FixedTable(None, ddr4_3200_config(40 << 20), "Flat")
        design.rows = (0, 2, 0, 0, 64, 1)
        with pytest.raises(ValueError,
                           match="'Flat' scripted an op on a device"):
            SimulationDriver().run(design, _four_requests(), engine="auto")

    def test_empty_move_is_not_range_checked(self):
        """``bulk_transfer`` of zero bytes returns before it decodes
        its address, so a zero-byte row moves nothing and passes."""
        hbm, dram = _small_pair()
        design = _FixedTable(hbm, dram, "Toy")
        design.rows = (0, 2, 0, 1 << 40, 0, 0)
        plain = _FixedTable(hbm, dram, "Toy")
        trace = _four_requests()
        assert (SimulationDriver().run(design, trace, engine="auto")
                == SimulationDriver().run(plain, trace, engine="auto"))


def _tiny_alloy():
    """AlloyCache over a 64 KiB stack: 910 direct-mapped slots."""
    return registry.build("AlloyCache", hbm2_config(64 << 10),
                          ddr4_3200_config(4 << 20))


def _alloy_state(controller):
    predictor = controller._predictor
    return (list(controller._tags), list(controller._dirty),
            predictor._counter, predictor.predictions,
            predictor.mispredictions)


def _alloy_both(lines_writes, warmup=0, vector_epoch=None):
    """``(result, final state)`` of the scalar loop and of the epoch
    engine on one AlloyCache stream of ``(line, is_write)``."""
    trace = PackedTrace(array("Q", [encode_request(line * 64, wr, 20)
                                    for line, wr in lines_writes]))
    runs = []
    for engine, epoch in (("scalar", None), ("auto", vector_epoch)):
        controller = _tiny_alloy()
        driver = SimulationDriver(vector_epoch=epoch)
        result = driver.run(controller, trace, warmup=warmup,
                            engine=engine)
        runs.append((result, _alloy_state(controller)))
    assert driver.last_engine == "vector"
    return runs


def _row_outcomes_per_access(bank, row, open_row):
    """The row-buffer FSM one access at a time: the reference for the
    sorted classification."""
    open_row = list(open_row)
    outcome = []
    for b, r in zip(bank.tolist(), row.tolist()):
        prev = open_row[b]
        outcome.append(0 if r == prev else 1 if prev < 0 else 2)
        open_row[b] = r
    return outcome, open_row


class TestRowOutcomes:
    """``_row_outcomes`` sorts bank ids as the narrowest unsigned type
    that holds the bank count; it must agree with the per-access FSM."""

    @staticmethod
    def _assert_matches(bank, row, open_row):
        expected, final = _row_outcomes_per_access(bank, row, open_row)
        state = np.array(open_row, dtype=np.int64)
        got = _row_outcomes(np.asarray(bank, dtype=np.int64),
                            np.asarray(row, dtype=np.int64), state)
        assert got.dtype == np.int64
        assert got.tolist() == expected
        assert state.tolist() == final

    @pytest.mark.parametrize("nbank", [1, 2, 255, 256, 257, 65536, 65537])
    def test_random_accesses(self, nbank):
        rng = np.random.default_rng(nbank)
        for m in (0, 1, 2, 50, 3000):
            bank = rng.integers(0, nbank, m)
            # A few rows per bank, so hits, conflicts and closed banks
            # all occur; -1 marks a closed bank.
            row = rng.integers(0, 3, m)
            open_row = rng.integers(-1, 3, nbank)
            self._assert_matches(bank, row, open_row)

    @pytest.mark.parametrize("nbank", [256, 65536, 70000])
    def test_largest_bank_id(self, nbank):
        """The top id of a uint8 / uint16 / uint32 sort key keeps its
        place among the others."""
        top = nbank - 1
        bank = np.array([top, 0, top, 1, top, top - 1, 0, top])
        row = np.array([5, 1, 5, 2, 6, 3, 1, 5])
        open_row = np.full(nbank, -1)
        open_row[top] = 6
        self._assert_matches(bank, row, open_row)


class TestAlloyPassOne:
    """AlloyCache's numpy pass 1 against its scalar ``access``."""

    SLOTS = 910

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_differential_on_conflicting_lines(self, data):
        """A few slots, several tags each, with writes: every request
        hits or evicts a line another request just touched, so hits,
        dirty victims and the first/last request of a slot in an epoch
        all occur."""
        stream = data.draw(st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2),
                      st.booleans()), min_size=1, max_size=120))
        lines_writes = [(tag * self.SLOTS + slot, wr)
                        for slot, tag, wr in stream]
        epoch = data.draw(st.sampled_from([1, 7, 512, None]))
        warmup = data.draw(st.sampled_from([0, len(stream) // 2]))
        scalar, epoch_run = _alloy_both(lines_writes, warmup, epoch)
        assert epoch_run == scalar

    @pytest.mark.parametrize("vector_epoch", [1, 2, 512])
    def test_dirty_line_found_by_a_later_epoch_is_written_back(
            self, vector_epoch):
        """Line A is written in one epoch and read (a clean hit) at the
        start of the next, where B evicts it: the victim is dirty from
        the live bit, not from any write of its own epoch."""
        a, b, other = 0, self.SLOTS, 1
        stream = [(a, True), (other, False), (a, False), (b, False)]
        runs = _alloy_both(stream, vector_epoch=vector_epoch)
        assert runs[0][0].controller_stats["writeback_bytes"] == 64
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("vector_epoch", [1, 7, 512, None])
    def test_cyclic_sweep_over_twice_the_slots_never_hits(self,
                                                         vector_epoch):
        lines = [(line, line % 3 == 0) for line in range(2 * self.SLOTS)]
        runs = _alloy_both(lines * 3, vector_epoch=vector_epoch)
        for result, _ in runs:
            assert result.controller_stats.get("hbm_demand_hits", 0) == 0
            assert result.controller_stats["fetch_bytes"] == \
                6 * self.SLOTS * 64
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("vector_epoch", [1, 7, 512, None])
    def test_repeated_footprint_misses_once_per_line(self, vector_epoch):
        footprint = [(line * 5, line % 2 == 0) for line in range(150)]
        runs = _alloy_both(footprint * 4, vector_epoch=vector_epoch)
        for result, _ in runs:
            stats = result.controller_stats
            assert stats["hbm_demand_hits"] == 150 * 3
            assert stats["fetch_bytes"] == 150 * 64
            assert stats.get("writeback_bytes", 0) == 0
        assert runs[0] == runs[1]


class _DramOnly(HybridMemoryController):
    """A controller without ``batch_epoch_plan``: scalar loop only."""

    def access(self, request, now_ns):
        return self._demand_dram(request.addr, request, now_ns)


class TestFallback:
    def test_unsupported_design_falls_back_to_scalar(self):
        """A controller that does not implement ``batch_epoch_plan``
        (every in-tree design does) takes the scalar loop and records
        why."""
        harness = ExperimentHarness(CONFIG)
        trace = _trace(harness, n=600)

        def run(engine):
            driver = SimulationDriver(harness.config.cpu)
            controller = _DramOnly(None, harness.dram_config, "DramOnly")
            return driver.run(controller, trace, workload="mcf",
                              warmup=200, engine=engine), driver

        assert fallback_reason(_DramOnly(None, harness.dram_config,
                                         "probe")) \
            == "design-not-batch-capable"
        scalar, _ = run("scalar")
        vector, driver = run("vector")
        assert driver.last_engine == "scalar"
        assert driver.last_vector_epochs == 0
        assert driver.last_scalar_epochs > 0
        assert driver.last_fallback_reason == "design-not-batch-capable"
        assert vector == scalar

    def test_request_list_rejected(self):
        """The driver replays PackedTrace only: a request list (or any
        other iterable) is a TypeError pointing at the packer."""
        harness = ExperimentHarness(CONFIG)
        trace = _trace(harness, n=600)
        for stream in (list(trace), iter(trace)):
            with pytest.raises(TypeError,
                               match="PackedTrace.from_requests"):
                _run(harness, "Ideal", stream, "vector")

    def test_auto_selects_vector_when_capable(self):
        harness = ExperimentHarness(CONFIG)
        trace = _trace(harness, n=600)
        _, on_plain = _run(harness, "Ideal", trace, "auto")
        assert on_plain.last_engine == "vector"
        _, on_epoch = _run(harness, "Bumblebee", trace, "auto")
        assert on_epoch.last_engine == "vector"
        scalar, _ = _run(harness, "MemPod", trace, "scalar")
        recorded, on_recorded = _run(harness, "MemPod", trace, "auto")
        assert on_recorded.last_engine == "vector"
        assert on_recorded.last_policy_requests == 600
        assert recorded == scalar

    def test_mempod_pass_one_routes_without_access(self, monkeypatch):
        """MemPod's pass 1 loops its policy step, never ``access`` or the
        recorder's ``run``, and still equals the scalar loop, pod-epoch
        migrations (the op table's rows) included."""
        harness = ExperimentHarness(CONFIG)
        trace = _trace(harness, n=9000)
        scalar, _ = _run(harness, "MemPod", trace, "scalar")
        assert scalar.controller_stats["pod_migrations"] > 0

        def refuse(*args, **kwargs):
            raise AssertionError("pass 1 ran a request through access")
        monkeypatch.setattr(ScriptRecorder, "run", refuse)
        monkeypatch.setattr(MemPodController, "access", refuse)
        for epoch in (None, 7):
            routed, driver = _run(harness, "MemPod", trace, "auto",
                                  vector_epoch=epoch)
            assert driver.last_engine == "vector"
            assert driver.last_policy_requests == 9000
            assert routed == scalar

    def test_unknown_engine_rejected(self):
        harness = ExperimentHarness(CONFIG)
        with pytest.raises(ValueError, match="engine"):
            _run(harness, "Ideal", _trace(harness, n=8), "bogus")

    def test_epoch_granularity_veto_forces_scalar(self):
        """A Bumblebee configuration with more than 64 blocks per page
        cannot pack its block-valid bitmaps into uint64 lanes; the
        controller stays epoch-capable but vetoes the engine, and the
        driver records the veto reason."""
        harness = ExperimentHarness(CONFIG)
        config = BumblebeeConfig(page_bytes=8192,    # 128 blocks/page
                                 block_bytes=64)
        assert config.blocks_per_page > 64

        def wide(name):
            return BumblebeeController(harness.hbm_config,
                                       harness.dram_config, config,
                                       name=name)

        # The hook's own reason, not design-not-batch-capable: the
        # controller implements the protocol and vetoes it.
        assert fallback_reason(wide("probe")) \
            == "feedback-not-epoch-granular"
        trace = _trace(harness, n=600)
        driver = SimulationDriver(harness.config.cpu)
        vector = driver.run(wide("wide"), trace, workload="mcf",
                            warmup=200, engine="vector")
        assert driver.last_engine == "scalar"
        assert driver.last_fallback_reason \
            == "feedback-not-epoch-granular"
        scalar = SimulationDriver(harness.config.cpu).run(
            wide("wide"), trace, workload="mcf", warmup=200,
            engine="scalar")
        assert vector == scalar

    def test_vector_epoch_validation(self):
        """Regression: bad epoch sizes fail fast at construction, not
        deep inside a campaign."""
        for bad in (0, -1, -512, 2.5, True, "64"):
            with pytest.raises(ValueError, match="vector_epoch"):
                SimulationDriver(vector_epoch=bad)
        assert SimulationDriver(vector_epoch=64).vector_epoch == 64


class TestRegistryCapability:
    def test_declared_tier_matches_controller(self):
        """The driver reads the engine off the built controller: every
        registered spec builds one that implements the two-pass
        protocol without a fallback veto."""
        harness = ExperimentHarness(CONFIG)
        for name in registry.names():
            controller = registry.build(
                name, harness.hbm_config, harness.dram_config,
                sram_bytes=harness.config.scale.sram_bytes)
            assert fallback_reason(controller) is None, name

    def test_engine_coverage_never_silently_drops(self):
        """A refactor that quietly loses a design's ``batch_epoch_plan``
        would show up only as a slowdown; fail loudly instead.  All 18
        registered specs vectorize."""
        harness = ExperimentHarness(CONFIG)
        names = registry.names()
        capable = [name for name in names if fallback_reason(
            registry.build(name, harness.hbm_config, harness.dram_config,
                           sram_bytes=harness.config.scale.sram_bytes))
            is None]
        assert len(names) >= 18
        assert capable == names


class TestEngineObservability:
    def test_cell_timing_records_engine_choice(self):
        harness = ExperimentHarness(CONFIG)
        harness.run_design("Ideal", "mcf")
        timing = harness.cell_timing("Ideal", "mcf")
        assert timing["engine_vector"] == 1.0
        assert timing["engine_scalar"] == 0.0
        assert timing["vector_epochs"] >= 1.0
        assert timing["policy_requests"] == 0.0
        harness.run_design("Bumblebee", "mcf")
        timing = harness.cell_timing("Bumblebee", "mcf")
        assert timing["engine_vector"] == 1.0
        assert 0.0 < timing["policy_requests"] < 1600
        assert timing["policy_requests"] \
            == harness.driver.last_policy_requests
        recorded = harness.run_design("MemPod", "mcf")
        timing = harness.cell_timing("MemPod", "mcf")
        assert timing["engine_vector"] == 1.0
        assert timing["engine_scalar"] == 0.0
        assert timing["vector_epochs"] >= 1.0
        assert timing["policy_requests"] == 1600.0
        scalar = ExperimentHarness(dataclasses.replace(
            CONFIG, engine="scalar"))
        assert scalar.run_design("MemPod", "mcf") == recorded
        timing = scalar.cell_timing("MemPod", "mcf")
        assert timing["engine_scalar"] == 1.0
        assert timing["scalar_epochs"] >= 1.0
        assert timing["policy_requests"] == 0.0
        assert timing["fallback_engine_forced_scalar"] == 1.0

    def test_config_engine_scalar_forces_reference_loop(self):
        config = ExperimentConfig(requests=1200, warmup=400,
                                  workloads=("mcf",), engine="scalar")
        harness = ExperimentHarness(config)
        forced = harness.run_design("Ideal", "mcf")
        assert harness.cell_timing("Ideal", "mcf")["engine_scalar"] == 1.0
        auto = ExperimentHarness(CONFIG).run_design("Ideal", "mcf")
        assert forced == auto

    def test_engine_excluded_from_cache_keys(self):
        """The two engines are bit-identical, so cached results are
        engine-agnostic by construction — like ``trace_cache_dir``."""
        scalar = ExperimentHarness(ExperimentConfig(engine="scalar"))
        auto = ExperimentHarness(ExperimentConfig())
        assert scalar._key_fields("mcf") == auto._key_fields("mcf")
