"""MemPod unit tests plus golden-value regression locks.

The golden tests pin exact deterministic outputs of a small fixed
configuration.  They exist to catch *unintended* behavioural drift: if a
change legitimately alters policy behaviour, update the golden values in
the same commit and say why.
"""

import pytest

from repro.baselines import MemPodController
from repro.designs import registry
from repro.mem import ddr4_3200_config, hbm2_config
from repro.sim import CpuModel, MemoryRequest, SimulationDriver
from repro.traces import SyntheticSpec, SyntheticTraceGenerator

MIB = 1 << 20
HBM = hbm2_config(8 * MIB)
DRAM = ddr4_3200_config(80 * MIB)


class TestMemPod:
    def test_mea_promotes_majority_page(self):
        controller = MemPodController(HBM, DRAM)
        addr = 0  # pod 0, page 0
        for i in range(controller.EPOCH_ACCESSES + 1):
            controller.access(MemoryRequest(addr=addr), i * 10.0)
        assert controller.stats.get("pod_migrations") >= 1
        result = controller.access(MemoryRequest(addr=addr), 1e6)
        assert result.hbm_hit

    def test_epoch_cadence(self):
        controller = MemPodController(HBM, DRAM)
        for i in range(controller.EPOCH_ACCESSES * 3):
            controller.access(MemoryRequest(addr=0), i * 10.0)
        assert controller.stats.get("epochs") == 3

    def test_pods_are_independent(self):
        controller = MemPodController(HBM, DRAM)
        # Hammer pod 0 only; pod 1 must see no epochs.
        for i in range(controller.EPOCH_ACCESSES):
            controller.access(MemoryRequest(addr=0), i * 10.0)
        assert controller._pods[1].accesses == 0

    def test_eviction_when_pod_full(self):
        controller = MemPodController(HBM, DRAM)
        controller._slots_per_pod = 2
        pod = controller._pods[0]
        pod.free_slots = [0, 1]
        stride = 2048 * 8  # stay in pod 0
        now = 0.0
        for page_index in range(3):
            for i in range(controller.EPOCH_ACCESSES):
                controller.access(
                    MemoryRequest(addr=page_index * stride), now)
                now += 10.0
        assert controller.stats.get("pod_evictions") >= 1
        assert len(pod.resident) <= 2

    def test_metadata_fits_sram(self):
        controller = MemPodController(HBM, DRAM)
        assert controller.metadata_in_sram()

    def test_mea_bounded(self):
        controller = MemPodController(HBM, DRAM)
        import random
        rng = random.Random(0)
        for i in range(500):
            controller.access(
                MemoryRequest(addr=rng.randrange(64 * MIB) // 64 * 64),
                i * 10.0)
        for pod in controller._pods:
            assert len(pod.mea) <= controller.MEA_ENTRIES


def golden_trace():
    spec = SyntheticSpec("golden", 4 * MIB, spatial=0.6, temporal=0.7,
                         mpki=16.0, hot_fraction=0.2)
    return SyntheticTraceGenerator(spec, seed=42).generate_packed(4000)


class TestGoldenValues:
    """Deterministic regression locks on a tiny fixed configuration."""

    def test_trace_is_bit_stable(self):
        trace = golden_trace()
        # First/last records pin the generator's stream.
        assert (trace[0].addr, trace[0].is_write) == (1862912, False)
        assert trace[-1].addr == 626816
        assert sum(r.addr for r in trace) == 7685797632

    def test_bumblebee_golden_counters(self):
        controller = registry.build("Bumblebee", HBM, DRAM)
        result = SimulationDriver(CpuModel()).run(
            controller, golden_trace(), workload="golden")
        stats = result.controller_stats
        assert result.requests == 4000
        assert stats["demand_reads"] + stats["demand_writes"] == 4000
        # Behavioural lock: hit count and movement volume.
        assert result.hbm_hits == stats["hbm_demand_hits"]
        golden = {
            "hbm_hits": result.hbm_hits,
            "fetch_bytes": stats.get("fetched_bytes", 0),
        }
        assert golden["hbm_hits"] == 3832
        assert golden["fetch_bytes"] == 733184

    def test_no_hbm_golden_latency(self):
        controller = registry.build("No-HBM", HBM, DRAM)
        result = SimulationDriver(CpuModel()).run(
            controller, golden_trace(), workload="golden")
        assert result.avg_latency_ns == pytest.approx(42.68, abs=0.5)


def pressure_trace():
    """A footprint 48x the 1 MiB stack below: every way gets evicted."""
    spec = SyntheticSpec("golden-pressure", 48 * MIB, spatial=0.6,
                         temporal=0.5, mpki=16.0, hot_fraction=0.2)
    return SyntheticTraceGenerator(spec, seed=42).generate_packed(8000)


#: ``(hbm_hits, elapsed_ns, fetched_bytes, writeback_bytes,
#: overfetch_bytes)`` per design: on ``golden_trace()`` with the 8 MiB
#: stack and no warm-up, and on ``pressure_trace()`` with a 1 MiB stack
#: and 2000 warm-up requests (so evictions, dirty writebacks and the
#: warm-up reset of the used-line masks all count).
PAGE_CACHE_GOLDENS = {
    "Banshee": ((2295, 39804.48278077584, 872448, 0, 0),
                (2686, 60813.88648373673, 548864, 28672, 20160)),
    "UnisonCache": ((397, 62309.14281548876, 230592, 0, 0),
                    (269, 86741.78875448032, 577664, 105280, 186048)),
    "Hybrid2": ((1843, 40788.791132160084, 754944, 70144, 19136),
                (2269, 63469.5157517999, 1104640, 286976, 583488)),
}


def _observed(design, trace, hbm, warmup, engine, vector_epoch):
    controller = registry.build(design, hbm, DRAM)
    driver = SimulationDriver(CpuModel(), vector_epoch=vector_epoch)
    result = driver.run(controller, trace, workload="golden",
                        warmup=warmup, engine=engine)
    assert driver.last_engine == (
        "scalar" if engine == "scalar" else "vector")
    stats = result.controller_stats
    return (result.hbm_hits, result.elapsed_ns,
            stats.get("fetched_bytes", 0),
            stats.get("writeback_bytes", 0),
            stats.get("overfetch_bytes", 0))


class TestPageCacheGoldens:
    """Exact locks on the set-associative caches' results.

    The epoch-vs-scalar identity tests cannot see a drift that moves
    both engines together; these pin both against fixed numbers.
    """

    @pytest.mark.parametrize("engine, vector_epoch", [
        ("scalar", None), ("auto", None), ("auto", 7)])
    @pytest.mark.parametrize("design", sorted(PAGE_CACHE_GOLDENS))
    def test_golden_trace(self, design, engine, vector_epoch):
        assert _observed(design, golden_trace(), HBM, 0, engine,
                              vector_epoch) == PAGE_CACHE_GOLDENS[design][0]

    @pytest.mark.parametrize("engine, vector_epoch", [
        ("scalar", None), ("auto", None), ("auto", 7)])
    @pytest.mark.parametrize("design", sorted(PAGE_CACHE_GOLDENS))
    def test_pressure_trace_with_warmup(self, design, engine,
                                        vector_epoch):
        assert _observed(design, pressure_trace(), hbm2_config(MIB),
                              2000, engine, vector_epoch) == \
            PAGE_CACHE_GOLDENS[design][1]


#: The same locks for the designs whose pass 1 runs requests through
#: their own ``access`` under a ``ScriptRecorder``: MemPod (every
#: request) and the Bumblebee family's static splits and allocation
#: ablations (every request that is not a resident hit).
RECORDED_GOLDENS = {
    "MemPod": ((0, 51286.987618740604, 0, 0, 0),
               (35, 77949.41213146439, 262144, 0, 0)),
    "C-Only": ((3279, 34864.13611831238, 1476608, 0, 0),
               (3177, 57352.146334343684, 450560, 155648, 219456)),
    "M-Only": ((3984, 29590.604587129634, 1048576, 0, 0),
               (3326, 62535.09437795542, 1245184, 1179648, 785280)),
    "Alloc-D": ((3441, 34770.95939050727, 2181120, 0, 0),
                (3247, 62123.23425321442, 1060864, 657408, 647680)),
    "Alloc-H": ((4000, 27966.312282984774, 0, 0, 0),
                (3149, 75562.28057354224, 1386496, 7340032, 901632)),
}


class TestRecordedGoldens:
    """Exact locks on the recorded designs' results, on both engines."""

    @pytest.mark.parametrize("engine, vector_epoch", [
        ("scalar", None), ("auto", None), ("auto", 7)])
    @pytest.mark.parametrize("design", sorted(RECORDED_GOLDENS))
    def test_golden_trace(self, design, engine, vector_epoch):
        assert _observed(design, golden_trace(), HBM, 0, engine,
                         vector_epoch) == RECORDED_GOLDENS[design][0]

    @pytest.mark.parametrize("engine, vector_epoch", [
        ("scalar", None), ("auto", None), ("auto", 7)])
    @pytest.mark.parametrize("design", sorted(RECORDED_GOLDENS))
    def test_pressure_trace_with_warmup(self, design, engine,
                                        vector_epoch):
        assert _observed(design, pressure_trace(), hbm2_config(MIB),
                         2000, engine, vector_epoch) == \
            RECORDED_GOLDENS[design][1]
