"""The packed trace engine: encoding, the on-disk trace cache, the
producers' pinned bytes, and the driver's zero-allocation replay path.

The contract under test mirrors ``tests/test_parallel.py``'s: packed
streams must be *bit-identical* to the reference generator's request
objects — same addresses, same write flags, same icounts — across
processes, across the on-disk cache, and across every producer.
"""

import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import ExperimentConfig, ExperimentHarness
from repro.analysis.resultcache import ResultCache
from repro.sim.driver import SimResult
from repro.sim.request import CACHE_LINE_BYTES, MemoryRequest, MutableRequest
from repro.traces import (
    MIX_PRESETS,
    SyntheticTraceGenerator,
    TraceCache,
    build_mix,
    mix_trace,
    phase_shift_trace,
    synthetic_spec,
    table2_phases,
)
from repro.traces.packed import (
    ICOUNT_MAX,
    PackedTrace,
    decode_value,
    encode_request,
)
from repro.traces.spec import SystemScale

FAST = ExperimentConfig(requests=1500, warmup=500,
                        workloads=("leela", "mcf"))
SPEC = synthetic_spec("mcf", SystemScale(1 / 256))
N = 3000


class TestEncoding:
    def test_roundtrip(self):
        for addr, is_write, icount in ((0, False, 0),
                                       (64, True, 1),
                                       (1 << 30, False, ICOUNT_MAX)):
            assert decode_value(encode_request(addr, is_write, icount)) \
                == (addr, is_write, icount)

    def test_rejects_unrepresentable(self):
        with pytest.raises(ValueError):
            encode_request(13, False, 1)          # unaligned address
        with pytest.raises(ValueError):
            encode_request(64, False, ICOUNT_MAX + 1)
        with pytest.raises(ValueError):
            encode_request(-64, False, 1)

    def test_from_requests_rejects_odd_size(self):
        odd = MemoryRequest(addr=0, is_write=False, icount=1,
                            size=CACHE_LINE_BYTES * 2)
        with pytest.raises(ValueError):
            PackedTrace.from_requests([odd])

    def test_bytes_roundtrip(self):
        packed = SyntheticTraceGenerator(SPEC, seed=7).generate_packed(N)
        clone = PackedTrace.frombytes(packed.tobytes())
        assert clone == packed
        assert len(clone) == N
        assert clone.nbytes == 8 * N

    def test_frombytes_rejects_truncated_payload(self):
        payload = SyntheticTraceGenerator(SPEC, seed=7) \
            .generate_packed(4).tobytes()
        for cut in (1, 7, 9, len(payload) - 3):
            with pytest.raises(ValueError, match="multiple of 8"):
                PackedTrace.frombytes(payload[:cut])
        assert len(PackedTrace.frombytes(payload[:16])) == 2


class TestGeneratorIdentity:
    def test_packed_matches_object_stream(self):
        objects = SyntheticTraceGenerator(SPEC, seed=11).generate(N)
        packed = SyntheticTraceGenerator(SPEC, seed=11).generate_packed(N)
        assert [(r.addr, r.is_write, r.icount) for r in objects] \
            == list(packed.iter_decoded())
        assert PackedTrace.from_requests(objects) == packed

    def test_iter_yields_equal_requests(self):
        packed = SyntheticTraceGenerator(SPEC, seed=11).generate_packed(50)
        assert list(packed) == [packed[i] for i in range(len(packed))]
        assert list(packed) == [MemoryRequest(addr, is_write, icount)
                                for addr, is_write, icount
                                in packed.iter_decoded()]

    def test_replay_reuses_one_request(self):
        packed = SyntheticTraceGenerator(SPEC, seed=3).generate_packed(100)
        seen_ids = {id(request) for request in packed.replay()}
        assert len(seen_ids) == 1          # the zero-allocation contract

    def test_mutable_request_freeze(self):
        request = MutableRequest(addr=128, is_write=True, icount=9)
        frozen = request.freeze()
        assert frozen == MemoryRequest(addr=128, is_write=True, icount=9)
        assert request.line == frozen.line

    def test_phase_shift_trace_streams_generator_prefixes(self):
        from repro.traces import derive_seed
        spec_b = synthetic_spec("leela", SystemScale(1 / 256))
        streamed = list(phase_shift_trace(SPEC, spec_b, n_per_phase=200,
                                          phases=2, seed=5))
        expected = []
        for phase, spec in enumerate((SPEC, spec_b)):
            expected.extend(SyntheticTraceGenerator(
                spec, seed=derive_seed("phase-shift", 5, phase)
            ).generate(200))
        assert streamed == expected


def _digest(trace: PackedTrace) -> str:
    return hashlib.sha256(trace.tobytes()).hexdigest()[:16]


class TestProducerBytes:
    """Every composite miss-stream producer's bytes, pinned.

    The digests were computed by packing (``PackedTrace.from_requests``)
    the request-object streams these producers returned before they
    built packed traces themselves, so the producers' output is
    unchanged by that move.
    """

    @pytest.mark.parametrize("preset, digest", [
        ("mix-aggressor", "9a67292ef5fa1c2e"),
        ("mix-bandwidth", "6fc7fca0012ed995"),
        ("mix-capacity", "da7ee44138daa9d2"),
        ("mix-fig1", "d3e1e28ab5a03406"),
    ])
    def test_mix_trace(self, preset, digest):
        trace = mix_trace(build_mix(MIX_PRESETS[preset]), 2000, seed=5)
        assert _digest(trace) == digest

    def test_phase_shift_trace(self):
        trace = phase_shift_trace(synthetic_spec("mcf"),
                                  synthetic_spec("wrf"), 500, phases=4,
                                  seed=5)
        assert _digest(trace) == "f95263fabf5eb419"

    def test_phase_schedule(self):
        trace = table2_phases("mcf", 500, cycles=2).generate()
        assert _digest(trace) == "0dee1864f32d3849"


class TestSimResultIdentity:
    def test_simresult_record_roundtrip(self):
        harness = ExperimentHarness(FAST)
        result = harness.baseline("leela")
        clone = SimResult.from_record(
            json.loads(json.dumps(result.to_record())))
        assert clone == result

    def test_baseline_persisted_and_reloaded(self, tmp_path):
        first = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        computed = first.baseline("leela")
        second = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        assert second.baseline("leela") == computed
        assert second.cache.hits == 1    # no re-simulation happened


class TestTraceCache:
    def test_miss_then_hit(self, tmp_path):
        cache = TraceCache(tmp_path)
        first = cache.get_or_generate(SPEC, N, 9)
        second = cache.get_or_generate(SPEC, N, 9)
        assert first == second
        assert cache.counters()["generated"] == 1
        assert cache.counters()["misses"] == 1
        assert cache.counters()["hits"] == 1
        assert cache.counters()["bytes_read"] == 8 * N
        assert len(cache) == 1

    def test_key_covers_every_input(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.get_or_generate(SPEC, N, 9)
        cache.get_or_generate(SPEC, N, 10)          # seed changes key
        cache.get_or_generate(SPEC, N + 1, 9)       # length changes key
        other = dataclasses.replace(SPEC, write_fraction=0.9)
        cache.get_or_generate(other, N, 9)          # spec changes key
        assert len(cache) == 4
        assert cache.counters()["generated"] == 4

    def test_corrupt_entry_healed(self, tmp_path):
        cache = TraceCache(tmp_path)
        original = cache.get_or_generate(SPEC, N, 9)
        entry = next(Path(tmp_path).glob("*.trace"))
        entry.write_bytes(entry.read_bytes()[:100])      # truncate
        healed = TraceCache(tmp_path)
        assert healed.get_or_generate(SPEC, N, 9) == original
        assert healed.counters()["generated"] == 1       # regenerated

    def test_warm_harness_never_regenerates(self, tmp_path):
        config = dataclasses.replace(FAST,
                                     trace_cache_dir=str(tmp_path))
        ExperimentHarness(config).trace("leela")         # populate
        entry = next(Path(tmp_path).glob("*.trace"))
        mtime = entry.stat().st_mtime_ns
        warm = ExperimentHarness(config)
        warm.trace("leela")
        warm.trace("leela")
        assert warm.trace_cache.counters()["generated"] == 0
        assert entry.stat().st_mtime_ns == mtime     # never rewritten

    def test_resolve_off_values(self, tmp_path, monkeypatch):
        from repro.traces import resolve_trace_cache
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert resolve_trace_cache(None) is None
        assert resolve_trace_cache("off") is None
        assert resolve_trace_cache(str(tmp_path)).root == tmp_path
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        assert resolve_trace_cache(None).root == tmp_path
        monkeypatch.setenv("REPRO_TRACE_CACHE", "none")
        assert resolve_trace_cache(None) is None


class TestWarmParallelCampaign:
    def test_jobs_workers_load_never_resynthesise(self, tmp_path):
        """A warm --jobs campaign synthesises each workload at most once
        (here: zero times — the cache was primed), pinned through the
        per-cell timing records and the entry mtimes."""
        from repro.analysis.campaign import run_campaign
        config = dataclasses.replace(
            FAST, trace_cache_dir=str(tmp_path / "tc"))
        primer = ExperimentHarness(config)
        for workload in config.workloads:
            primer.trace(workload)
        entries = {path: path.stat().st_mtime_ns
                   for path in (tmp_path / "tc").glob("*.trace")}
        assert len(entries) == len(config.workloads)
        campaign = run_campaign(
            ExperimentHarness(config), tmp_path / "c.jsonl",
            ["Banshee", "Bumblebee"], list(config.workloads), jobs=2)
        timing = campaign.timing_summary()
        assert timing["cells"] == 4
        assert timing["trace_generated"] == 0
        assert timing["trace_misses"] == 0
        assert timing["trace_hits"] >= len(config.workloads)
        for path, mtime in entries.items():
            assert path.stat().st_mtime_ns == mtime    # never rewritten


_SUBPROCESS_SNIPPET = """
import sys, hashlib
sys.path.insert(0, {src!r})
from repro.traces import SyntheticTraceGenerator, TraceCache, synthetic_spec
from repro.traces.spec import SystemScale
spec = synthetic_spec("mcf", SystemScale(1 / 256))
cache = TraceCache({root!r})
packed = cache.get_or_generate(spec, 2500, 42)
print(hashlib.sha256(packed.tobytes()).hexdigest())
"""


class TestCrossProcessDeterminism:
    def test_two_processes_agree_byte_for_byte(self, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = []
        for index in range(2):
            root = str(tmp_path / f"cache{index}")   # no shared state
            out = subprocess.run(
                [sys.executable, "-c",
                 _SUBPROCESS_SNIPPET.format(src=src, root=root)],
                capture_output=True, text=True, check=True)
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1]
        # ... and the in-process stream matches the subprocesses'.
        local = SyntheticTraceGenerator(SPEC, seed=42).generate_packed(2500)
        assert hashlib.sha256(local.tobytes()).hexdigest() == digests[0]
