"""Tests for the trace layer: records, persistence, synthetic generation."""

import pytest

from repro.sim.request import CACHE_LINE_BYTES, MemoryRequest
from repro.traces import (
    DEFAULT_SCALE,
    MPKI_GROUPS,
    PAPER_SCALE,
    SPEC2017,
    PackedTrace,
    SyntheticSpec,
    SyntheticTraceGenerator,
    SystemScale,
    phase_shift_trace,
    summarise,
    synthetic_spec,
    workload_trace,
)
from repro.traces.packed import decode_entry, encode_entry


class TestTraceIO:
    """A trace persists as one :func:`encode_entry` entry, the format
    the trace cache and sanitizer reproducers share."""

    def test_save_load_roundtrip(self, tmp_path):
        requests = [MemoryRequest(addr=i * 64, is_write=i % 2 == 0,
                                  icount=50) for i in range(20)]
        path = tmp_path / "trace.bin"
        path.write_bytes(encode_entry(PackedTrace.from_requests(requests)))
        loaded = decode_entry(path.read_bytes())
        assert len(loaded) == 20
        assert list(loaded) == requests

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"deadbeef 1\n")
        with pytest.raises(ValueError):
            decode_entry(path.read_bytes())

    def test_take(self):
        spec = SyntheticSpec("t", 1 << 20, 0.5, 0.5, 10.0)
        trace = SyntheticTraceGenerator(spec).generate_packed(300)
        head = trace[:100]
        assert isinstance(head, PackedTrace) and len(head) == 100
        assert list(head) == SyntheticTraceGenerator(spec).generate(100)
        assert trace[-1] == list(trace)[-1]


class TestSummarise:
    def test_mpki_matches_spec(self):
        trace = workload_trace("mcf", 5000)
        summary = summarise(trace)
        assert summary.mpki == pytest.approx(SPEC2017["mcf"].mpki, rel=0.05)

    def test_write_fraction_close_to_spec(self):
        trace = workload_trace("lbm", 20000)
        summary = summarise(trace)
        assert summary.write_fraction == pytest.approx(
            SPEC2017["lbm"].write_fraction, abs=0.03)

    def test_footprint_bounded_by_spec(self):
        spec = synthetic_spec("mcf")
        trace = workload_trace("mcf", 20000)
        summary = summarise(trace)
        assert summary.max_addr < spec.footprint_bytes


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec("x", 1 << 20, spatial=1.5, temporal=0.5, mpki=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec("x", 1 << 20, 0.5, 0.5, mpki=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec("x", 1 << 20, 0.5, 0.5, 1.0, hot_fraction=0.0)

    def test_icount_from_mpki(self):
        spec = SyntheticSpec("x", 1 << 20, 0.5, 0.5, mpki=20.0)
        assert spec.icount_per_miss == 50

    def test_scaled_preserves_knobs(self):
        spec = SyntheticSpec("x", 1 << 30, 0.7, 0.3, 5.0)
        scaled = spec.scaled(0.25)
        assert scaled.spatial == spec.spatial
        assert scaled.footprint_bytes == spec.footprint_bytes // 4


class TestGenerator:
    def test_deterministic_with_seed(self):
        spec = synthetic_spec("mcf")
        a = SyntheticTraceGenerator(spec, seed=42).generate(500)
        b = SyntheticTraceGenerator(spec, seed=42).generate(500)
        assert a == b

    def test_different_seeds_differ(self):
        spec = synthetic_spec("mcf")
        a = SyntheticTraceGenerator(spec, seed=1).generate(500)
        b = SyntheticTraceGenerator(spec, seed=2).generate(500)
        assert a != b

    def test_addresses_within_footprint(self):
        spec = SyntheticSpec("x", 1 << 20, 0.5, 0.5, 10.0, base_addr=1 << 24)
        for request in SyntheticTraceGenerator(spec).generate(2000):
            assert (1 << 24) <= request.addr < (1 << 24) + (1 << 20)

    def test_strong_temporal_concentrates_accesses(self):
        hot = SyntheticSpec("hot", 16 << 20, 0.1, 0.95, 10.0,
                            hot_fraction=0.005)
        cold = SyntheticSpec("cold", 16 << 20, 0.1, 0.05, 10.0,
                             hot_fraction=0.005)
        hot_lines = {r.line for r in SyntheticTraceGenerator(hot).generate(
            5000)}
        cold_lines = {r.line for r in SyntheticTraceGenerator(cold).generate(
            5000)}
        # Strong temporal locality touches markedly fewer distinct lines
        # (hot-set re-references replace uniform scatter).
        assert len(hot_lines) < len(cold_lines) * 0.7

    def test_strong_spatial_runs_sequentially(self):
        """With spatial ~1 most accesses continue one of the generator's
        interleaved sequential streams (the successor of a recent
        address)."""
        spec = SyntheticSpec("seq", 64 << 20, 0.95, 0.0, 10.0)
        trace = SyntheticTraceGenerator(spec).generate(5000)
        recent: list[int] = []
        sequential = 0
        for request in trace:
            if request.addr - CACHE_LINE_BYTES in recent:
                sequential += 1
            recent.append(request.addr)
            if len(recent) > 16:
                recent.pop(0)
        assert sequential > len(trace) * 0.6

    def test_phase_shift_concatenates(self):
        a = SyntheticSpec("a", 1 << 20, 0.9, 0.9, 10.0)
        b = SyntheticSpec("b", 1 << 20, 0.1, 0.1, 10.0)
        trace = phase_shift_trace(a, b, n_per_phase=100, phases=4)
        assert isinstance(trace, PackedTrace) and len(trace) == 400

    def test_phase_seeds_do_not_collide(self):
        # Regression: per-phase seeding used ``seed + phase``, so
        # (seed=4, phase=1) replayed (seed=5, phase=0)'s stream exactly.
        spec = SyntheticSpec("a", 1 << 20, 0.9, 0.9, 10.0)
        later_phase = phase_shift_trace(
            spec, spec, n_per_phase=200, phases=2, seed=4)[200:]
        first_phase = phase_shift_trace(
            spec, spec, n_per_phase=200, phases=1, seed=5)
        assert later_phase != first_phase

    def test_phase_shift_deterministic(self):
        a = SyntheticSpec("a", 1 << 20, 0.9, 0.9, 10.0)
        b = SyntheticSpec("b", 1 << 20, 0.1, 0.1, 10.0)
        first = phase_shift_trace(a, b, n_per_phase=50, phases=3)
        again = phase_shift_trace(a, b, n_per_phase=50, phases=3)
        assert first == again

    def test_derive_seed_mixes_all_parts(self):
        from repro.traces import derive_seed
        assert derive_seed("x", 4, 1) != derive_seed("x", 5, 0)
        assert derive_seed("x", 4, 1) == derive_seed("x", 4, 1)
        assert derive_seed("a", 1) != derive_seed("b", 1)


class _PerLineHotSet(SyntheticTraceGenerator):
    """The hot-set sampler as first written, one line at a time: the
    reference the range-built sampler must reproduce."""

    def _sample_hot_set(self):
        spec = self.spec
        rng = self._rng
        count = max(64, min(self.HOT_SET_MAX_LINES,
                            int(spec.footprint_lines * spec.hot_fraction)))
        count = min(count, spec.footprint_lines)
        cluster = max(2, int(spec.spatial * spec.spatial * 1024))
        lines = []
        while len(lines) < count:
            start = rng.randrange(spec.footprint_lines)
            for offset in range(min(cluster, count - len(lines))):
                lines.append((start + offset) % spec.footprint_lines)
        return lines


class TestHotSet:
    @staticmethod
    def _assert_matches_reference(spec, seed):
        built = SyntheticTraceGenerator(spec, seed=seed)
        reference = _PerLineHotSet(spec, seed=seed)
        assert built._hot_lines == reference._hot_lines
        # Same RNG draws: the streams sampled next agree as well.
        assert built._streams == reference._streams
        assert built._rng.getstate() == reference._rng.getstate()
        return built._hot_lines

    @pytest.mark.parametrize("seed", [1234, 7])
    @pytest.mark.parametrize("name", sorted(SPEC2017))
    def test_workload_hot_sets_match_per_line_reference(self, name, seed):
        self._assert_matches_reference(synthetic_spec(name), seed)

    @pytest.mark.parametrize("lines, spatial", [(1024, 1.0), (10, 0.5),
                                                (10, 1.0), (1500, 0.9)])
    def test_clusters_wrapping_the_footprint_match_reference(
            self, lines, spatial):
        spec = SyntheticSpec("wrap", lines * CACHE_LINE_BYTES, spatial,
                             0.5, 10.0, hot_fraction=1.0)
        wrapped = 0
        for seed in range(20):
            hot = self._assert_matches_reference(spec, seed)
            assert len(hot) == lines
            wrapped += any(b < a for a, b in zip(hot, hot[1:]))
        assert wrapped  # the wrapping branch ran


class _RandrangeDraws(SyntheticTraceGenerator):
    """The draw loop as first written, one ``_next_line`` and one
    ``randrange`` call per draw: the oracle the inlined loop must
    reproduce byte for byte."""

    def _next_line(self):
        rng = self._rng
        draw = rng.random()
        if draw < self._p_hot:
            index = rng.randrange(len(self._hot_lines))
            if self._churn and rng.random() < self._churn:
                self._hot_lines[index] = rng.randrange(
                    self.spec.footprint_lines)
            return self._hot_lines[index]
        if draw < self._p_hot + self._p_seq:
            stream = self._streams[rng.randrange(self.STREAMS)]
            line = stream[0]
            stream[0] = (stream[0] + 1) % self.spec.footprint_lines
            stream[1] -= 1
            if stream[1] <= 0:
                stream[:] = self._new_stream()
            return line
        if rng.random() < self.spec.spatial:
            cursor = self._streams[rng.randrange(self.STREAMS)][0]
            page_base = cursor - (cursor % 1024)
            return (page_base + rng.randrange(1024)) % \
                self.spec.footprint_lines
        return rng.randrange(self.spec.footprint_lines)

    def requests(self, n):
        spec = self.spec
        return [MemoryRequest(
            addr=spec.base_addr + self._next_line() * CACHE_LINE_BYTES,
            is_write=self._rng.random() < spec.write_fraction,
            icount=spec.icount_per_miss) for _ in range(n)]

    def packed(self, n):
        return PackedTrace.from_requests(self.requests(n)).data.tobytes()


def _streams(count):
    """The generator and its oracle with ``count`` sequential streams."""
    return (type("Gen", (SyntheticTraceGenerator,), {"STREAMS": count}),
            type("Ref", (_RandrangeDraws,), {"STREAMS": count}))


class TestDrawLoop:
    """``generate_packed`` and ``__iter__`` share one inlined draw loop;
    both must equal the ``randrange`` oracle, including where a
    rejection loop could diverge: ranges of 1, 2 and powers of two
    (``randrange(n)`` draws ``n.bit_length()`` bits, so ``n == 2**k``
    still rejects half its draws)."""

    @staticmethod
    def _assert_matches(spec, seed, n=3000, streams=None):
        gen_cls, ref_cls = ((SyntheticTraceGenerator, _RandrangeDraws)
                            if streams is None else _streams(streams))
        packed = gen_cls(spec, seed=seed)
        reference = ref_cls(spec, seed=seed)
        # Two calls: the second resumes where the first loop stopped.
        assert packed.generate_packed(n // 2).data.tobytes() \
            + packed.generate_packed(n - n // 2).data.tobytes() \
            == reference.packed(n)
        assert packed._rng.getstate() == reference._rng.getstate()
        assert packed._hot_lines == reference._hot_lines
        assert packed._streams == reference._streams
        iterated = gen_cls(spec, seed=seed)
        assert iterated.generate(n) == ref_cls(spec, seed=seed).requests(n)

    @pytest.mark.parametrize("seed", [1, 7, 1234])
    @pytest.mark.parametrize("name", sorted(SPEC2017))
    def test_workloads_match_randrange_oracle(self, name, seed):
        self._assert_matches(synthetic_spec(name), seed)

    @pytest.mark.parametrize("lines, hot_fraction", [
        (1, 1.0), (2, 1.0), (4, 1.0), (64, 1.0), (1024, 0.125),
        (1024, 1.0), (4096, 0.5), (3, 1.0), (1500, 0.9)])
    @pytest.mark.parametrize("spatial, temporal", [
        (0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (0.9, 0.1)])
    def test_small_and_power_of_two_ranges(self, lines, hot_fraction,
                                           spatial, temporal):
        spec = SyntheticSpec("edge", lines * CACHE_LINE_BYTES, spatial,
                             temporal, 10.0, hot_fraction=hot_fraction,
                             base_addr=64 * CACHE_LINE_BYTES)
        hot = min(lines, max(64, int(lines * hot_fraction)))
        assert len(SyntheticTraceGenerator(spec)._hot_lines) == hot
        for seed in (1, 7):
            self._assert_matches(spec, seed, n=1500)

    @pytest.mark.parametrize("streams", [1, 2, 3, 8])
    def test_stream_counts(self, streams):
        spec = SyntheticSpec("streams", 2048 * CACHE_LINE_BYTES, 0.7, 0.2,
                             10.0)
        self._assert_matches(spec, 5, n=1500, streams=streams)

    def test_unaligned_base_iterates_like_the_oracle(self):
        """``__iter__`` serves specs the packed layout refuses."""
        spec = SyntheticSpec("odd", 512 * CACHE_LINE_BYTES, 0.5, 0.5,
                             10.0, base_addr=3)
        with pytest.raises(ValueError, match="packed layout"):
            SyntheticTraceGenerator(spec).generate_packed(1)
        assert SyntheticTraceGenerator(spec).generate(800) == \
            _RandrangeDraws(spec).requests(800)


class TestSpecCatalogue:
    def test_fourteen_benchmarks(self):
        assert len(SPEC2017) == 14

    def test_groups_partition_catalogue(self):
        names = [n for group in MPKI_GROUPS.values() for n in group]
        assert sorted(names) == sorted(SPEC2017)

    def test_table2_values(self):
        assert SPEC2017["roms"].mpki == 31.9
        assert SPEC2017["roms"].footprint_gb == 10.6
        assert SPEC2017["leela"].mpki == 0.1
        assert SPEC2017["mcf"].footprint_gb == 0.2

    def test_fig1_locality_classes(self):
        # The paper's three exemplars (Figure 1).
        mcf, wrf, xz = SPEC2017["mcf"], SPEC2017["wrf"], SPEC2017["xz"]
        assert mcf.spatial > 0.7 and mcf.temporal > 0.7
        assert wrf.spatial < 0.3 and wrf.temporal > 0.7
        assert xz.spatial > 0.7 and xz.temporal < 0.3

    def test_scale_ratios_preserved(self):
        paper = PAPER_SCALE
        small = DEFAULT_SCALE
        assert paper.dram_bytes / paper.hbm_bytes == pytest.approx(
            small.dram_bytes / small.hbm_bytes)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            SystemScale(0.0)
        with pytest.raises(ValueError):
            SystemScale(2.0)

    def test_roms_exceeds_dram_at_every_scale(self):
        # Table II: roms (10.6GB) overflows the 10GB module — the trigger
        # for the high-memory-footprint machinery must survive scaling.
        for scale in (PAPER_SCALE, DEFAULT_SCALE):
            assert (scale.footprint_bytes(SPEC2017["roms"])
                    > scale.dram_bytes)

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            synthetic_spec("doom3")
