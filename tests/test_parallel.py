"""Parallel execution, the persistent result cache, and JSONL campaigns.

The contract under test: fanning experiment cells over worker processes,
or loading them from the on-disk cache, must be *bit-identical* to
computing them serially in-process — same floats, same records — and a
corrupted cache entry must be healed by recomputation, never returned.
"""

import dataclasses
import enum
import json

import pytest

from repro import ExperimentConfig, ExperimentHarness, __version__
from repro.analysis import Campaign, ResultCache
from repro.analysis.campaign import run_campaign
from repro.cli import main
from repro.analysis.artefacts import ARTEFACTS, figure7
from repro.analysis.experiments import fitted_devices
from repro.analysis.metrics import compare, geomean_speedup
from repro.core.config import BumblebeeConfig
from repro.core.hmmc import BumblebeeController
from repro.designs import DesignSpec, registry
from repro.exec import enumerate_cells, run_cells
from repro.exec.backends import resolve_jobs
from repro.sim.driver import SimulationDriver
from repro.traces.packed import PackedTrace
from repro.traces.spec import SPEC2017

FAST = ExperimentConfig(requests=1500, warmup=500,
                        workloads=("leela", "mcf"))

CELLS = [("Bumblebee", "leela"), ("Bumblebee", "mcf"),
         ("Banshee", "leela"), ("Banshee", "mcf")]

#: A page size that does not tile the harness capacities: its cells run
#: on devices the harness refits to whole 96KB-page sets.
PAGE_96K = DesignSpec(base="Bumblebee", params={"page_bytes": 96 * 1024})


class TestParallelIdentical:
    def test_design_cells_bit_identical(self):
        serial = run_cells(ExperimentHarness(FAST), CELLS, jobs=1)
        parallel = run_cells(ExperimentHarness(FAST), CELLS, jobs=2)
        assert serial == parallel    # frozen dataclasses: exact equality

    def test_duplicates_collapse(self):
        results = run_cells(
            ExperimentHarness(FAST),
            [("Banshee", "leela"), ("Banshee", "leela")], jobs=2)
        assert len(results) == 1

    def test_figure7_identical(self):
        variants = ("Bumblebee", "No-HMF")
        cells = enumerate_cells(variants, ("leela",))
        serial = figure7(run_cells(ExperimentHarness(FAST), cells),
                         variants)
        parallel = figure7(run_cells(ExperimentHarness(FAST), cells,
                                     jobs=2), variants)
        assert serial == parallel

    def test_bumblebee_cells_page_refit(self):
        cells = [(PAGE_96K, "leela"), (PAGE_96K, "mcf")]
        serial = run_cells(ExperimentHarness(FAST), cells, jobs=1)
        parallel = run_cells(ExperimentHarness(FAST), cells, jobs=2)
        assert serial == parallel

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestFigure6SpecCells:
    def test_figure6_matches_direct_controllers(self):
        """Figure 6 fills Bumblebee spec cells on refit devices; each
        equals a controller built directly on ``fitted_devices``."""
        harness = ExperimentHarness(FAST)
        results = ARTEFACTS["6"].run(harness)
        reference = ExperimentHarness(FAST)
        for page in (64 * 1024, 96 * 1024, 128 * 1024):
            hbm, dram = fitted_devices(FAST.scale, page_bytes=page)
            for block in (1024, 2048, 4096):
                spec = DesignSpec(base="Bumblebee", params={
                    "page_bytes": page, "block_bytes": block})
                expected = []
                for workload in FAST.workloads:
                    controller = BumblebeeController(
                        hbm, dram,
                        BumblebeeConfig(page_bytes=page, block_bytes=block),
                        name=spec.name)
                    result = reference.driver.run(
                        controller, reference.trace(workload),
                        workload=workload, warmup=FAST.warmup)
                    expected.append(compare(result,
                                            reference.baseline(workload)))
                    assert harness.cached_comparison(spec, workload) == \
                        expected[-1]
                assert results[(block, page)]["norm_ipc"] == \
                    geomean_speedup(expected)


class TestResultCache:
    def test_hit_returns_identical_comparison(self, tmp_path):
        first = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        computed = first.run_design("Bumblebee", "leela")
        second = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        cached = second.run_design("Bumblebee", "leela")
        assert cached == computed
        assert second.cache.hits == 1 and second.cache.misses == 0

    def test_key_covers_config(self, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentHarness(FAST, cache=cache).run_design("Banshee", "leela")
        other = dataclasses.replace(FAST, seed=99)
        fresh = ExperimentHarness(other, cache=cache)
        assert fresh.cached_comparison("Banshee", "leela") is None

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        harness = ExperimentHarness(FAST, cache=cache)
        computed = harness.run_design("Bumblebee", "leela")
        key = harness._comparison_key("Bumblebee", "leela")
        entry = tmp_path / f"{key}.json"
        entry.write_text("{ not json at all")
        healed = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        assert healed.run_design("Bumblebee", "leela") == computed
        assert healed.cache.misses == 1

    def test_tampered_record_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        harness = ExperimentHarness(FAST, cache=cache)
        computed = harness.run_design("Bumblebee", "leela")
        key = harness._comparison_key("Bumblebee", "leela")
        entry = tmp_path / f"{key}.json"
        wrapped = json.loads(entry.read_text())
        wrapped["record"]["norm_ipc"] = 99.0    # poison, stale digest
        entry.write_text(json.dumps(wrapped))
        healed = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        result = healed.run_design("Bumblebee", "leela")
        assert result == computed
        assert result.norm_ipc != 99.0

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(ResultCache.key_for(a=1), {"x": 1})
        cache.put(ResultCache.key_for(a=2), {"x": 2})
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_bumblebee_cells_share_cache(self, tmp_path):
        cells = [(PAGE_96K, "leela")]
        first = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        computed = run_cells(first, cells)
        second = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        assert run_cells(second, cells) == computed
        assert second.cache.hits == 1 and second.cache.misses == 0

    def test_encoded_key_equals_key_for(self):
        class Colour(enum.Enum):
            RED = 1
        fields = dict(design="Bee", design_spec={"b": [1, 2.5], "a": None},
                      design_spec_hash="ab", kind="design", flag=True,
                      label="caf\u00e9 \"q\"", policy=Colour.RED,
                      nested={"z": {"y": 1e-300, "x": -0.0}})
        encoded = ResultCache.encode_fields(**fields)
        assert ResultCache.key_for_encoded(encoded) == \
            ResultCache.key_for(**fields)


def _reference_fields(harness, workload):
    """The common key fields, derived the way the parent commit did."""
    c = harness.config
    return {"workload": workload,
            "spec": dataclasses.asdict(SPEC2017[workload]),
            "scale": c.scale.factor, "requests": c.requests,
            "warmup": c.warmup, "seed": c.seed,
            "cpu": dataclasses.asdict(c.cpu), "version": __version__}


def _reference_comparison_key(harness, design, workload, devices=None):
    spec = registry.resolve(design)
    hbm, dram = devices or (harness.hbm_config, harness.dram_config)
    return ResultCache.key_for(
        kind="design", design=spec.name, design_spec=spec.to_dict(),
        design_spec_hash=spec.spec_hash,
        hbm=dataclasses.asdict(hbm), dram=dataclasses.asdict(dram),
        sram_bytes=harness.config.scale.sram_bytes,
        **_reference_fields(harness, workload))


class TestKeyPins:
    """Memoized and pre-encoded key inputs must keep every result-cache
    key byte-identical, so caches written by earlier versions stay
    warm.  The reference re-derives each key from fresh
    ``dataclasses.asdict`` dumps through ``ResultCache.key_for``."""

    def test_comparison_keys(self):
        harness = ExperimentHarness(FAST)
        designs = list(registry.names()) + [
            DesignSpec(base="Bumblebee",
                       params={"chbm_ratio": 0.5, "allocation": "dram"})]
        assert len(designs) == 19
        for design in designs:
            for workload in SPEC2017:
                assert harness._comparison_key(design, workload) == \
                    _reference_comparison_key(harness, design, workload)

    def test_baseline_keys(self):
        harness = ExperimentHarness(FAST)
        for workload in SPEC2017:
            assert harness._baseline_key(workload) == ResultCache.key_for(
                kind="baseline",
                hbm=dataclasses.asdict(harness.hbm_config),
                dram=dataclasses.asdict(harness.dram_config),
                **_reference_fields(harness, workload))

    def test_spec_keys_at_harness_devices_and_refit(self):
        harness = ExperimentHarness(FAST)
        refit = fitted_devices(FAST.scale, page_bytes=96 * 1024)
        assert refit != (harness.hbm_config, harness.dram_config)
        assert harness.devices(PAGE_96K) == refit
        for workload in ("leela", "mcf"):
            assert harness._comparison_key(PAGE_96K, workload) == \
                _reference_comparison_key(harness, PAGE_96K, workload,
                                          devices=refit)
            # Sizes that tile the harness capacities keep its devices.
            for params in ({"page_bytes": 128 * 1024}, {"hbm_ways": 4},
                           {"hbm_ways": 16}):
                spec = DesignSpec(base="Bumblebee", params=params)
                assert harness.devices(spec) == \
                    (harness.hbm_config, harness.dram_config)
                assert harness._comparison_key(spec, workload) == \
                    _reference_comparison_key(harness, spec, workload)

    def test_edited_key_fields_do_not_leak(self):
        harness = ExperimentHarness(FAST)
        fields = harness._key_fields("mcf")
        fields["seed"] = -1
        fields["spec"]["mpki"] = 0.0
        fields["cpu"]["cores"] = 99
        assert harness._key_fields("mcf") == \
            _reference_fields(harness, "mcf")
        assert harness._comparison_key("Bumblebee", "mcf") == \
            _reference_comparison_key(harness, "Bumblebee", "mcf")
        assert harness._comparison_key(PAGE_96K, "mcf") == \
            _reference_comparison_key(
                harness, PAGE_96K, "mcf",
                devices=fitted_devices(FAST.scale, page_bytes=96 * 1024))


class TestCampaignJsonl:
    def test_appends_one_line_per_cell(self, tmp_path):
        path = tmp_path / "c.jsonl"
        run_campaign(ExperimentHarness(FAST), path, ["Banshee"],
                     ["leela", "mcf"])
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 2
        assert all(json.loads(line)["design"] == "Banshee"
                   for line in lines)

    def test_json_array_file_is_refused_untouched(self, tmp_path,
                                                   capsys):
        """The retired whole-file JSON-array format is refused by name,
        never recovered: line recovery would compact it to nothing."""
        path = tmp_path / "c.json"
        run_campaign(ExperimentHarness(FAST), path, ["Banshee"],
                     ["leela"])
        records = [json.loads(l) for l in path.read_text().splitlines()]
        path.write_text("\n " + json.dumps(records, indent=1))
        before = path.read_bytes()
        with pytest.raises(ValueError, match=str(path)):
            Campaign(ExperimentHarness(FAST), path)
        assert path.read_bytes() == before
        for argv in (["campaign", "--out", str(path), "--designs",
                      "Banshee", "--workloads", "leela", "--requests",
                      "800", "--warmup", "200"],
                     ["db", "ingest", str(path), "--db",
                      str(tmp_path / "runs.db")]):
            assert main(argv) == 2
            assert "JSON array" in capsys.readouterr().err
            assert path.read_bytes() == before

    def test_truncated_tail_line_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        run_campaign(ExperimentHarness(FAST), path, ["Banshee"],
                     ["leela", "mcf"])
        text = path.read_text()
        path.write_text(text[:text.rindex("{") + 10])   # torn last write
        resumed = Campaign(ExperimentHarness(FAST), path)
        assert resumed.completed_cells == 1

    def test_parallel_campaign_identical(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        run_campaign(ExperimentHarness(FAST), serial,
                     ["Banshee", "Bumblebee"], ["leela", "mcf"])
        parallel = tmp_path / "parallel.jsonl"
        run_campaign(ExperimentHarness(FAST), parallel,
                     ["Banshee", "Bumblebee"], ["leela", "mcf"], jobs=2)

        def records(path):
            # The timing block is observability, not a result — it
            # legitimately differs between runs and is stripped here.
            return sorted(({k: v for k, v in json.loads(l).items()
                            if k != "timing"}
                           for l in path.read_text().splitlines()),
                          key=lambda r: (r["design"], r["workload"]))

        assert records(serial) == records(parallel)


class TestZeroRequestRuns:
    def test_empty_run_reports_zero_not_fabricated(self):
        harness = ExperimentHarness(FAST)
        controller = registry.build("No-HBM", harness.hbm_config,
                                    harness.dram_config)
        result = SimulationDriver().run(controller, PackedTrace(),
                                        workload="empty")
        assert result.requests == 0
        assert result.elapsed_ns == 0.0

    def test_empty_run_ipc_raises(self):
        harness = ExperimentHarness(FAST)
        controller = registry.build("No-HBM", harness.hbm_config,
                                    harness.dram_config)
        result = SimulationDriver().run(controller, PackedTrace(),
                                        workload="empty")
        with pytest.raises(ValueError, match="no IPC"):
            result.ipc
