"""Tests for the design registry and declarative DesignSpec layer."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Campaign,
    ExperimentConfig,
    ExperimentHarness,
    ResultCache,
    SANITIZE_DESIGNS,
)
from repro.baselines import (
    FIGURE7_VARIANTS,
    FIGURE8_DESIGNS,
    AlloyCacheController,
    BansheeController,
    ChameleonController,
    Hybrid2Controller,
    IdealHBMController,
    MemPodController,
    NoHBMController,
    UnisonCacheController,
    c_only,
    fixed_chbm,
    m_only,
)
from repro.cli import main
from repro.core.config import AllocationPolicy, BumblebeeConfig
from repro.core.hmmc import BumblebeeController
from repro.designs import DesignSpec, parse_grid, parse_grid_value, registry
from repro.analysis.differential import diff_results
from repro.mem import ddr4_3200_config, hbm2_config
from repro.sim import SimulationDriver
from repro.traces import SyntheticSpec, SyntheticTraceGenerator

MIB = 1 << 20
HBM = hbm2_config(8 * MIB)
DRAM = ddr4_3200_config(80 * MIB)

#: Every name the pre-registry if/elif factory understood.
LEGACY_NAMES = sorted(set(FIGURE8_DESIGNS) | set(FIGURE7_VARIANTS)
                      | {"No-HBM", "Ideal", "MemPod"})


def legacy_make_controller(name, hbm_config, dram_config,
                           sram_bytes=512 * 1024):
    """Verbatim replica of the pre-registry if/elif factory.

    The registry refactor must be behaviour-preserving: every name this
    factory understood has to produce a bit-identical simulation through
    ``registry.build``.  Keep this replica frozen.
    """
    if name == "No-HBM":
        return NoHBMController(dram_config)
    if name == "Ideal":
        return IdealHBMController(hbm_config, dram_config)
    if name == "MemPod":
        return MemPodController(hbm_config, dram_config)
    if name == "Bumblebee":
        return BumblebeeController(hbm_config, dram_config)
    if name == "Banshee":
        return BansheeController(hbm_config, dram_config)
    if name == "AlloyCache":
        return AlloyCacheController(hbm_config, dram_config)
    if name == "UnisonCache":
        return UnisonCacheController(hbm_config, dram_config)
    if name == "Chameleon":
        return ChameleonController(hbm_config, dram_config,
                                   sram_bytes=sram_bytes)
    if name == "Hybrid2":
        return Hybrid2Controller(hbm_config, dram_config,
                                 sram_bytes=sram_bytes)
    if name == "C-Only":
        return c_only(hbm_config, dram_config)
    if name == "M-Only":
        return m_only(hbm_config, dram_config)
    if name == "25%-C":
        return fixed_chbm(hbm_config, dram_config, 0.25)
    if name == "50%-C":
        return fixed_chbm(hbm_config, dram_config, 0.50)
    if name == "No-Multi":
        return BumblebeeController(
            hbm_config, dram_config,
            BumblebeeConfig(multiplexed=False), name="No-Multi")
    if name == "Meta-H":
        return BumblebeeController(
            hbm_config, dram_config,
            BumblebeeConfig(metadata_in_hbm=True), name="Meta-H")
    if name == "Alloc-D":
        return BumblebeeController(
            hbm_config, dram_config,
            BumblebeeConfig(allocation=AllocationPolicy.DRAM),
            name="Alloc-D")
    if name == "Alloc-H":
        return BumblebeeController(
            hbm_config, dram_config,
            BumblebeeConfig(allocation=AllocationPolicy.HBM), name="Alloc-H")
    if name == "No-HMF":
        return BumblebeeController(
            hbm_config, dram_config,
            BumblebeeConfig(hmf_enabled=False), name="No-HMF")
    raise ValueError(f"unknown design {name!r}")


def run_trace(controller, n=1200, seed=11):
    spec = SyntheticSpec("t", 16 * MIB, 0.5, 0.7, mpki=16.0,
                         hot_fraction=0.1)
    trace = SyntheticTraceGenerator(spec, seed=seed).generate_packed(n)
    return SimulationDriver().run(controller, trace, workload="t")


# ---- DesignSpec ------------------------------------------------------------


class TestDesignSpec:
    def test_derived_name_and_pinned_hash(self):
        spec = DesignSpec("Bumblebee", {"chbm_ratio": 0.25,
                                        "allocation": "dram"})
        assert spec.name == "Bumblebee[allocation=dram,chbm_ratio=0.25]"
        # The hash is a persistence contract (result-cache keys, campaign
        # resume keys): a change here invalidates every stored record.
        assert spec.spec_hash == ("bc76f7390125e9797f8a723d205dcc4c"
                                  "8988577e575d7a2138faf64049b46444")

    def test_param_order_insensitive(self):
        a = DesignSpec("Bumblebee", {"chbm_ratio": 0.5, "hbm_ways": 4})
        b = DesignSpec("Bumblebee", {"hbm_ways": 4, "chbm_ratio": 0.5})
        assert a == b
        assert hash(a) == hash(b)
        assert a.spec_hash == b.spec_hash
        assert a.to_json() == b.to_json()

    def test_rejects_duplicate_and_non_scalar_params(self):
        with pytest.raises(ValueError, match="duplicate"):
            DesignSpec("Bumblebee", (("a", 1), ("a", 2)))
        with pytest.raises(TypeError, match="JSON"):
            DesignSpec("Bumblebee", {"a": [1, 2]})
        with pytest.raises(ValueError, match="base"):
            DesignSpec("")

    def test_with_params_rederives_name(self):
        spec = DesignSpec("Bumblebee", {"chbm_ratio": 0.5})
        widened = spec.with_params(hbm_ways=4)
        assert widened.get("chbm_ratio") == 0.5
        assert widened.get("hbm_ways") == 4
        assert "hbm_ways=4" in widened.name

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(
        st.text(st.characters(codec="ascii", exclude_characters="="),
                min_size=1, max_size=8),
        st.one_of(st.booleans(), st.integers(-2**31, 2**31), st.none(),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.text(max_size=12)),
        max_size=6))
    def test_json_round_trip_and_hash_stability(self, params):
        spec = DesignSpec("Bumblebee", params)
        again = DesignSpec.from_json(spec.to_json())
        assert again == spec
        assert again.name == spec.name
        assert again.spec_hash == spec.spec_hash
        # Re-serialising the round-tripped spec is a fixed point.
        assert again.to_json() == spec.to_json()
        # A shuffled construction order changes nothing.
        reordered = DesignSpec("Bumblebee",
                               dict(reversed(list(params.items()))))
        assert reordered.spec_hash == spec.spec_hash

    def test_hash_stable_across_processes(self):
        # sha256 of canonical JSON contains no per-process state (no
        # PYTHONHASHSEED dependence); recomputing from parsed JSON in a
        # fresh object must land on the identical digest.
        spec = DesignSpec("Chameleon", {"sram_bytes": 1024})
        payload = json.loads(spec.to_json())
        assert DesignSpec.from_dict(payload).spec_hash == spec.spec_hash


class TestGridParsing:
    def test_value_coercion(self):
        assert parse_grid_value("true") is True
        assert parse_grid_value("none") is None
        assert parse_grid_value("8") == 8
        assert parse_grid_value("0.25") == 0.25
        assert parse_grid_value("dram") == "dram"

    def test_parse_grid(self):
        grid = parse_grid(["chbm_ratio=0,0.5,1.0", "allocation=dram,hbm"])
        assert list(grid) == ["chbm_ratio", "allocation"]
        assert grid["chbm_ratio"] == [0, 0.5, 1.0]
        assert grid["allocation"] == ["dram", "hbm"]

    def test_parse_grid_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_grid(["chbm_ratio"])
        with pytest.raises(ValueError):
            parse_grid(["=1,2"])
        with pytest.raises(ValueError):
            parse_grid(["a=1", "a=2"])
        with pytest.raises(ValueError):
            parse_grid([])


# ---- registry --------------------------------------------------------------


class TestRegistry:
    def test_paper_name_lists_derive_from_registry(self):
        assert FIGURE8_DESIGNS == ["Banshee", "AlloyCache", "UnisonCache",
                                   "Chameleon", "Hybrid2", "Bumblebee"]
        assert FIGURE7_VARIANTS == ["C-Only", "M-Only", "25%-C", "50%-C",
                                    "No-Multi", "Meta-H", "Alloc-D",
                                    "Alloc-H", "No-HMF", "Bumblebee"]
        assert set(LEGACY_NAMES) <= set(registry.names())
        assert set(registry.names()) == set(SANITIZE_DESIGNS)

    @pytest.mark.parametrize("name", sorted(registry.names()))
    def test_every_registered_design_builds_and_replays(self, name):
        controller = registry.build(name, HBM, DRAM, sram_bytes=16 * 1024)
        assert controller.name == name
        result = run_trace(controller, n=800)
        assert result.requests == 800
        assert result.ipc > 0

    def test_unknown_design_lists_known_names(self):
        with pytest.raises(ValueError) as excinfo:
            registry.build("FancyCache", HBM, DRAM)
        message = str(excinfo.value)
        for name in ("Bumblebee", "Banshee", "Chameleon", "No-HBM"):
            assert name in message
        with pytest.raises(ValueError, match="Bumblebee"):
            registry.build("FancyCache", HBM, DRAM)

    def test_undeclared_param_rejected_with_supported_list(self):
        spec = DesignSpec("Banshee", {"chbm_ratio": 0.5})
        with pytest.raises(ValueError) as excinfo:
            registry.build(spec, HBM, DRAM)
        assert "chbm_ratio" in str(excinfo.value)

    def test_sram_bytes_reaches_declaring_designs(self):
        for name in ("Chameleon", "Hybrid2"):
            small = registry.build(name, HBM, DRAM, sram_bytes=1024)
            big = registry.build(name, HBM, DRAM, sram_bytes=16 * MIB)
            assert not small.metadata_in_sram()
            assert big.metadata_in_sram()

    def test_sram_bytes_spec_override_beats_harness_default(self):
        spec = DesignSpec("Chameleon", {"sram_bytes": 16 * MIB})
        controller = registry.build(spec, HBM, DRAM, sram_bytes=1024)
        assert controller.metadata_in_sram()

    def test_sram_bytes_explicitly_unsupported_elsewhere(self):
        # The harness-level default is ignored (historical factory
        # behaviour) ...
        registry.build("Banshee", HBM, DRAM, sram_bytes=1024)
        # ... but a spec-level override on a design that declares no
        # such parameter is an error, not a silent no-op.
        spec = DesignSpec("Banshee", {"sram_bytes": 1024})
        with pytest.raises(ValueError, match="sram_bytes"):
            registry.build(spec, HBM, DRAM)

    def test_chbm_ratio_conflicts_with_fixed_ways(self):
        spec = DesignSpec("Bumblebee", {"chbm_ratio": 0.5,
                                        "fixed_chbm_ways": 2})
        with pytest.raises(ValueError):
            registry.build(spec, HBM, DRAM)
        with pytest.raises(ValueError):
            registry.build(DesignSpec("Bumblebee", {"chbm_ratio": 1.5}),
                           HBM, DRAM)

    def test_expand_grid_cross_product(self):
        grid = {"chbm_ratio": [0.0, 0.25, 0.5, 0.75, 1.0],
                "allocation": ["dram", "hbm", "adaptive"],
                "hmf_enabled": [True, False]}
        specs = registry.expand_grid("Bumblebee", grid)
        assert len(specs) == 30
        names = [spec.name for spec in specs]
        hashes = [spec.spec_hash for spec in specs]
        assert len(set(names)) == 30
        assert len(set(hashes)) == 30
        # Deterministic order: grid key order, last key fastest.
        assert specs[0].get("chbm_ratio") == 0.0
        assert specs[0].get("hmf_enabled") is True
        assert specs[1].get("hmf_enabled") is False
        assert specs[1].get("chbm_ratio") == 0.0
        assert specs[-1] == DesignSpec(
            "Bumblebee", {"chbm_ratio": 1.0, "allocation": "adaptive",
                          "hmf_enabled": False})

    def test_expand_grid_rejects_bad_axes(self):
        with pytest.raises(ValueError, match="supported"):
            registry.expand_grid("Banshee", {"chbm_ratio": [0.5]})
        with pytest.raises(ValueError, match="no values"):
            registry.expand_grid("Bumblebee", {"chbm_ratio": []})
        with pytest.raises(ValueError, match="unknown base"):
            registry.expand_grid("FancyCache", {"chbm_ratio": [0.5]})


# ---- behaviour preservation ------------------------------------------------


class TestLegacyBitIdentity:
    @pytest.mark.parametrize("name", LEGACY_NAMES)
    def test_registry_matches_legacy_factory(self, name):
        """Every pre-refactor name simulates bit-identically through the
        registry (the refactor's behaviour-preservation contract)."""
        legacy = run_trace(legacy_make_controller(name, HBM, DRAM,
                                                  sram_bytes=16 * 1024))
        routed = run_trace(registry.build(name, HBM, DRAM,
                                          sram_bytes=16 * 1024))
        assert diff_results(legacy, routed, ignore=()) == []


# ---- cache keying ----------------------------------------------------------


FAST = dict(requests=900, warmup=300, workloads=("leela",))


class TestSpecCacheKeys:
    def test_specs_differing_in_one_param_miss_each_other(self, tmp_path):
        """Two specs sharing a base but differing in one parameter must
        never alias in the persistent result cache (the latent name-only
        keying bug this layer fixes)."""
        a = DesignSpec("Bumblebee", {"chbm_ratio": 0.0})
        b = DesignSpec("Bumblebee", {"chbm_ratio": 1.0})
        cache = ResultCache(tmp_path / "cache")
        warm = ExperimentHarness(ExperimentConfig(**FAST), cache=cache)
        first = warm.run_design(a, "leela")

        fresh = ExperimentHarness(ExperimentConfig(**FAST),
                                  cache=ResultCache(tmp_path / "cache"))
        assert fresh.cached_comparison(a, "leela") is not None
        assert fresh.cached_comparison(b, "leela") is None
        second = fresh.run_design(b, "leela")
        assert first.norm_ipc != second.norm_ipc

    def test_name_and_eponymous_spec_share_a_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        harness = ExperimentHarness(ExperimentConfig(**FAST), cache=cache)
        harness.run_design("Bumblebee", "leela")
        fresh = ExperimentHarness(ExperimentConfig(**FAST),
                                  cache=ResultCache(tmp_path / "cache"))
        assert fresh.cached_comparison(
            registry.spec("Bumblebee"), "leela") is not None

    def test_campaign_resumes_spec_cells(self, tmp_path):
        spec = DesignSpec("Bumblebee", {"chbm_ratio": 0.5})
        harness = ExperimentHarness(ExperimentConfig(**FAST))
        campaign = Campaign(harness, tmp_path / "campaign.jsonl")
        assert campaign.run([spec, "Banshee"], ["leela"]) == 2

        resumed = Campaign(ExperimentHarness(ExperimentConfig(**FAST)),
                           tmp_path / "campaign.jsonl")
        assert resumed.has(spec, "leela")
        assert resumed.has("Banshee", "leela")
        # The sibling sweep point is still missing: spec cells key on
        # the spec hash, not the shared base name.
        assert not resumed.has(DesignSpec("Bumblebee",
                                          {"chbm_ratio": 0.25}), "leela")
        assert resumed.run([spec, "Banshee"], ["leela"]) == 0
        assert resumed.matrix()[spec.name]["leela"] == pytest.approx(
            campaign.matrix()[spec.name]["leela"])


class TestSpecTrustBoundary:
    @pytest.mark.parametrize("field, value", [
        ("page_bytes", 0), ("block_bytes", 0), ("page_bytes", -65536),
        ("hbm_ways", 0)])
    def test_non_positive_geometry_rejected(self, field, value):
        """A zero or negative size is a typed error naming the field,
        on the harness path (device refit first) and a direct build."""
        spec = DesignSpec("Bumblebee", {field: value})
        harness = ExperimentHarness(ExperimentConfig(**FAST))
        with pytest.raises(ValueError, match=field):
            harness.run_design(spec, "leela")
        with pytest.raises(ValueError, match=field):
            registry.build(spec, HBM, DRAM)


# ---- CLI -------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestDesignsCli:
    def test_designs_list(self, capsys):
        code, out = run_cli(capsys, "designs", "list")
        assert code == 0
        for name in registry.names():
            assert name in out

    def test_designs_show(self, capsys):
        code, out = run_cli(capsys, "designs", "show", "25%-C")
        assert code == 0
        assert "chbm_ratio" in out
        assert registry.spec("25%-C").spec_hash in out
        assert "replay    : vectorized two-pass epoch engine" in out

    def test_designs_show_unknown(self, capsys):
        code = main(["designs", "show", "FancyCache"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Bumblebee" in err

    def test_sweep_grid_and_resume(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        argv = ("sweep", "--base", "Bumblebee",
                "--grid", "chbm_ratio=0,1.0",
                "--grid", "allocation=dram,adaptive",
                "--workloads", "leela", "--out", str(out_file),
                "--requests", "900", "--warmup", "300")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert "4 specs" in out
        assert "4 cells complete (4 new)" in out

        code, out = run_cli(capsys, *argv, "--resume")
        assert code == 0
        assert "4 cells complete (0 new)" in out

    def test_sweep_refits_devices_to_page_size(self, capsys, tmp_path):
        # 96KB pages do not tile the harness capacities: the cell runs
        # on devices refit to whole 96KB-page sets.
        code, out = run_cli(capsys, "sweep", "--base", "Bumblebee",
                            "--grid", "page_bytes=65536,98304",
                            "--workloads", "leela",
                            "--out", str(tmp_path / "sweep.jsonl"),
                            "--requests", "900", "--warmup", "300")
        assert code == 0
        assert "2 cells complete (2 new)" in out

    @pytest.mark.parametrize("base, value, message", [
        ("Bumblebee", "page_bytes=0", "page_bytes must be positive"),
        ("Bumblebee", "hbm_ways=0", "hbm_ways must be positive"),
        ("Bumblebee", "block_bytes=3", "multiple of block size"),
        ("Bumblebee", "page_bytes=abc",
         "page_bytes must be a positive integer"),
        ("Bumblebee", "zombie_patience=-1",
         "zombie_patience must be positive, got -1"),
        ("Bumblebee", "hmf_cooldown_requests=0",
         "hmf_cooldown_requests must be positive, got 0"),
        ("Bumblebee", "most_blocks_fraction=abc",
         "most_blocks_fraction must be a real number in (0, 1], got 'abc'"),
        ("Bumblebee", "chbm_ratio=abc",
         "chbm_ratio must be a real number in [0, 1], got 'abc'"),
        ("Hybrid2", "sram_bytes=abc",
         "sram_bytes must be an integer of at least 512, got 'abc'"),
        ("Chameleon", "sram_bytes=-1",
         "sram_bytes must be an integer of at least 512, got -1"),
        ("Hybrid2", "sram_bytes=0",
         "sram_bytes must be an integer of at least 512, got 0"),
        ("Chameleon", "sram_bytes=511",
         "sram_bytes must be an integer of at least 512, got 511"),
        ("Hybrid2", "sram_bytes=true",
         "sram_bytes must be an integer of at least 512, got True"),
        ("Hybrid2", "sram_bytes=1000",
         "sram_bytes must hold whole 8-way sets of 64B lines, got 1000"),
        ("UnisonCache", "seed=abc", "seed must be an integer, got 'abc'"),
        ("UnisonCache", "seed=1.5", "seed must be an integer, got 1.5"),
        ("UnisonCache", "seed=true", "seed must be an integer, got True")])
    def test_sweep_rejects_bad_geometry_before_any_cell(
            self, capsys, tmp_path, base, value, message):
        """A value the builder rejects exits 2 naming the spec, before
        the campaign file opens and without a traceback."""
        out_file = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--base", base, "--grid", value,
                     "--workloads", "mcf", "--out", str(out_file),
                     "--requests", "200", "--warmup", "100"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"{base}[{value}]: ")
        assert message in err
        assert not out_file.exists()

    def test_explore_rejects_bad_geometry_before_any_cell(self, capsys,
                                                          tmp_path):
        """``explore`` runs the same check before its campaign opens."""
        out_file = tmp_path / "explore.jsonl"
        code = main(["explore", "--base", "Bumblebee",
                     "--grid", "page_bytes=0,65536", "--workloads", "mcf",
                     "--out", str(out_file), "--requests", "200",
                     "--warmup", "100"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("Bumblebee[page_bytes=0]: page_bytes must be "
                       "positive, got 0\n")
        assert not out_file.exists()

    def test_fabric_serve_rejects_bad_geometry_before_serving(
            self, capsys, tmp_path, monkeypatch):
        """``fabric serve`` runs the same check before it opens the
        campaign and listens; serving at all is a failure here."""
        from repro.fabric import FabricCoordinator

        def serve(self, *args, **kwargs):
            raise AssertionError("served a campaign with a bad spec")

        monkeypatch.setattr(FabricCoordinator, "serve", serve)
        out_file = tmp_path / "fleet.jsonl"
        code = main(["fabric", "serve", "--base", "Bumblebee",
                     "--grid", "page_bytes=0", "--workloads", "mcf",
                     "--out", str(out_file), "--requests", "200",
                     "--warmup", "100", "--once", "--no-timing"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("Bumblebee[page_bytes=0]: page_bytes must be "
                       "positive, got 0\n")
        assert not out_file.exists()

    def test_sweep_rejects_bad_grid(self, capsys):
        code = main(["sweep", "--grid", "warp_factor=9",
                     "--workloads", "leela"])
        err = capsys.readouterr().err
        assert code == 2
        assert "warp_factor" in err
