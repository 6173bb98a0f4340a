"""Tests for campaign persistence and repository-quality gates."""

import inspect
import json

import pytest

import repro
from repro import ExperimentConfig, ExperimentHarness
from repro.analysis import Campaign, run_campaign

FAST = ExperimentConfig(requests=2500, warmup=500,
                        workloads=("leela", "mcf"))


def read_records(path):
    """Records from a campaign file (JSON Lines, one per line)."""
    return [json.loads(line)
            for line in path.read_text().splitlines() if line.strip()]


@pytest.fixture()
def harness():
    return ExperimentHarness(FAST)


class TestCampaign:
    def test_fills_matrix_and_persists(self, harness, tmp_path):
        path = tmp_path / "c.json"
        campaign = run_campaign(harness, path, ["Bumblebee"],
                                ["leela", "mcf"])
        assert campaign.completed_cells == 2
        records = read_records(path)
        assert {r["workload"] for r in records} == {"leela", "mcf"}
        assert all("norm_ipc" in r for r in records)

    def test_resume_skips_existing_cells(self, harness, tmp_path):
        path = tmp_path / "c.json"
        Campaign(harness, path).run(["Bumblebee"], ["leela"])
        resumed = Campaign(harness, path)
        new_runs = resumed.run(["Bumblebee", "AlloyCache"], ["leela"])
        assert new_runs == 1
        assert resumed.completed_cells == 2

    def test_records_carry_config(self, harness, tmp_path):
        path = tmp_path / "c.json"
        run_campaign(harness, path, ["Bumblebee"], ["leela"])
        record = read_records(path)[0]
        assert record["config"]["requests"] == FAST.requests
        assert record["config"]["seed"] == FAST.seed

    def test_matrix_and_render(self, harness, tmp_path):
        campaign = run_campaign(harness, tmp_path / "c.json",
                                ["Bumblebee", "AlloyCache"], ["leela"])
        matrix = campaign.matrix()
        assert set(matrix) == {"Bumblebee", "AlloyCache"}
        text = campaign.render()
        assert "Bumblebee" in text and "leela" in text

    def test_empty_campaign_renders(self, harness, tmp_path):
        campaign = Campaign(harness, tmp_path / "c.json")
        assert "empty" in campaign.render()


def public_symbols(module):
    for name in getattr(module, "__all__", []):
        yield name, getattr(module, name)


class TestRepositoryQuality:
    """Docstring coverage gates on the public API."""

    MODULES = [repro, repro.mem, repro.sim, repro.cache, repro.traces,
               repro.core, repro.baselines, repro.analysis]

    @pytest.mark.parametrize("module", MODULES,
                             ids=lambda m: m.__name__)
    def test_every_public_symbol_documented(self, module):
        undocumented = []
        for name, symbol in public_symbols(module):
            if inspect.isclass(symbol) or inspect.isfunction(symbol):
                if not inspect.getdoc(symbol):
                    undocumented.append(name)
        assert not undocumented, (
            f"{module.__name__}: missing docstrings on {undocumented}")

    @pytest.mark.parametrize("module", MODULES,
                             ids=lambda m: m.__name__)
    def test_module_docstrings_present(self, module):
        assert inspect.getdoc(module)

    def test_public_classes_document_their_methods(self):
        from repro.baselines.base import HybridMemoryController
        from repro.core import BumblebeeController
        for cls in (HybridMemoryController, BumblebeeController):
            for name, member in inspect.getmembers(
                    cls, predicate=inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert inspect.getdoc(member), (cls.__name__, name)

    def test_version_exported(self):
        assert repro.__version__ == "1.6.0"
