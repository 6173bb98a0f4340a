"""Paper artefacts as cell plans plus reducers.

The reducers of :mod:`repro.analysis.artefacts` must print what the
per-figure harness loops printed before them, read only the filled
plan (no cell is simulated twice), and refuse to render over a plan
with a missing cell.
"""

import socket

import pytest

from repro import ExperimentConfig, ExperimentHarness
from repro.analysis import Campaign
from repro.analysis.artefacts import (
    ARTEFACTS,
    VALIDATION,
    figure7,
    figure8,
    overfetch,
    overheads,
)
from repro.cli import _print_artefact, main
from repro.exec import CellPlan, enumerate_cells, run_cells
from repro.resilience import faults
from repro.resilience.faults import FaultSpec
from repro.sim.driver import SimulationDriver

#: A window small enough for tier-1 whose over-fetch and mode-switch
#: totals are non-zero for both designs.
PIN = ExperimentConfig(requests=6000, warmup=2000,
                       workloads=("wrf", "cam4", "mcf", "leela"))

# Printed by the per-figure harness methods (figure7_breakdown,
# figure8_comparison, sec4b_overfetch, sec4d_overheads) at PIN before
# they became reducers.
FIG7 = {"C-Only": 1.3923218644802604, "M-Only": 1.4419725276621311,
        "25%-C": 1.5014663375911508, "50%-C": 1.4753991722796655,
        "No-Multi": 1.3844857076574455, "Meta-H": 1.0680141636238347,
        "Alloc-D": 1.4217318026568218, "Alloc-H": 1.4593559861005163,
        "No-HMF": 1.3993015771058015, "Bumblebee": 1.4083418848065863}
# design -> group -> (norm_ipc, norm_hbm_traffic, norm_dram_traffic,
# norm_energy)
FIG8 = {
    "Banshee": {
        "high": (1.2257689442469677, 4.555666666666666, 4.572333333333333,
                 3.2085062953619876),
        "medium": (1.452037564826811, 3.14175, 2.75425,
                   2.3633906102540854),
        "low": (1.0092435359416325, 3.5393333333333334, 3.263333333333333,
                2.4801897338740257),
        "all": (1.2708376522154194, 3.594625, 3.3360416666666666,
                2.603869312436046)},
    "AlloyCache": {
        "high": (1.1359462691585414, 1.0225, 1.5006666666666666,
                 1.9558842506194372),
        "medium": (1.0705091913306828, 1.001, 1.7606666666666666,
                   2.4407671184003075),
        "low": (1.0020989321845974, 1.0008333333333332,
                1.6973333333333334, 2.2094430431581973),
        "all": (1.068715965767331, 1.0063333333333333, 1.6798333333333333,
                2.2617153826445624)},
    "UnisonCache": {
        "high": (0.8815477407741542, 1.1085208333333334,
                 1.4988333333333332, 2.2100157024625307),
        "medium": (0.8446636539047696, 1.11690625, 1.7598333333333334,
                   2.7739059642513455),
        "low": (0.9907623228913756, 1.1149166666666666,
                1.6973333333333334, 2.5142210987600837),
        "all": (0.8884760661967676, 1.1143125, 1.678958333333333,
                2.5680121824313265)},
    "Chameleon": {
        "high": (1.344514011518976, 2.9676666666666667, 2.5123333333333333,
                 1.8593602175762383),
        "medium": (1.6791835756461992, 2.6700833333333334, 1.90325,
                   1.8008949944942825),
        "low": (1.0144825333772147, 1.0, 0.0, 0.3834672838084588),
        "all": (1.4003982696786217, 2.3269583333333332, 1.5797083333333335,
                1.4611543725933156)},
    "Hybrid2": {
        "high": (1.1306856563201466, 2.8755, 2.7138333333333335,
                 2.5991464284436887),
        "medium": (1.3422394067483734, 3.5278333333333336,
                   3.3968333333333334, 3.534059535094455),
        "low": (1.0074320191546327, 4.219666666666667, 4.175,
                3.7732711957876495),
        "all": (1.1968904471791335, 3.5377083333333337, 3.4206250000000002,
                3.3601341736050623)},
    "Bumblebee": {
        "high": (1.173193792875776, 34.5175, 33.92783333333333,
                 17.546593849038953),
        "medium": (1.8180865103530293, 3.322, 2.35, 1.9939951748227935),
        "low": (1.014456751690956, 1.9036666666666666, 0.9096666666666666,
                0.9531625292934927),
        "all": (1.4083418848065863, 10.766291666666666, 9.884375,
                5.621936681994508)},
}
OVERFETCH = {"Hybrid2": 0.00013831683776971784,
             "Bumblebee": 0.15195741758241757}
OVERHEADS = {"mal_reduction": 1.0,
             "mode_switch_reduction": 0.3727647867950481,
             "totals": {"Bumblebee": {"mal_ns": 0.0,
                                      "switch_bytes": 1167360},
                        "Hybrid2": {"mal_ns": 62832.0,
                                    "switch_bytes": 1861120}}}


@pytest.fixture(scope="module")
def pinned():
    """Every comparison of the validation plan at PIN, serially."""
    harness = ExperimentHarness(PIN)
    return run_cells(harness, enumerate_cells(VALIDATION.designs,
                                              PIN.workloads))


class TestReducersMatchTheHarnessLoops:
    def test_figure7(self, pinned):
        assert figure7(pinned) == FIG7

    def test_figure8(self, pinned):
        results = figure8(pinned)
        assert {design: {group: (s.norm_ipc, s.norm_hbm_traffic,
                                 s.norm_dram_traffic, s.norm_energy)
                         for group, s in groups.items()}
                for design, groups in results.items()} == FIG8

    def test_overfetch(self, pinned):
        assert overfetch(pinned) == OVERFETCH

    def test_overheads(self, pinned):
        assert overheads(pinned) == OVERHEADS

    def test_run_reduces_its_own_plan(self, pinned):
        harness = ExperimentHarness(PIN)
        assert ARTEFACTS["overheads"].run(harness) == OVERHEADS
        assert ARTEFACTS["8a"].run(harness) == figure8(pinned)


def _window(*extra):
    return ["--requests", "600", "--warmup", "200", "--no-timing",
            *extra]


class TestPlanCommands:
    def test_validate_replays_each_cell_once(self, tmp_path, monkeypatch,
                                             capsys):
        """designs x workloads cells plus one baseline per workload: the
        over-fetch claim reads the Figure 8 cells' counts."""
        calls = []
        run = SimulationDriver.run

        def counting(self, *args, **kwargs):
            calls.append(kwargs.get("workload"))
            return run(self, *args, **kwargs)

        monkeypatch.setattr(SimulationDriver, "run", counting)
        code = main(["validate", "--workloads", "lbm", "leela",
                     "--out", str(tmp_path / "v.jsonl"), *_window()])
        assert code in (0, 1)
        assert len(calls) == len(VALIDATION.designs) * 2 + 2
        out = capsys.readouterr().out
        assert "shape claims reproduced" in out
        assert "normalised IPC (all workloads)" in out

    def test_validate_jobs_and_resume_print_the_same_claims(
            self, tmp_path, capsys):
        def claims(*args) -> list[str]:
            main(["validate", "--workloads", "leela", *_window(*args)])
            return [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith(("[PASS]", "[MISS]", "[SKIP]",
                                        "-- "))]

        serial = claims("--out", str(tmp_path / "serial.jsonl"))
        assert serial
        assert claims("--out", str(tmp_path / "jobs.jsonl"),
                      "--jobs", "2") == serial
        half = tmp_path / "half.jsonl"
        lines = (tmp_path / "serial.jsonl").read_bytes().splitlines(
            keepends=True)
        half.write_bytes(b"".join(lines[:len(lines) // 2]))
        assert claims("--out", str(half), "--resume") == serial
        assert half.read_bytes() == (tmp_path / "serial.jsonl").read_bytes()

    def test_figure_honours_the_result_cache(self, tmp_path, monkeypatch,
                                             capsys):
        args = ["figure", "--id", "overheads", "--workloads", "leela",
                "--cache", str(tmp_path / "cache"), *_window()]
        assert main([*args, "--out", str(tmp_path / "a.jsonl")]) == 0
        first = capsys.readouterr().out
        monkeypatch.setattr(SimulationDriver, "run", None)
        assert main([*args, "--out", str(tmp_path / "b.jsonl")]) == 0
        second = capsys.readouterr().out
        assert "SIV-D" in first
        assert first.split("\n\n", 1)[1] == second.split("\n\n", 1)[1]

    def test_quarantined_cell_renders_no_artefact(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setenv(
            faults.CHAOS_ENV,
            FaultSpec(crash=1.0, match="Hybrid2::leela").to_env())
        code = main(["figure", "--id", "overfetch", "--workloads",
                     "leela", "--retries", "1", "--backoff", "0.01",
                     "--out", str(tmp_path / "q.jsonl"), *_window()])
        captured = capsys.readouterr()
        assert code == 4
        assert "[SKIP] Hybrid2::leela" in captured.out
        assert "SIV-B" not in captured.out and "%" not in captured.out
        assert "1 of 2 cells missing" in captured.err

    def test_missing_cell_renders_no_artefact(self, tmp_path, capsys):
        config = ExperimentConfig(requests=600, warmup=200,
                                  workloads=("leela",))
        plan = CellPlan(config=config, designs=("Hybrid2", "Bumblebee"),
                        out=tmp_path / "m.jsonl", record_timing=False)
        campaign = plan.open_campaign()
        campaign.run(["Bumblebee"], ["leela"])
        assert _print_artefact(plan, campaign,
                               ARTEFACTS["overfetch"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1 of 2 cells missing" in captured.err

    def test_compare_prints_the_campaign_ipc_matrix(self, tmp_path,
                                                    capsys):
        assert main(["compare", "--designs", "Banshee", "Bumblebee",
                     "--workloads", "leela", "mcf",
                     "--out", str(tmp_path / "c.jsonl"), *_window()]) == 0
        out = capsys.readouterr().out.splitlines()
        header = out.index(f"{'design':>12} {'leela':>7} {'mcf':>7}")
        assert [line.split()[0] for line in out[header + 1:]] == \
            ["Banshee", "Bumblebee"]


class TestEveryRunRecomputes:
    """``figure``, ``compare`` and ``validate`` print this run's cells:
    an earlier run's file is reused only under ``--resume``."""

    def test_validate_twice_in_one_directory(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        args = ["validate", "--workloads", "leela", *_window()]
        cells = len(VALIDATION.designs)
        main(args)
        first = capsys.readouterr().out
        stale = (tmp_path / "validate.jsonl").read_text()
        (tmp_path / "validate.jsonl").write_text(
            stale.replace('"norm_ipc": ', '"norm_ipc": 9'))
        main(args)
        second = capsys.readouterr().out
        assert f"({cells} new)" in first and f"({cells} new)" in second
        assert second == first
        assert (tmp_path / "validate.jsonl").read_text() == stale

    def test_resume_reuses_the_default_file(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        args = ["figure", "--id", "overfetch", "--workloads", "leela",
                *_window()]
        assert main(args) == 0
        assert main([*args, "--resume"]) == 0
        assert "(0 new)" in capsys.readouterr().out

    def test_existing_named_out_is_refused(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        out.write_text("")
        for command in (["compare"], ["validate"],
                        ["figure", "--id", "overfetch"]):
            assert main([*command, "--workloads", "leela",
                         "--out", str(out), *_window()]) == 2
            assert capsys.readouterr().err == (
                f"{out} exists; pass --resume or another --out\n")
        assert out.read_text() == ""

    @pytest.mark.parametrize("fig", ["1", "table2"])
    def test_figure_without_a_plan_refuses_plan_flags(self, fig, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["figure", "--id", fig, "--resume", "--db", "x.db",
                     *_window()]) == 2
        assert capsys.readouterr().err == (
            f"figure --id {fig} runs no cell plan; it takes only the "
            f"window flags, not --resume --db --no-timing\n")
        assert not list(tmp_path.iterdir())


class TestMixedWindowsRefused:
    def test_resume_with_another_window_exits_2_untouched(self, tmp_path,
                                                          capsys):
        out = tmp_path / "c.jsonl"
        assert main(["campaign", "--designs", "Banshee", "--workloads",
                     "leela", "--requests", "600", "--warmup", "200",
                     "--seed", "1234", "--out", str(out)]) == 0
        before = out.read_bytes()
        capsys.readouterr()
        code = main(["campaign", "--designs", "Banshee", "Bumblebee",
                     "--workloads", "leela", "--requests", "900",
                     "--warmup", "300", "--seed", "7", "--resume",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Banshee::leela" in err and "requests=600" in err
        assert "Traceback" not in err
        assert out.read_bytes() == before

    def test_another_version_is_refused(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert main(["campaign", "--designs", "Banshee", "--workloads",
                     "leela", "--out", str(out), *_window()]) == 0
        text = out.read_text()
        out.write_text(text.replace('"version": "', '"version": "0.'))
        before = out.read_bytes()
        capsys.readouterr()
        assert main(["campaign", "--designs", "Banshee", "--workloads",
                     "leela", "--out", str(out), *_window()]) == 2
        assert "version=" in capsys.readouterr().err
        assert out.read_bytes() == before

    def test_damaged_file_of_another_window_is_not_compacted(self,
                                                             tmp_path):
        out = tmp_path / "c.jsonl"
        config = ExperimentConfig(requests=600, warmup=200,
                                  workloads=("leela",))
        Campaign(ExperimentHarness(config), out,
                 record_timing=False).run(["Banshee"], ["leela"])
        out.write_bytes(out.read_bytes() + b'{"torn')
        before = out.read_bytes()
        other = ExperimentConfig(requests=900, warmup=200,
                                 workloads=("leela",))
        plan = CellPlan(config=other, designs=("Banshee",), out=out)
        with pytest.raises(ValueError, match="requests=600"):
            plan.open_campaign()
        assert out.read_bytes() == before


class TestBusyFleetPort:
    def test_fabric_serve_on_a_bound_port_exits_2(self, tmp_path, capsys):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            code = main(["fabric", "serve", "--port", str(port),
                         "--designs", "Banshee", "--workloads", "leela",
                         "--out", str(tmp_path / "f.jsonl"), "--once",
                         *_window()])
        err = capsys.readouterr().err
        assert code == 2
        assert err.strip() == (f"fabric: cannot listen on 127.0.0.1:{port}: "
                               f"Address already in use")
