"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


WINDOW = ("--requests", "3000", "--warmup", "1000")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_design(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--design", "MagicCache"])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "doom"])


class TestCommands:
    def test_run(self, capsys):
        code, out = run_cli(capsys, "run", "--design", "Bumblebee",
                            "--workload", "leela", *WINDOW)
        assert code == 0
        assert "normalised IPC" in out
        assert "HBM hit rate" in out

    def test_run_baseline_design(self, capsys):
        code, out = run_cli(capsys, "run", "--design", "AlloyCache",
                            "--workload", "leela", *WINDOW)
        assert code == 0

    def test_compare(self, capsys):
        code, out = run_cli(capsys, "compare", "--designs", "Bumblebee",
                            "--workloads", "leela", "mcf", *WINDOW)
        assert code == 0
        assert "leela" in out and "mcf" in out

    def test_metadata(self, capsys):
        code, out = run_cli(capsys, "metadata", *WINDOW)
        assert code == 0
        assert "334KB" in out

    def test_characterise(self, capsys):
        code, out = run_cli(capsys, "characterise", "--workload", "leela",
                            "--requests", "2000", "--warmup", "500")
        assert code == 0
        assert "[leela]" in out

    def test_figure_unknown_id(self, capsys):
        code = main(["figure", "--id", "99", *WINDOW])
        assert code == 2

    def test_figure_7_small(self, capsys):
        # Tiny window: exercises the full variant sweep path.
        code, out = run_cli(capsys, "figure", "--id", "7",
                            "--requests", "600", "--warmup", "200")
        assert code == 0
        assert "Bumblebee" in out

    def test_mix(self, capsys):
        code, out = run_cli(capsys, "mix", "--preset", "mix-fig1",
                            "--design", "Bumblebee", *WINDOW)
        assert code == 0
        assert "mix-fig1" in out

    def test_sanitize_small(self, capsys, tmp_path):
        code, out = run_cli(capsys, "sanitize", "--designs", "Banshee",
                            "--seeds", "1", "--requests", "800",
                            "--warmup", "100",
                            "--out-dir", str(tmp_path))
        assert code == 0
        assert "all checks passed" in out
        assert not any(tmp_path.iterdir())

    def test_sanitize_rejects_unknown_design(self, capsys):
        code = main(["sanitize", "--designs", "MagicCache",
                     "--seeds", "1"])
        assert code == 2

    def test_sanitize_rejects_bad_vector_epoch(self, capsys):
        for bad in ("0", "-64"):
            code = main(["sanitize", "--designs", "Banshee",
                         "--seeds", "1", "--vector-epoch", bad])
            assert code == 2
            assert "--vector-epoch" in capsys.readouterr().err


class TestExecutionPlane:
    """campaign/sweep/explore share one flag surface and one backend
    path; the fabric client renders the same summary as a local run."""

    CAMPAIGN = ("--workloads", "leela", "--requests", "600",
                "--warmup", "150", "--no-timing")

    def test_shared_flags_parse_on_every_plane_command(self):
        parser = build_parser()
        for argv in (["campaign"],
                     ["sweep", "--grid", "chbm_ratio=0,0.5"],
                     ["explore", "--grid", "chbm_ratio=0,0.5"]):
            args = parser.parse_args(
                argv + ["--fabric", "http://127.0.0.1:9", "--jobs", "2",
                        "--supervise", "--no-timing", "--resume"])
            assert args.fabric == "http://127.0.0.1:9"
            assert args.jobs == 2 and args.no_timing and args.resume

    def test_resume_without_file_exits_2(self, capsys, tmp_path):
        code = main(["campaign", "--out", str(tmp_path / "nope.jsonl"),
                     "--resume", *self.CAMPAIGN])
        assert code == 2
        assert "--resume" in capsys.readouterr().err

    def test_fabric_campaign_summary_matches_local(self, capsys,
                                                   tmp_path):
        # The --fabric client must render through the same post-run
        # path as a local run: the standard campaign line and matrix,
        # not a bespoke fabric-only summary.
        from repro import ExperimentConfig, ExperimentHarness
        from repro.analysis import Campaign
        from repro.fabric import FabricCoordinator
        from repro.resilience import FLEET_POLICY
        from repro.fabric.coordinator import CoordinatorThread
        config = ExperimentConfig(requests=600, warmup=150,
                                  workloads=("leela",))
        served = Campaign(ExperimentHarness(config),
                          tmp_path / "served.jsonl",
                          record_timing=False)
        coordinator = FabricCoordinator(
            served, ["Bumblebee", "AlloyCache"], ["leela"],
            policy=FLEET_POLICY)
        thread = CoordinatorThread(coordinator, once=True, linger_s=2.0)
        url = thread.start()
        try:
            code, fabric_out = run_cli(
                capsys, "campaign", "--fabric", url,
                "--out", str(tmp_path / "mirror.jsonl"),
                *self.CAMPAIGN)
        finally:
            thread.wait(timeout_s=30.0)
            thread.stop()
        assert code == 0
        local_code, local_out = run_cli(
            capsys, "campaign", "--designs", "Bumblebee", "AlloyCache",
            "--out", str(tmp_path / "local.jsonl"), *self.CAMPAIGN)
        assert local_code == 0
        assert "fabric: fleet at" in fabric_out
        assert "campaign: 2 cells complete (2 new)" in fabric_out
        assert "campaign: 2 cells complete (2 new)" in local_out
        # Identical matrix render, byte-identical campaign files.
        assert fabric_out[fabric_out.index("\n\n"):] == \
            local_out[local_out.index("\n\n"):]
        assert (tmp_path / "mirror.jsonl").read_bytes() == \
            (tmp_path / "local.jsonl").read_bytes()
