"""Tests of the chaos scenario registry and its runner.

The scenarios themselves run real (small) campaigns, so most of them
run here at a tiny window; the slow ones (hang timeouts and the
subprocess fleets) are left to ``repro chaos`` in CI.  These tests pin
the registry's order, the up-front name check, the single line format,
and that a scenario which raises becomes a failed case instead of
ending the sweep.
"""

from repro.cli import main
from repro.resilience import chaos
from repro.resilience.chaos import (
    DEFAULT_SCENARIOS,
    SCENARIOS,
    ChaosCase,
    ChaosReport,
    run_chaos,
)

LOCAL = ("crash", "hang", "quarantine", "corrupt-resultcache",
         "corrupt-tracecache", "checkpoint-io", "torn-tail", "kill-resume")
FLEET = ("fleet-worker-kill", "fleet-lease-expiry",
         "fleet-coordinator-restart", "fleet-partition-heal",
         "fleet-duplicate-completion")
WINDOW = ["--requests", "300", "--warmup", "100"]


def test_registry_order():
    assert tuple(SCENARIOS) == LOCAL + FLEET
    assert DEFAULT_SCENARIOS == LOCAL


def test_unknown_scenario_exits_2_before_the_reference_run(capsys,
                                                           tmp_path):
    code = main(["chaos", "--scenarios", "crash", "nope",
                 "--out-dir", str(tmp_path), *WINDOW])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown chaos scenario(s): nope" in err
    assert ", ".join(SCENARIOS) in err
    assert "Traceback" not in err
    assert not (tmp_path / "reference.jsonl").exists()


def test_fast_scenarios_pass(tmp_path):
    names = ["crash", "quarantine", "corrupt-resultcache",
             "corrupt-tracecache", "checkpoint-io", "torn-tail",
             "kill-resume", "fleet-duplicate-completion"]
    report = run_chaos(names, seed=0, jobs=2, requests=300, warmup=100,
                       out_dir=tmp_path)
    assert [case.scenario for case in report.cases] == names
    assert report.passed, report.render()


def test_raising_scenario_is_a_failed_case(capsys, tmp_path, monkeypatch):
    """A scenario that raises is a failed case with its traceback and
    artifact, the next one still runs, and the command exits 1 (not the
    usage error's 2)."""
    def lost_key(sweep, path):
        return {}["cell"]

    def early_exit(sweep, path):
        raise RuntimeError("coordinator exited early (code 1)")

    monkeypatch.setitem(chaos.SCENARIOS, "crash", lost_key)
    monkeypatch.setitem(chaos.SCENARIOS, "hang", early_exit)
    code = main(["chaos", "--scenarios", "crash", "hang", "torn-tail",
                 "--out-dir", str(tmp_path), "--verbose", *WINDOW])
    out = capsys.readouterr().out
    assert code == 1
    lost, early, torn = out.split("\n[")
    assert lost.startswith("[FAIL] crash: Traceback (most recent call")
    assert lost.endswith(f"KeyError: 'cell' "
                         f"(artifact: {tmp_path / 'crash.jsonl'})")
    assert early.startswith("FAIL] hang: Traceback (most recent call")
    assert early.endswith(f"RuntimeError: coordinator exited early "
                          f"(code 1) (artifact: {tmp_path / 'hang.jsonl'})")
    assert torn == ("ok] torn-tail: torn final line dropped and compacted "
                    "on load, cell recomputed on resume\n3 scenarios, "
                    "seed 0: 2 scenario(s) FAILED\n")


def test_render_pads_to_the_longest_name():
    report = ChaosReport([ChaosCase("crash", True, "fine"),
                          ChaosCase("fleet-coordinator-restart", False,
                                    "broke", artifact="x.jsonl")], seed=3)
    assert report.render().splitlines() == [
        "[ok] crash:                     fine",
        "[FAIL] fleet-coordinator-restart: broke (artifact: x.jsonl)",
        "2 scenarios, seed 3: 1 scenario(s) FAILED"]
    assert report.cases[0].line() == "[ok] crash: fine"
