"""Tests for the campaign observatory: store, regression gate, dashboard.

The mixed-era fixture file mirrors real campaign histories: a PR 1-era
record with no ``timing`` block, a legacy string-key record (design
name, no spec dump), and spec-key records carrying full timing — one
file spanning three storage generations.  Both the in-memory campaign
views and the sqlite ingest must agree over it.
"""

from __future__ import annotations

import json

import pytest

from repro import ExperimentConfig, ExperimentHarness, __version__
from repro.analysis import Campaign, run_campaign
from repro.cli import main
from repro.observatory import (
    RunStore,
    check_regression,
    load_golden,
    pin_golden,
    record_hash,
    regression_passed,
    render_dashboard,
    render_regress,
    scalar_metrics,
)
from repro.observatory.store import load_jsonl_records

FAST = ExperimentConfig(requests=1200, warmup=300,
                        workloads=("leela", "mcf"))

#: A PR 1-era record: no timing block, no spec, no config version.
LEGACY_NO_TIMING = {
    "design": "No-HBM", "workload": "leela",
    "norm_ipc": 1.0, "norm_hbm_traffic": 0.0, "norm_energy": 1.0,
    "config": {"requests": 1000, "warmup": 200, "seed": 7,
               "scale": 0.03125},
}

#: A legacy string-key record (plain design name) with timing.
LEGACY_TIMED = {
    "design": "Banshee", "workload": "mcf",
    "norm_ipc": 1.1, "norm_hbm_traffic": 0.8, "norm_energy": 0.9,
    "config": {"requests": 1000, "warmup": 200, "seed": 7,
               "scale": 0.03125, "version": "1.1.0"},
    "timing": {"gen_s": 0.5, "sim_s": 1.5, "trace_hits": 1.0},
}

#: Spec-key records (sweep points) with engine counters in timing.
SPEC_TIMED = [
    {
        "design": f"Bumblebee[chbm_ratio={ratio}]", "workload": "mcf",
        "norm_ipc": 1.2 + index / 10, "norm_hbm_traffic": 1.0,
        "norm_energy": 0.8,
        "spec": {"name": f"Bumblebee[chbm_ratio={ratio}]",
                 "base": "Bumblebee", "params": {"chbm_ratio": ratio}},
        "config": {"requests": 1000, "warmup": 200, "seed": 7,
                   "scale": 0.03125, "version": "1.2.0"},
        "timing": {"gen_s": 0.25, "sim_s": 0.75, "engine_vector": 1.0,
                   "engine_scalar": 0.0, "vector_epochs": 2.0},
    }
    for index, ratio in enumerate((0.25, 0.5))
]

MIXED_ERA = [LEGACY_NO_TIMING, LEGACY_TIMED] + SPEC_TIMED


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


@pytest.fixture()
def mixed_file(tmp_path):
    return write_jsonl(tmp_path / "mixed.jsonl", MIXED_ERA)


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "runs.db")


class TestRunStore:
    def test_ingest_counts_rows_and_metrics(self, store, mixed_file):
        added, seen = store.ingest_jsonl(mixed_file)
        assert (added, seen) == (4, 4)
        assert store.run_count == 4
        assert store.counts_by_source() == {"campaign": 4}
        assert "norm_ipc" in store.metric_names()
        assert "gen_s" in store.metric_names(kind="timing")

    def test_reingest_is_idempotent(self, store, mixed_file):
        store.ingest_jsonl(mixed_file)
        added, seen = store.ingest_jsonl(mixed_file)
        assert (added, seen) == (0, 4)
        assert store.run_count == 4

    def test_duplicate_leaves_no_open_transaction(self, store, tmp_path):
        assert store.add_record(LEGACY_TIMED, source="campaign")
        assert not store.add_record(LEGACY_TIMED, source="campaign")
        assert not store._conn.in_transaction
        other = RunStore(tmp_path / "runs.db")
        other._conn.execute("PRAGMA busy_timeout = 0")
        try:
            assert other.add_record(LEGACY_NO_TIMING, source="campaign")
        finally:
            other.close()
        assert store.run_count == 2

    def test_query_filters(self, store, mixed_file):
        store.ingest_jsonl(mixed_file)
        assert len(store.query(workload="mcf")) == 3
        assert len(store.query(design="Banshee")) == 1
        assert len(store.query(version="1.2.0")) == 2
        by_source = store.query(source="campaign", limit=2)
        assert len(by_source) == 2
        record = store.query(design="Banshee")[0]
        assert record["_version"] == "1.1.0"
        assert record["norm_ipc"] == 1.1

    def test_spec_records_carry_spec_hash(self, store, mixed_file):
        from repro.designs import DesignSpec
        store.ingest_jsonl(mixed_file)
        record = store.query(version="1.2.0")[0]
        expected = DesignSpec.from_dict(record["spec"]).spec_hash
        assert record["_spec_hash"] == expected
        assert store.query(design="Banshee")[0]["_spec_hash"] is None

    def test_trend_orders_versions_numerically(self, store, tmp_path):
        records = []
        for version in ("1.10.0", "1.2.0", "1.9.1"):
            record = dict(LEGACY_TIMED)
            record["config"] = dict(record["config"], version=version)
            records.append(record)
        store.ingest_jsonl(write_jsonl(tmp_path / "v.jsonl", records))
        rows = store.trend("norm_ipc")
        assert [row["version"] for row in rows] == \
            ["1.2.0", "1.9.1", "1.10.0"]
        assert all(row["mean"] == 1.1 for row in rows)

    def test_matrix_skips_missing_metric(self, store, mixed_file):
        store.ingest_jsonl(mixed_file)
        matrix = store.matrix("norm_ipc")
        assert matrix["No-HBM"]["leela"] == 1.0
        # norm_dram_traffic exists on no record -> empty matrix.
        assert store.matrix("norm_dram_traffic") == {}

    def test_bench_ingest_roundtrip(self, store, tmp_path):
        bench = tmp_path / "BENCH_trace_path.json"
        bench.write_text(json.dumps({
            "kind": "bench", "title": "trace path", "slug": "trace_path",
            "version": "1.2.0", "config": {"requests": 50000},
            "metrics": {"speedup": 9.5, "warm_s": 0.018}}))
        assert store.ingest_path(bench) == (1, 1)
        assert store.ingest_path(bench) == (0, 1)   # idempotent
        record = store.query(source="bench")[0]
        assert record["design"] == "trace_path"
        assert record["speedup"] == 9.5
        rows = store.trend("speedup", source="bench")
        assert rows == [{"version": "1.2.0", "mean": 9.5, "min": 9.5,
                         "max": 9.5, "runs": 1}]

    def test_ingest_directory_recurses(self, store, tmp_path, mixed_file):
        sub = tmp_path / "artifacts"
        sub.mkdir()
        write_jsonl(sub / "a.jsonl", [LEGACY_TIMED])
        (sub / "BENCH_x.json").write_text(json.dumps(
            {"kind": "bench", "slug": "x", "version": "1.0.0",
             "metrics": {"speedup": 2.0}}))
        added, seen = store.ingest_path(sub)
        assert (added, seen) == (2, 2)

    def test_ingest_missing_path_raises(self, store, tmp_path):
        with pytest.raises(FileNotFoundError):
            store.ingest_path(tmp_path / "nope.jsonl")

    def test_record_hash_is_content_stable(self):
        a = {"design": "X", "norm_ipc": 1.0}
        assert record_hash(a) == record_hash(dict(reversed(a.items())))
        assert record_hash(a) != record_hash({**a, "norm_ipc": 1.1})

    def test_stored_identity_is_record_hash(self, store):
        record = SPEC_TIMED[0]
        assert store.add_record(record, source="campaign")
        row = store._conn.execute(
            "SELECT record_hash, record_json FROM runs").fetchone()
        assert row["record_hash"] == record_hash(record)
        assert json.loads(row["record_json"]) == record

    def test_scalar_metrics_excludes_identity_and_blocks(self):
        metrics = scalar_metrics(SPEC_TIMED[0])
        assert "norm_ipc" in metrics and "norm_energy" in metrics
        assert not {"design", "workload", "config", "timing",
                    "spec"} & metrics.keys()


class TestMixedEraAgreement:
    """Campaign views and sqlite ingest agree over one mixed-era file.

    This is the satellite contract: ``Campaign.timing_summary`` totals
    (records with no timing block, legacy string-key records, and
    spec-key records in one file) must match the sums of the ingested
    timing rows exactly.
    """

    def test_timing_summary_mixed_eras(self, mixed_file):
        campaign = Campaign(ExperimentHarness(FAST), mixed_file)
        totals = campaign.timing_summary()
        assert totals["cells"] == 3        # no-timing record skipped
        assert totals["gen_s"] == pytest.approx(0.5 + 0.25 + 0.25)
        assert totals["sim_s"] == pytest.approx(1.5 + 0.75 + 0.75)
        assert totals["engine_vector"] == 2.0
        assert totals["vector_epochs"] == 4.0
        assert totals["trace_hits"] == 1.0

    def test_timing_totals_match_sqlite(self, mixed_file, store):
        campaign = Campaign(ExperimentHarness(FAST), mixed_file)
        totals = campaign.timing_summary()
        store.ingest_jsonl(mixed_file)
        for name in ("gen_s", "sim_s", "engine_vector", "vector_epochs",
                     "trace_hits"):
            assert store.metric_sum(name, kind="timing") == \
                pytest.approx(totals[name]), name
        # And the metric columns agree with the records themselves.
        assert store.metric_sum("norm_ipc") == pytest.approx(
            sum(r["norm_ipc"] for r in MIXED_ERA))

    def test_campaign_matrix_skips_and_reports(self, mixed_file):
        campaign = Campaign(ExperimentHarness(FAST), mixed_file)
        # Every record carries norm_ipc: no skips.
        assert campaign.missing_metric_cells("norm_ipc") == 0
        # A metric only some eras carry: skip-and-report, no KeyError.
        matrix = campaign.matrix("overfetch_fraction")
        assert matrix == {}
        assert campaign.missing_metric_cells("overfetch_fraction") == 4
        text = campaign.render("overfetch_fraction")
        assert "available" in text and "norm_ipc" in text
        assert "norm_ipc" in campaign.available_metrics()
        # Identity strings and nested blocks are not metrics.
        assert "design" not in campaign.available_metrics()
        assert "config" not in campaign.available_metrics()

    def test_campaign_render_notes_partial_metric(self, tmp_path):
        partial = [dict(LEGACY_TIMED),
                   {**LEGACY_NO_TIMING, "workload": "mcf"}]
        partial[0]["extra_metric"] = 2.5
        path = write_jsonl(tmp_path / "partial.jsonl", partial)
        campaign = Campaign(ExperimentHarness(FAST), path)
        text = campaign.render("extra_metric")
        assert "Banshee" in text
        assert "1 cell(s) skipped" in text


class TestRegression:
    def golden(self, **kwargs):
        return pin_golden(MIXED_ERA, **kwargs)

    def test_golden_passes_itself(self):
        checks = check_regression(MIXED_ERA, self.golden())
        assert regression_passed(checks)
        assert all(check.passed for check in checks)

    def test_drift_fails(self):
        drifted = [dict(record) for record in MIXED_ERA]
        drifted[1] = {**drifted[1], "norm_ipc": 1.21}
        checks = check_regression(drifted, self.golden())
        assert not regression_passed(checks)
        failing = [check for check in checks
                   if not check.passed and not check.skipped]
        assert len(failing) == 1
        assert failing[0].metric == "norm_ipc"
        assert "Banshee" in failing[0].cell

    def test_tolerance_absorbs_small_drift(self):
        drifted = [dict(record) for record in MIXED_ERA]
        drifted[1] = {**drifted[1], "norm_ipc": 1.1 + 1e-3}
        golden = self.golden(abs_tol=1e-2)
        assert regression_passed(check_regression(drifted, golden))
        tight = self.golden(abs_tol=1e-6, rel_tol=1e-6)
        assert not regression_passed(check_regression(drifted, tight))

    def test_missing_cell_fails(self):
        checks = check_regression(MIXED_ERA[:-1], self.golden())
        assert not regression_passed(checks)
        assert any(check.metric == "(cell)" and not check.passed
                   and not check.skipped for check in checks)

    def test_missing_metric_fails(self):
        stripped = [dict(record) for record in MIXED_ERA]
        del stripped[1]["norm_energy"]
        checks = check_regression(stripped, self.golden())
        assert not regression_passed(checks)
        assert any("missing" in check.measured for check in checks
                   if check.metric == "norm_energy")

    def test_unpinned_cells_skip(self):
        extra = MIXED_ERA + [{**LEGACY_TIMED, "workload": "xz"}]
        checks = check_regression(extra, self.golden())
        assert regression_passed(checks)
        assert any(check.skipped for check in checks)

    def test_config_mismatch_fails(self):
        rewindowed = [
            {**record,
             "config": {**record["config"], "requests": 999}}
            for record in MIXED_ERA]
        checks = check_regression(rewindowed, self.golden())
        assert not regression_passed(checks)
        assert any(check.cell == "config" and not check.passed
                   for check in checks)

    def test_render_and_exit_contract(self):
        checks = check_regression(MIXED_ERA, self.golden())
        text = render_regress(checks)
        assert "[PASS]" in text and "0 fail" in text

    def test_pin_rejects_empty(self):
        with pytest.raises(ValueError):
            pin_golden([])

    def test_golden_roundtrip_and_kind_check(self, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(self.golden()))
        loaded = load_golden(path)
        assert loaded["pinned_with"] == __version__
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ValueError):
            load_golden(bad)


class TestDashboard:
    def test_renders_matrices_trends_and_na(self, store, tmp_path):
        records = [dict(record) for record in MIXED_ERA]
        # Leave a hole: Banshee never ran leela -> n/a cell.
        store.ingest_jsonl(write_jsonl(tmp_path / "m.jsonl", records))
        html = render_dashboard(store)
        assert "<!doctype html>" in html
        assert "norm_ipc" in html and "Banshee" in html
        assert "n/a" in html
        assert "<svg" in html and "polyline" in html
        assert "table view" in html

    def test_empty_store_renders(self, store):
        html = render_dashboard(store)
        assert "0 runs" in html

    def test_html_escapes_names(self, store, tmp_path):
        record = {**LEGACY_TIMED, "design": "X<script>alert(1)</script>"}
        store.ingest_jsonl(write_jsonl(tmp_path / "e.jsonl", [record]))
        html = render_dashboard(store)
        assert "<script>" not in html


class TestCampaignIngestHook:
    def test_on_the_fly_rows_match_file(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        harness = ExperimentHarness(FAST)
        path = tmp_path / "camp.jsonl"
        campaign = Campaign(harness, path, store=store)
        campaign.run(["No-HBM", "Bumblebee"], ["leela"])
        assert store.run_count == 2
        # The file re-ingested on top adds nothing: same records.
        assert store.ingest_jsonl(path) == (0, 2)
        # Stored metrics agree with the file's records.
        for record in load_jsonl_records(path):
            stored = store.query(design=record["design"])[0]
            assert scalar_metrics(stored) == scalar_metrics(record)
            assert stored["_version"] == __version__

    def test_records_stamp_package_version(self, tmp_path):
        harness = ExperimentHarness(FAST)
        run_campaign(harness, tmp_path / "c.jsonl", ["No-HBM"], ["leela"])
        record = load_jsonl_records(tmp_path / "c.jsonl")[0]
        assert record["config"]["version"] == __version__


class TestOneRecordReader:
    """``repro db`` and a campaign read one damaged file alike."""

    @pytest.mark.parametrize("damage", [b'{"design": "Banshee", "wor',
                                        b"7"],
                             ids=["torn-line", "non-object-line"])
    def test_db_ingest_and_campaign_see_same_records(self, tmp_path,
                                                     damage):
        path = tmp_path / "damaged.jsonl"
        raw = b"".join([json.dumps(LEGACY_NO_TIMING).encode(), b"\n",
                        damage, b"\n",
                        json.dumps(LEGACY_TIMED).encode(), b"\n"])
        path.write_bytes(raw)
        store = RunStore(":memory:")
        assert store.ingest_jsonl(path) == (2, 2)
        records = load_jsonl_records(path)
        assert path.read_bytes() == raw        # the db never repairs
        campaign = Campaign(ExperimentHarness(FAST), path)
        assert campaign.completed_cells == len(records) == 2
        for record in records:
            assert campaign.record(record["design"],
                                   record["workload"]) == record


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.fixture()
    def ingested(self, tmp_path, mixed_file):
        db = tmp_path / "runs.db"
        code = main(["db", "ingest", str(mixed_file), "--db", str(db)])
        assert code == 0
        return db

    def test_ingest_reports_counts(self, capsys, tmp_path, mixed_file):
        db = tmp_path / "runs.db"
        code, out, _ = self.run(capsys, "db", "ingest", str(mixed_file),
                                "--db", str(db))
        assert code == 0
        assert "4 new / 4 records" in out
        code, out, _ = self.run(capsys, "db", "ingest", str(mixed_file),
                                "--db", str(db))
        assert "0 new / 4 records" in out

    def test_ingest_missing_path_exits_2(self, capsys, tmp_path):
        code, _, err = self.run(capsys, "db", "ingest",
                                str(tmp_path / "ghost.jsonl"),
                                "--db", str(tmp_path / "runs.db"))
        assert code == 2
        assert "ghost" in err

    def test_query_renders_na_for_missing_metric(self, capsys, tmp_path,
                                                 ingested):
        code, out, _ = self.run(capsys, "db", "query", "--db",
                                str(ingested), "--metric",
                                "overfetch_fraction")
        assert code == 0
        assert "n/a" in out and "4 run(s) matched" in out

    def test_trend_unknown_metric_exits_2(self, capsys, ingested):
        code, _, err = self.run(capsys, "db", "trend", "--db",
                                str(ingested), "--metric", "bogus")
        assert code == 2
        assert "norm_ipc" in err

    def test_trend_table(self, capsys, ingested):
        code, out, _ = self.run(capsys, "db", "trend", "--db",
                                str(ingested), "--metric", "norm_ipc")
        assert code == 0
        assert "1.1.0" in out and "1.2.0" in out

    def test_pin_and_regress_cycle(self, capsys, tmp_path, mixed_file):
        golden = tmp_path / "golden.json"
        code, out, _ = self.run(capsys, "db", "pin", str(mixed_file),
                                "--golden", str(golden))
        assert code == 0 and "pinned 4 cells" in out
        code, out, _ = self.run(capsys, "db", "regress",
                                str(mixed_file), "--golden", str(golden))
        assert code == 0 and "0 fail" in out
        drifted = [dict(record) for record in MIXED_ERA]
        drifted[0] = {**drifted[0], "norm_ipc": 2.0}
        drift_file = write_jsonl(tmp_path / "drift.jsonl", drifted)
        code, out, _ = self.run(capsys, "db", "regress",
                                str(drift_file), "--golden", str(golden))
        assert code == 1 and "[FAIL]" in out

    def test_regress_bad_golden_exits_2(self, capsys, tmp_path,
                                        mixed_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, err = self.run(capsys, "db", "regress", str(mixed_file),
                                "--golden", str(bad))
        assert code == 2
        assert "repro-golden" in err

    def test_dashboard_writes_html(self, capsys, tmp_path, ingested):
        out_file = tmp_path / "dash.html"
        code, out, _ = self.run(capsys, "db", "dashboard", "--db",
                                str(ingested), "--out", str(out_file))
        assert code == 0
        assert "<svg" in out_file.read_text()

    @pytest.mark.parametrize("command", [
        ("campaign",),
        # Over a complete file: the coordinator has no cell to lease,
        # and --once ends it after the linger.
        ("fabric", "serve", "--once", "--linger", "0")],
        ids=["campaign", "fabric-serve"])
    def test_campaign_unknown_metric_exits_2(self, capsys, tmp_path,
                                             command):
        cell = ("--designs", "No-HBM", "--workloads", "leela",
                "--requests", "900", "--warmup", "200",
                "--out", str(tmp_path / "c.jsonl"))
        if command[0] == "fabric":
            assert self.run(capsys, "campaign", *cell)[0] == 0
        code, _, err = self.run(capsys, *command, *cell,
                                "--metric", "bogus")
        assert code == 2
        assert "norm_ipc" in err

    def test_sweep_db_records_cells(self, capsys, tmp_path):
        db = tmp_path / "runs.db"
        code, out, _ = self.run(
            capsys, "sweep", "--grid", "chbm_ratio=0,0.5",
            "--workloads", "leela", "--requests", "900", "--warmup",
            "200", "--out", str(tmp_path / "s.jsonl"), "--db", str(db))
        assert code == 0
        store = RunStore(db)
        assert store.run_count == 2
        assert store.counts_by_source() == {"sweep": 2}
