"""Batched campaign persistence: one write and one transaction per
resolved prefix of cells.

A batch must be indistinguishable from one append per record: the same
lines on disk, the same parked records and the same fault counters
under injected write failures, no duplicated line after an interrupt,
and a clean prefix after a kill.  A warm run, whose cells all resolve
at once, must land with one checkpoint write and one RunStore commit.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys

import pytest

from repro import ExperimentConfig
from repro.analysis.campaign import CampaignInterrupted
from repro.exec import (CellPlan, FleetServeBackend, PoolBackend,
                        SerialBackend)
from repro.observatory import RunStore
from repro.resilience import CheckpointWriter, FaultSpec, Supervision
from repro.resilience import faults
from repro.resilience.checkpoint import recover_jsonl

FAST = ExperimentConfig(requests=800, warmup=200,
                        workloads=("leela", "mcf"))
DESIGNS = ("Bumblebee", "AlloyCache", "Banshee")
WORKLOADS = ("leela", "mcf")
CELLS = len(DESIGNS) * len(WORKLOADS)

RECORDS = [({"cell": i, "norm_ipc": 1.0 + i / 8}, f"D{i % 3}::w{i}")
           for i in range(12)]


def plan_for(tmp_path, name, **overrides):
    kwargs = dict(config=FAST, designs=DESIGNS, workloads=WORKLOADS,
                  out=tmp_path / name, record_timing=False)
    kwargs.update(overrides)
    return CellPlan(**kwargs)


def fill(plan, backend):
    campaign = plan.open_campaign()
    try:
        return backend.execute(plan, campaign)
    finally:
        backend.close()
        if campaign.store is not None:
            campaign.store.close()


@pytest.fixture()
def count_writes(monkeypatch):
    """Every checkpoint write's text, in order."""
    texts = []
    write_lines = CheckpointWriter._write_lines

    def counted(self, text):
        texts.append(text)
        return write_lines(self, text)

    monkeypatch.setattr(CheckpointWriter, "_write_lines", counted)
    return texts


def _writer_state(spec, path, batched):
    """Write ``RECORDS`` under ``spec``, batched or one by one, then let
    the disk recover; returns what each step left behind."""
    writer = CheckpointWriter(path)
    injector = faults.install(spec)
    try:
        if batched:
            landed = writer.append_many(RECORDS)
        else:
            for record, tag in RECORDS:
                landed = writer.append(record, tag=tag)
        during = (path.read_bytes() if path.exists() else b"",
                  list(writer.pending), writer.write_errors,
                  dict(injector.counters), writer._seq)
    finally:
        faults.uninstall()
    assert landed == (not writer.pending)
    assert writer.flush_pending()
    return during, path.read_bytes()


class TestCheckpointBatch:
    @pytest.mark.parametrize("spec", [
        FaultSpec(),
        FaultSpec(seed=1, checkpoint=0.3),
        FaultSpec(seed=2, checkpoint=0.5),
        FaultSpec(seed=3, checkpoint=0.8),
        FaultSpec(seed=4, checkpoint=1.0),
        FaultSpec(seed=5, checkpoint=1.0, match="w7"),
        FaultSpec(seed=6, checkpoint=0.6, match="D1::"),
    ], ids=["none", "p0.3", "p0.5", "p0.8", "full", "one-cell",
            "one-design"])
    def test_batch_matches_one_by_one_under_faults(self, tmp_path, spec):
        single = _writer_state(spec, tmp_path / "single.jsonl", False)
        batch = _writer_state(spec, tmp_path / "batch.jsonl", True)
        assert batch == single
        lines = single[1].decode().splitlines()
        assert [json.loads(line) for line in lines] == \
            [record for record, _ in RECORDS]

    def test_lines_before_first_failure_land_in_one_write(
            self, tmp_path, count_writes):
        writer = CheckpointWriter(tmp_path / "c.jsonl")
        faults.install(FaultSpec(checkpoint=1.0, match="w7"))
        try:
            assert not writer.append_many(RECORDS)
        finally:
            faults.uninstall()
        assert count_writes == ["".join(json.dumps(record) + "\n"
                                        for record, _ in RECORDS[:7])]
        assert [tag for tag, _ in writer.pending] == \
            [tag for _, tag in RECORDS[7:]]
        # Each later record retries the parked head, as its own append
        # would have.
        assert writer.write_errors == len(RECORDS) - 7

    @pytest.mark.parametrize("written", [True, False],
                             ids=["after-write", "before-write"])
    def test_interrupted_batch_lands_exactly_once(self, tmp_path,
                                                  written):
        """An interrupt between the batch write and its pops must not
        make the retry write any line twice; one before the write must
        not lose any."""
        path = tmp_path / "c.jsonl"
        writer = CheckpointWriter(path)
        assert writer.append({"head": True}, tag="head")
        write_lines = writer._write_lines
        fired = []

        def interrupted(text):
            if written:
                write_lines(text)
            if not fired:
                fired.append(text)
                raise KeyboardInterrupt
            if not written:
                write_lines(text)

        writer._write_lines = interrupted
        with pytest.raises(KeyboardInterrupt):
            writer.append_many(RECORDS)
        assert writer.flush_pending()
        assert not writer.pending
        expected = [{"head": True}] + [record for record, _ in RECORDS]
        assert [json.loads(line) for line in
                path.read_text().splitlines()] == expected


class TestWarmBatch:
    def _cold(self, tmp_path):
        cold = plan_for(tmp_path, "cold.jsonl",
                        cache_dir=str(tmp_path / "results"))
        assert fill(cold, SerialBackend()).new_runs == CELLS
        return cold

    def test_warm_run_is_one_write_and_one_commit(self, tmp_path,
                                                  count_writes):
        cold = self._cold(tmp_path)
        count_writes.clear()
        warm = plan_for(tmp_path, "warm.jsonl", cache_dir=cold.cache_dir,
                        db=str(tmp_path / "warm.db"))
        campaign = warm.open_campaign()
        statements = []
        campaign.store._conn.set_trace_callback(statements.append)
        try:
            outcome = SerialBackend().execute(warm, campaign)
        finally:
            campaign.store.close()
        assert outcome.new_runs == CELLS
        assert campaign.harness.cache.hits == CELLS
        assert len(count_writes) == 1
        assert statements.count("COMMIT") == 1
        assert warm.out.read_bytes() == cold.out.read_bytes()

    def test_cold_serial_run_writes_once_per_cell(self, tmp_path,
                                                  count_writes):
        self._cold(tmp_path)
        assert len(count_writes) == CELLS

    def test_interrupt_after_batch_write_duplicates_no_line(
            self, tmp_path, monkeypatch):
        cold = self._cold(tmp_path)
        write_lines = CheckpointWriter._write_lines
        fired = []

        def interrupted(self, text):
            write_lines(self, text)
            if not fired:
                fired.append(text)
                raise KeyboardInterrupt

        monkeypatch.setattr(CheckpointWriter, "_write_lines", interrupted)
        warm = plan_for(tmp_path, "warm.jsonl", cache_dir=cold.cache_dir)
        with pytest.raises(CampaignInterrupted):
            fill(warm, SerialBackend())
        assert fired
        assert warm.out.read_bytes() == cold.out.read_bytes()

    @pytest.mark.parametrize("keep", [0, 2, CELLS - 1])
    def test_torn_batch_tail_resumes_byte_identical(self, tmp_path,
                                                    keep):
        """A kill during a batch write leaves whole lines plus at most
        one torn line; the reload keeps the clean prefix and ``--resume``
        completes it to the uninterrupted bytes."""
        cold = self._cold(tmp_path)
        lines = cold.out.read_bytes().splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(b"".join(lines[:keep]) + lines[keep][:23])
        records, dropped = recover_jsonl(torn)
        assert dropped == 1 and len(records) == keep
        assert torn.read_bytes() == b"".join(lines[:keep])
        resumed = plan_for(tmp_path, "torn.jsonl", resume=True,
                           cache_dir=cold.cache_dir)
        assert fill(resumed, SerialBackend()).new_runs == CELLS - keep
        assert torn.read_bytes() == cold.out.read_bytes()


def _store_rows(path):
    """Every stored run's identity and metric rows, ``source_path``
    left out (it names the campaign file)."""
    conn = sqlite3.connect(path)
    try:
        runs = conn.execute(
            "SELECT id, record_hash, source, design, workload, spec_hash, "
            "seed, requests, warmup, scale, version, record_json "
            "FROM runs ORDER BY id").fetchall()
        metrics = conn.execute(
            "SELECT run_id, kind, name, value FROM metrics "
            "ORDER BY run_id, kind, name").fetchall()
    finally:
        conn.close()
    return runs, metrics


class TestStoreBatch:
    def test_add_records_matches_add_record(self, tmp_path):
        plan = plan_for(tmp_path, "c.jsonl", record_timing=True)
        fill(plan, SerialBackend())
        records = recover_jsonl(plan.out)[0]
        one = RunStore(tmp_path / "one.db")
        assert all(one.add_record(record, source="campaign")
                   for record in records)
        one.close()
        many = RunStore(tmp_path / "many.db")
        assert many.add_records(records, source="campaign") == CELLS
        assert many.add_records(records, source="campaign") == 0
        assert many.ingest_jsonl(plan.out) == (0, CELLS)
        many.close()
        assert _store_rows(tmp_path / "many.db") == \
            _store_rows(tmp_path / "one.db")

    def test_failing_record_rolls_the_batch_back(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        bad = {"design": "x", "workload": "y", "blob": {1, 2}}
        with pytest.raises(TypeError):
            store.add_records([{"design": "a", "workload": "b"}, bad],
                              source="campaign")
        assert store.run_count == 0
        assert store.add_record({"design": "a", "workload": "b"},
                                source="campaign")
        store.close()


class TestBackendStoreEquivalence:
    """Serial, pool, supervised and fleet fills store the same rows."""

    def _fleet(self, plan):
        campaign = plan.open_campaign()
        backend = FleetServeBackend(linger_s=2.0)
        url = backend.serve(campaign)
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "fabric", "work", url],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(sys.path)})
        try:
            backend.execute(plan, campaign)
        finally:
            backend.close()
            campaign.store.close()
        out, _ = worker.communicate(timeout=120)
        assert worker.returncode == 0, out.decode()

    def test_rows_identical_on_every_backend(self, tmp_path):
        plans = {name: plan_for(tmp_path, f"{name}.jsonl",
                                db=str(tmp_path / f"{name}.db"))
                 for name in ("serial", "pool", "supervised", "fleet")}
        fill(plans["serial"], SerialBackend())
        fill(plans["pool"], PoolBackend(jobs=2))
        fill(plans["supervised"],
             PoolBackend(jobs=2, supervise=Supervision()))
        self._fleet(plans["fleet"])
        reference = plans["serial"].out.read_bytes()
        rows = _store_rows(tmp_path / "serial.db")
        assert len(rows[0]) == CELLS
        for name, plan in plans.items():
            assert plan.out.read_bytes() == reference, name
            assert _store_rows(tmp_path / f"{name}.db") == rows, name
        store = RunStore(tmp_path / "fleet.db")
        assert store.ingest_jsonl(plans["serial"].out) == (0, CELLS)
        store.close()
