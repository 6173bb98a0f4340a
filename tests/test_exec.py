"""Tests of the unified execution plane (:mod:`repro.exec`).

The load-bearing contract is backend equivalence: the same
:class:`CellPlan` executed by the serial loop, the process pool, and a
subprocess fabric fleet must produce byte-identical ``--no-timing``
campaign files — and resuming a partially-filled plan on any backend
must complete to the same bytes a straight-through run writes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro import ExperimentConfig, ExperimentHarness
from repro.analysis import Campaign
from repro.cli import main
from repro.designs import DesignSpec
from repro.exec import (
    CellPlan,
    FabricBackend,
    FleetServeBackend,
    PlanError,
    PoolBackend,
    SerialBackend,
    comparison_of,
    enumerate_cells,
)
from repro.observatory import RunStore

FAST = ExperimentConfig(requests=800, warmup=200,
                        workloads=("leela", "mcf"))
DESIGNS = ("Bumblebee", "AlloyCache")


def plan_for(tmp_path, name, **overrides):
    kwargs = dict(config=FAST, designs=DESIGNS,
                  workloads=("leela", "mcf"),
                  out=tmp_path / name, record_timing=False)
    kwargs.update(overrides)
    return CellPlan(**kwargs)


def fill(plan, backend):
    campaign = plan.open_campaign()
    try:
        return backend.execute(plan, campaign)
    finally:
        backend.close()


class TestCellPlan:
    def test_cells_are_design_major(self):
        cells = enumerate_cells(("A", "B"), ("x", "y"))
        assert cells == [("A", "x"), ("A", "y"),
                         ("B", "x"), ("B", "y")]

    def test_plan_cells_and_count(self, tmp_path):
        plan = plan_for(tmp_path, "c.jsonl")
        assert plan.cell_count == 4
        assert plan.cells()[0] == ("Bumblebee", "leela")

    def test_workloads_default_to_config(self, tmp_path):
        plan = CellPlan(config=FAST, designs=DESIGNS,
                        out=tmp_path / "c.jsonl")
        assert plan.workloads == FAST.workloads

    def test_open_requires_out(self):
        plan = CellPlan(config=FAST, designs=DESIGNS)
        with pytest.raises(PlanError):
            plan.open_campaign()

    def test_resume_requires_existing_file(self, tmp_path):
        plan = plan_for(tmp_path, "missing.jsonl", resume=True)
        with pytest.raises(PlanError, match="--resume"):
            plan.open_campaign()

    def test_comparison_roundtrips_through_records(self, tmp_path):
        plan = plan_for(tmp_path, "c.jsonl", designs=("Bumblebee",),
                        workloads=("leela",))
        campaign = plan.open_campaign()
        SerialBackend().execute(plan, campaign)
        stored = comparison_of(campaign, "Bumblebee", "leela")
        direct = ExperimentHarness(FAST).run_design("Bumblebee", "leela")
        assert stored == direct
        assert comparison_of(campaign, "Bumblebee", "mcf") is None

    def test_spec_cells_resume_keyed(self, tmp_path):
        spec = DesignSpec(base="Bumblebee", params={"chbm_ratio": 0.0})
        plan = plan_for(tmp_path, "c.jsonl", designs=(spec,),
                        workloads=("leela",))
        outcome = fill(plan, SerialBackend())
        assert outcome.new_runs == 1
        again = fill(plan_for(tmp_path, "c.jsonl", designs=(spec,),
                              workloads=("leela",), resume=True),
                     SerialBackend())
        assert again.new_runs == 0


class TestBackendEquivalence:
    """Same plan, any backend, same bytes."""

    def _fleet_fill(self, plan):
        campaign = plan.open_campaign()
        backend = FleetServeBackend(linger_s=2.0)
        url = backend.serve(campaign)
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "fabric", "work", url],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(sys.path)})
        try:
            outcome = backend.execute(plan, campaign)
        finally:
            backend.close()
        out, _ = worker.communicate(timeout=120)
        assert worker.returncode == 0, out.decode()
        return outcome

    def test_serial_pool_fleet_write_identical_bytes(self, tmp_path):
        serial = plan_for(tmp_path, "serial.jsonl")
        pool = plan_for(tmp_path, "pool.jsonl")
        fleet = plan_for(tmp_path, "fleet.jsonl")
        assert fill(serial, SerialBackend()).new_runs == 4
        assert fill(pool, PoolBackend(jobs=2)).new_runs == 4
        assert self._fleet_fill(fleet).new_runs == 4
        reference = serial.out.read_bytes()
        assert pool.out.read_bytes() == reference
        assert fleet.out.read_bytes() == reference

    @pytest.mark.parametrize("backend_name",
                             ["serial", "pool", "fleet"])
    def test_resume_mid_plan_is_bit_identical(self, tmp_path,
                                              backend_name):
        # Straight-through reference on the serial backend.
        reference = plan_for(tmp_path, "ref.jsonl")
        fill(reference, SerialBackend())
        # Partial fill: the exact record prefix (first design only).
        out = f"{backend_name}.jsonl"
        fill(plan_for(tmp_path, out, designs=DESIGNS[:1]),
             SerialBackend())
        resumed = plan_for(tmp_path, out, resume=True)
        if backend_name == "serial":
            outcome = fill(resumed, SerialBackend())
        elif backend_name == "pool":
            outcome = fill(resumed, PoolBackend(jobs=2))
        else:
            outcome = self._fleet_fill(resumed)
        assert outcome.new_runs == 2
        assert resumed.out.read_bytes() == reference.out.read_bytes()

    def test_cache_served_rerun_is_byte_identical(self, tmp_path):
        cache_dir = str(tmp_path / "results")
        cold = plan_for(tmp_path, "cold.jsonl", cache_dir=cache_dir)
        assert fill(cold, SerialBackend()).new_runs == 4
        warm = plan_for(tmp_path, "warm.jsonl", cache_dir=cache_dir,
                        db=":memory:")
        campaign = warm.open_campaign()
        try:
            assert SerialBackend().execute(warm, campaign).new_runs == 4
            cache = campaign.harness.cache
            assert (cache.hits, cache.misses) == (4, 0)
            assert campaign.store.counts_by_source() == {"campaign": 4}
        finally:
            campaign.store.close()
        assert warm.out.read_bytes() == cold.out.read_bytes()
        comparison = comparison_of(campaign, "Bumblebee", "mcf")
        assert type(comparison.page_faults) is int
        # Same pairs in the same order: record key order reaches the
        # campaign bytes.
        assert list(comparison.to_record().items()) == \
            list(dataclasses.asdict(comparison).items())


class TestFabricBackend:
    def test_refuses_adaptive_batches(self, tmp_path):
        plan = plan_for(tmp_path, "c.jsonl")
        campaign = plan.open_campaign()
        backend = FabricBackend("http://127.0.0.1:1")
        with pytest.raises(PlanError, match="--fabric-serve"):
            backend.run_cells(campaign, plan.cells())


class TestStoreMirroring:
    """A campaign opened over a store mirrors the records it loads and
    the records it persists, each set in one transaction; no command
    re-reads the file into the store afterwards."""

    CELLS = ("--designs", *DESIGNS, "--workloads", "leela",
             "--requests", "800", "--warmup", "200", "--no-timing")

    def test_plan_db_records_with_source(self, tmp_path):
        plan = plan_for(tmp_path, "c.jsonl", designs=("Bumblebee",),
                        workloads=("leela",),
                        db=str(tmp_path / "runs.db"), source="explore")
        campaign = plan.open_campaign()
        SerialBackend().execute(plan, campaign)
        assert campaign.store.counts_by_source() == {"explore": 1}

    @staticmethod
    def _assert_stored(db, out, cells):
        store = RunStore(db)
        try:
            assert store.run_count == cells
            assert store.ingest_jsonl(out) == (0, cells)
        finally:
            store.close()

    def test_resume_lands_records_filled_without_db(self, tmp_path,
                                                    capsys):
        out, db = tmp_path / "c.jsonl", tmp_path / "runs.db"
        assert main(["campaign", "--out", str(out), *self.CELLS]) == 0
        assert main(["campaign", "--out", str(out), "--resume",
                     "--db", str(db), *self.CELLS]) == 0
        assert "campaign: 2 cells complete (0 new)" in \
            capsys.readouterr().out
        self._assert_stored(db, out, 2)

    @pytest.mark.parametrize("stale", [False, True],
                             ids=["fresh-out", "out-holds-another-cell"])
    def test_fabric_mirror_lands_records(self, tmp_path, stale):
        from repro.fabric import FabricCoordinator
        from repro.fabric.coordinator import CoordinatorThread
        mirror, db = tmp_path / "mirror.jsonl", tmp_path / "runs.db"
        if stale:
            # The fleet's bytes replace this file: its cell must not
            # reach the store.
            assert main(["campaign", "--out", str(mirror), "--designs",
                         "Banshee", *self.CELLS[2:]]) == 0
        served = Campaign(ExperimentHarness(FAST), tmp_path / "fleet.jsonl",
                          record_timing=False)
        thread = CoordinatorThread(
            FabricCoordinator(served, DESIGNS, ["leela"]),
            once=True, linger_s=2.0)
        url = thread.start()
        try:
            assert main(["campaign", "--fabric", url, "--out",
                         str(mirror), "--db", str(db), *self.CELLS]) == 0
        finally:
            thread.wait(timeout_s=30.0)
            thread.stop()
        self._assert_stored(db, mirror, 2)

    def test_complete_file_is_mirrored_once_per_run(self, tmp_path,
                                                    monkeypatch):
        out, db = tmp_path / "c.jsonl", tmp_path / "runs.db"
        argv = ["campaign", "--out", str(out), "--db", str(db),
                *self.CELLS]
        assert main(argv) == 0
        statements = []
        open_store = CellPlan.open_store

        def traced(plan):
            store = open_store(plan)
            store._conn.set_trace_callback(statements.append)
            return store

        monkeypatch.setattr(CellPlan, "open_store", traced)
        assert main(argv) == 0
        inserts = [statement for statement in statements
                   if statement.startswith("INSERT OR IGNORE INTO runs")]
        assert len(inserts) == 2
        assert statements.count("COMMIT") == 1

    def test_opening_a_fresh_file_issues_no_statement(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        statements = []
        store._conn.set_trace_callback(statements.append)
        try:
            Campaign(ExperimentHarness(FAST), tmp_path / "fresh.jsonl",
                     store=store)
        finally:
            store.close()
        assert statements == []
