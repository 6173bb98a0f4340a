"""Tests of the resilient campaign runtime.

Covers the checkpoint layer (torn-tail recovery, failing-write
absorption), the deterministic backoff and fault-injection primitives,
the supervised worker pool (crash recovery, hang timeouts, quarantine),
and the end-to-end survival contract: a campaign SIGKILL'd mid-flight
and resumed produces a file byte-identical to an uninterrupted run.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import Campaign
from repro.analysis.experiments import ExperimentConfig, ExperimentHarness
from repro.resilience import (
    CheckpointWriter,
    FaultSpec,
    Supervision,
    backoff_delay,
    recover_jsonl,
    run_supervised,
)
from repro.resilience.checkpoint import read_jsonl
from repro.resilience import faults

SRC = str(Path(__file__).resolve().parents[1] / "src")

FAST = ExperimentConfig(requests=800, warmup=200, workloads=("leela",))


# ---- checkpoint layer -----------------------------------------------------


class TestRecoverJsonl:
    def test_clean_file_loads_untouched(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps({"i": i}) + "\n" for i in range(3)]
        path.write_text("".join(lines))
        records, dropped = recover_jsonl(path)
        assert [r["i"] for r in records] == [0, 1, 2]
        assert dropped == 0
        assert path.read_text() == "".join(lines)

    def test_torn_tail_dropped_and_compacted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"i": 0}) + "\n"
        path.write_text(good + '{"i": 1, "x"')
        records, dropped = recover_jsonl(path)
        assert [r["i"] for r in records] == [0]
        assert dropped == 1
        assert path.read_text() == good

    def test_mid_file_damage_compacted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        first = json.dumps({"i": 0}) + "\n"
        last = json.dumps({"i": 2}) + "\n"
        path.write_text(first + "##garbage##\n" + last)
        records, dropped = recover_jsonl(path)
        assert [r["i"] for r in records] == [0, 2]
        assert dropped == 1
        assert path.read_text() == first + last

    def test_missing_trailing_newline_repaired(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"i": 0}))
        records, dropped = recover_jsonl(path)
        assert records == [{"i": 0}] and dropped == 0
        assert path.read_text().endswith("\n")

    def test_non_dict_lines_dropped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"i": 0}\n[1, 2]\n')
        records, dropped = recover_jsonl(path)
        assert records == [{"i": 0}] and dropped == 1


_RECORDS = st.dictionaries(
    st.text(max_size=6),
    st.one_of(st.integers(), st.floats(allow_nan=False,
                                       allow_infinity=False),
              st.text(max_size=8), st.booleans(), st.none()),
    max_size=4)
_NON_OBJECTS = st.one_of(st.integers(), st.text(max_size=8), st.none(),
                         st.lists(st.integers(), max_size=3))

#: One line of a damaged campaign file: ``(intact?, bytes)``.  Damage is
#: a torn record (its closing brace lost), a garbage line, a non-object
#: JSON line, or nesting too deep for the JSON parser.
_LINES = st.one_of(
    _RECORDS.map(lambda record: (True, json.dumps(record).encode())),
    _RECORDS.map(lambda record: (False, json.dumps(record).encode()[:-1])),
    st.binary(max_size=12).filter(lambda junk: b"\n" not in junk).map(
        lambda junk: (False, b"#" + junk)),
    _NON_OBJECTS.map(lambda value: (False, json.dumps(value).encode())),
    st.sampled_from((2, 200, 20_000)).map(
        lambda depth: (False, b'{"a": ' + b"[" * depth)))


def _in_scratch_file(raw: bytes, check) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_bytes(raw)
        check(path)


class TestJsonlFuzz:
    """Random damage: ``read_jsonl``/``recover_jsonl`` return exactly
    the intact lines, recovery is idempotent, and nothing raises except
    the refusal of a whole-file JSON array."""

    @staticmethod
    def _refused(path, raw) -> None:
        for reader in (read_jsonl, recover_jsonl):
            with pytest.raises(ValueError, match="JSON array"):
                reader(path)
        assert path.read_bytes() == raw

    @staticmethod
    def _recovered_twice(path) -> list:
        records, _ = recover_jsonl(path)
        healed = path.read_bytes()
        assert recover_jsonl(path) == (records, 0)
        assert path.read_bytes() == healed
        return records

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(_LINES, max_size=8), data=st.data())
    def test_damage_keeps_exactly_the_intact_lines(self, lines, data):
        raw = b"".join(line + b"\n" for _, line in lines)
        if raw and data.draw(st.booleans(), label="no final newline"):
            raw = raw[:-1]
        raw = raw[:data.draw(st.integers(0, len(raw)), label="cut")]
        intact, start = [], 0
        for whole, line in lines:
            if whole and start + len(line) <= len(raw):
                intact.append(line)
            start += len(line) + 1
        expected = [json.loads(line) for line in intact]

        def check(path):
            if raw.lstrip().startswith(b"["):
                self._refused(path, raw)
                return
            assert read_jsonl(path)[0] == expected
            assert path.read_bytes() == raw
            assert self._recovered_twice(path) == expected
            assert path.read_bytes() == b"".join(line + b"\n"
                                                 for line in intact)

        _in_scratch_file(raw, check)

    @settings(max_examples=200, deadline=None)
    @given(raw=st.binary(max_size=200))
    def test_arbitrary_bytes_raise_only_the_array_refusal(self, raw):
        def check(path):
            if raw.lstrip().startswith(b"["):
                self._refused(path, raw)
            else:
                self._recovered_twice(path)

        _in_scratch_file(raw, check)


class TestCheckpointWriter:
    def test_appends_one_line_per_record(self, tmp_path):
        writer = CheckpointWriter(tmp_path / "c.jsonl")
        assert writer.append({"i": 0}) and writer.append({"i": 1})
        records, dropped = recover_jsonl(tmp_path / "c.jsonl")
        assert [r["i"] for r in records] == [0, 1] and dropped == 0
        assert not writer.pending

    def test_failing_writes_park_in_order_then_flush(self, tmp_path):
        writer = CheckpointWriter(tmp_path / "c.jsonl")
        faults.install(FaultSpec(checkpoint=1.0))
        try:
            for i in range(4):
                assert not writer.append({"i": i}, tag=f"cell{i}")
            assert len(writer.pending) == 4
            assert writer.write_errors >= 4
            assert not (tmp_path / "c.jsonl").exists()
        finally:
            faults.uninstall()
        assert writer.flush_pending()
        records, _ = recover_jsonl(tmp_path / "c.jsonl")
        assert [r["i"] for r in records] == [0, 1, 2, 3]

    def test_later_append_drains_earlier_pending_first(self, tmp_path):
        writer = CheckpointWriter(tmp_path / "c.jsonl")
        faults.install(FaultSpec(checkpoint=1.0))
        try:
            writer.append({"i": 0})
        finally:
            faults.uninstall()
        assert writer.append({"i": 1})
        records, _ = recover_jsonl(tmp_path / "c.jsonl")
        assert [r["i"] for r in records] == [0, 1]

    @pytest.mark.parametrize("written", [True, False],
                             ids=["after-write", "before-write"])
    def test_interrupt_inside_append_keeps_record_exactly_once(
            self, tmp_path, written):
        """A KeyboardInterrupt (the campaign's SIGTERM handler) landing
        between a line's write and its pop must not make
        ``flush_pending`` write the line again; one landing before the
        write must not lose it."""
        path = tmp_path / "c.jsonl"
        writer = CheckpointWriter(path)
        assert writer.append({"i": 0}, tag="cell0")
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
            writer.append({"i": 1}, tag="cell1")
        assert writer.flush_pending()
        assert not writer.pending
        assert path.read_text().splitlines() == ['{"i": 0}', '{"i": 1}']


# ---- deterministic primitives ---------------------------------------------


class TestBackoff:
    #: ``(base_s, cap_s, seed)`` of the policy the shape tests use.
    SPACING = (0.05, 2.0, 7)

    def test_deterministic(self):
        assert backoff_delay("k", 1, *self.SPACING) == \
            backoff_delay("k", 1, *self.SPACING)

    def test_varies_by_key_and_attempt(self):
        delays = {backoff_delay(key, attempt, *self.SPACING)
                  for key in ("a", "b") for attempt in (0, 1, 2)}
        assert len(delays) == 6

    def test_grows_until_capped(self):
        assert all(backoff_delay("k", a, *self.SPACING) <= 2.0
                   for a in range(12))
        assert backoff_delay("k", 11, *self.SPACING) == 2.0

    @pytest.mark.parametrize("spacing, key, attempt, delay", [
        ((0.05, 2.0, 7), "k", 0, 0.05912299328301049),
        ((0.05, 2.0, 7), "k", 3, 0.5504782017005166),
        ((0.05, 2.0, 7), "GET /config", 2, 0.17213389237351873),
        ((0.05, 1.0, 0), "POST /lease", 0, 0.048823397625089304),
        ((0.05, 1.0, 0), "mcf|Bumblebee", 5, 1.0),
        ((0.05, 5.0, 0), "mcf|Bumblebee", 5, 1.4826423098818422),
    ])
    def test_pinned_delays(self, spacing, key, attempt, delay):
        """The spacing the lease table and the fabric client sleep:
        a change to the hash, the jitter or the cap moves these."""
        assert backoff_delay(key, attempt, *spacing) == delay

    def test_client_spaces_retries_with_its_own_values(self, monkeypatch):
        """The fabric client sleeps the same spacing for its own
        ``(base, cap, seed)``, keyed by method and path."""
        from repro.fabric import worker

        def refused(*args, **kwargs):
            raise ConnectionRefusedError("refused")

        slept = []
        monkeypatch.setattr(worker.socket, "create_connection", refused)
        monkeypatch.setattr(worker.time, "sleep", slept.append)
        client = worker.FabricClient("http://127.0.0.1:1", "w", attempts=3,
                                     backoff_base_s=0.05, backoff_cap_s=1.0)
        with pytest.raises(worker.FabricUnreachable):
            client.request("POST", "/lease")
        assert slept == [0.048823397625089304,
                         backoff_delay("POST /lease", 1, 0.05, 1.0, 0)]


class TestFaults:
    def test_spec_env_round_trip(self):
        spec = FaultSpec(seed=3, crash=0.5, hang=0.25, hang_s=4.0,
                         checkpoint=0.1, match="mcf", once=True)
        assert FaultSpec.from_env(spec.to_env()) == spec

    def test_checkpoint_error_fires_with_posix_errno(self):
        injector = faults.FaultInjector(FaultSpec(checkpoint=1.0))
        with pytest.raises(OSError) as exc:
            injector.checkpoint_error("cell", 1)
        assert exc.value.errno in (errno.ENOSPC, errno.EIO)

    def test_match_filters_keys(self):
        injector = faults.FaultInjector(
            FaultSpec(checkpoint=1.0, match="mcf"))
        injector.checkpoint_error("Bumblebee::leela", 1)  # no raise
        with pytest.raises(OSError):
            injector.checkpoint_error("Bumblebee::mcf", 1)

    def test_once_restricts_to_attempt_zero(self):
        injector = faults.FaultInjector(FaultSpec(crash=1.0, once=True))
        assert injector._fires("crash", 1.0, "k", 0)
        assert not injector._fires("crash", 1.0, "k", 1)

    def test_corrupt_file_modes(self, tmp_path):
        original = bytes(range(200))
        for mode in ("flip", "truncate", "garbage"):
            victim = tmp_path / f"{mode}.bin"
            victim.write_bytes(original)
            faults.corrupt_file(victim, seed=1, mode=mode)
            assert victim.read_bytes() != original


# ---- supervised pool ------------------------------------------------------


def _double(payload):
    """Worker: trivial pure function."""
    return payload * 2


def _fail_until_marker(payload):
    """Worker: fail once per marker file, succeed after."""
    marker, value = payload
    if not os.path.exists(marker):
        Path(marker).touch()
        raise ValueError("first attempt fails")
    return value


class TestRunSupervised:
    def test_plain_completion(self):
        tasks = [(f"k{i}", i) for i in range(5)]
        results, quarantined = run_supervised(_double, tasks, jobs=2)
        assert results == {f"k{i}": i * 2 for i in range(5)}
        assert not quarantined

    def test_completion_order_hook(self):
        seen = []
        run_supervised(_double, [(f"k{i}", i) for i in range(3)], jobs=1,
                       on_complete=lambda key, _: seen.append(key))
        assert seen == ["k0", "k1", "k2"]

    def test_worker_exception_retried(self, tmp_path):
        marker = str(tmp_path / "marker")
        policy = Supervision(max_attempts=3, backoff_base_s=0.01,
                             backoff_cap_s=0.05)
        results, quarantined = run_supervised(
            _fail_until_marker, [("k", (marker, 42))], jobs=1,
            policy=policy)
        assert results == {"k": 42} and not quarantined

    def test_injected_crash_recovered_by_retry(self, monkeypatch):
        monkeypatch.setenv(faults.CHAOS_ENV,
                           FaultSpec(crash=1.0, once=True).to_env())
        policy = Supervision(max_attempts=3, backoff_base_s=0.01,
                             backoff_cap_s=0.05)
        results, quarantined = run_supervised(
            _double, [(f"k{i}", i) for i in range(3)], jobs=2,
            policy=policy)
        assert results == {f"k{i}": i * 2 for i in range(3)}
        assert not quarantined

    def test_persistent_crash_quarantined(self, monkeypatch):
        monkeypatch.setenv(faults.CHAOS_ENV,
                           FaultSpec(crash=1.0, match="k1").to_env())
        failures = []
        policy = Supervision(max_attempts=2, backoff_base_s=0.01,
                             backoff_cap_s=0.05)
        results, quarantined = run_supervised(
            _double, [(f"k{i}", i) for i in range(3)], jobs=2,
            policy=policy,
            on_quarantine=lambda key, failure: failures.append(failure))
        assert results == {"k0": 0, "k2": 4}
        assert set(quarantined) == {"k1"}
        assert len(failures[0].attempts) == 2
        assert f"exit {faults.CRASH_EXIT}" in failures[0].attempts[0]

    def test_hang_timed_out_and_retried(self, monkeypatch):
        monkeypatch.setenv(faults.CHAOS_ENV,
                           FaultSpec(hang=1.0, hang_s=20.0,
                                     once=True).to_env())
        policy = Supervision(timeout_s=0.5, max_attempts=3,
                             backoff_base_s=0.01, backoff_cap_s=0.05)
        start = time.monotonic()
        results, quarantined = run_supervised(
            _double, [("k0", 5)], jobs=1, policy=policy)
        assert results == {"k0": 10} and not quarantined
        assert time.monotonic() - start < 15.0

    def test_persistent_hang_quarantined_as_timeouts(self, monkeypatch):
        # The supervisor kills an overdue slot itself; the lease table
        # never gets to reclaim the lease as merely expired.
        monkeypatch.setenv(faults.CHAOS_ENV,
                           FaultSpec(hang=1.0, hang_s=20.0).to_env())
        policy = Supervision(timeout_s=0.5, max_attempts=2,
                             backoff_base_s=0.01, backoff_cap_s=0.05)
        results, quarantined = run_supervised(
            _double, [("k0", 5)], jobs=1, policy=policy)
        assert not results
        assert quarantined["k0"].attempts == ["timeout after 0.5s"] * 2

    def test_crash_budget_spans_respawned_slots(self, monkeypatch):
        # Every slot leases under one identity, so a respawned worker
        # is not a second machine: the attempt budget alone quarantines.
        monkeypatch.setenv(faults.CHAOS_ENV,
                           FaultSpec(crash=1.0, match="k1").to_env())
        policy = Supervision(max_attempts=3, backoff_base_s=0.01,
                             backoff_cap_s=0.05)
        results, quarantined = run_supervised(
            _double, [(f"k{i}", i) for i in range(3)], jobs=2,
            policy=policy)
        assert results == {"k0": 0, "k2": 4}
        assert len(quarantined["k1"].attempts) == 3
        assert all(f"exit {faults.CRASH_EXIT}" in reason
                   for reason in quarantined["k1"].attempts)


# ---- campaign-level resilience --------------------------------------------


class TestCampaignResilience:
    def test_torn_tail_heals_and_resumes_bit_identically(self, tmp_path):
        config = ExperimentConfig(
            requests=600, warmup=150, workloads=("leela",),
            trace_cache_dir=str(tmp_path / "tc"))
        ref = tmp_path / "ref.jsonl"
        Campaign(ExperimentHarness(config), ref,
                 record_timing=False).run(["Bumblebee", "Banshee"],
                                          ["leela"])
        reference = ref.read_bytes()
        assert reference.count(b"\n") == 2

        torn = tmp_path / "torn.jsonl"
        lines = reference.splitlines(keepends=True)
        torn.write_bytes(lines[0] + lines[1][:23])
        campaign = Campaign(ExperimentHarness(config), torn,
                            record_timing=False)
        assert campaign.recovered_lines == 1
        assert campaign.completed_cells == 1
        campaign.run(["Bumblebee", "Banshee"], ["leela"])
        assert torn.read_bytes() == reference

    def test_quarantined_cell_reported_not_fatal(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv(
            faults.CHAOS_ENV,
            FaultSpec(crash=1.0, match="Banshee::leela").to_env())
        config = ExperimentConfig(
            requests=600, warmup=150, workloads=("leela",),
            trace_cache_dir=str(tmp_path / "tc"))
        campaign = Campaign(ExperimentHarness(config),
                            tmp_path / "c.jsonl", record_timing=False)
        campaign.run(["Bumblebee", "Banshee"], ["leela"],
                     supervise=Supervision(max_attempts=2,
                                           backoff_base_s=0.01,
                                           backoff_cap_s=0.05))
        assert campaign.completed_cells == 1
        assert [f"{q.design}::{q.workload}"
                for q in campaign.quarantined] == ["Banshee::leela"]
        report = campaign.render_quarantine()
        assert report.startswith("[SKIP] Banshee::leela:")
        assert "2 attempts" in report


# ---- kill / resume end to end ---------------------------------------------


_CAMPAIGN_SCRIPT = """
import sys
from repro.analysis.campaign import Campaign
from repro.analysis.experiments import ExperimentConfig, ExperimentHarness
from repro.resilience.supervisor import Supervision

config = ExperimentConfig(requests=600, warmup=150, workloads=("leela",),
                          trace_cache_dir=sys.argv[2])
campaign = Campaign(ExperimentHarness(config), sys.argv[1],
                    record_timing=False)
campaign.run(["Bumblebee", "Banshee"], ["leela"], jobs=1,
             supervise=Supervision(timeout_s=None, max_attempts=2))
"""


def _spawn_campaign(path, trace_cache, fault_spec):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env[faults.CHAOS_ENV] = fault_spec.to_env()
    return subprocess.Popen(
        [sys.executable, "-c", _CAMPAIGN_SCRIPT, str(path),
         str(trace_cache)], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _await_lines(proc, path, count, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        assert proc.poll() is None, \
            f"campaign exited early (code {proc.returncode})"
        if path.exists() and path.read_bytes().count(b"\n") >= count:
            return
        time.sleep(0.05)
    raise AssertionError(f"campaign never persisted {count} cells")


class TestKillResume:
    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        config = ExperimentConfig(
            requests=600, warmup=150, workloads=("leela",),
            trace_cache_dir=str(tmp_path / "tc"))
        ref = tmp_path / "ref.jsonl"
        Campaign(ExperimentHarness(config), ref,
                 record_timing=False).run(["Bumblebee", "Banshee"],
                                          ["leela"])
        reference = ref.read_bytes()

        path = tmp_path / "killed.jsonl"
        # The second (last) cell wedges, so the kill point is after
        # exactly one fsync'd record.
        proc = _spawn_campaign(
            path, tmp_path / "tc",
            FaultSpec(hang=1.0, hang_s=60.0, match="Banshee::leela"))
        try:
            _await_lines(proc, path, 1)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

        campaign = Campaign(ExperimentHarness(config), path,
                            record_timing=False)
        assert campaign.completed_cells == 1
        campaign.run(["Bumblebee", "Banshee"], ["leela"])
        assert path.read_bytes() == reference

    def test_sigterm_exits_130_with_resume_hint(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env[faults.CHAOS_ENV] = FaultSpec(
            hang=1.0, hang_s=60.0, match="Banshee::leela").to_env()
        path = tmp_path / "c.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign",
             "--out", str(path), "--designs", "Bumblebee", "Banshee",
             "--workloads", "leela", "--requests", "600",
             "--warmup", "150", "--supervise",
             "--trace-cache", str(tmp_path / "tc")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            _await_lines(proc, path, 1)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 130
        assert "rerun with --resume to continue" in stderr
        # The interrupted file holds the completed prefix.
        records, dropped = recover_jsonl(path)
        assert dropped == 0
        assert [r["design"] for r in records] == ["Bumblebee"]


# ---- advisory file locking ------------------------------------------------


FLOCK_PROBE = """
import fcntl, sys
handle = open(sys.argv[1], "a+")
try:
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
except OSError:
    sys.exit(3)
sys.exit(0)
"""

LOCKED_APPEND = """
import sys
sys.path.insert(0, sys.argv[2])
from repro.resilience import CheckpointWriter
CheckpointWriter(sys.argv[1]).append({"i": 1}, tag="child")
"""


class TestFileLock:
    def test_lock_held_excludes_other_processes(self, tmp_path):
        pytest.importorskip("fcntl")
        from repro.resilience import FileLock
        target = tmp_path / "c.jsonl"
        lock_file = f"{target}.lock"
        with FileLock(target):
            probe = subprocess.run(
                [sys.executable, "-c", FLOCK_PROBE, lock_file])
            assert probe.returncode == 3      # lock observed held
        probe = subprocess.run(
            [sys.executable, "-c", FLOCK_PROBE, lock_file])
        assert probe.returncode == 0          # and released

    def test_append_waits_for_compaction_lock(self, tmp_path):
        # Regression: recover_jsonl's read-then-replace compaction and a
        # concurrent CheckpointWriter append must serialise, not
        # interleave (an append landing between the read and the
        # replace used to be silently discarded).
        pytest.importorskip("fcntl")
        from repro.resilience import FileLock
        path = tmp_path / "c.jsonl"
        with FileLock(path):                  # stand in for compaction
            child = subprocess.Popen(
                [sys.executable, "-c", LOCKED_APPEND, str(path), SRC])
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and child.poll() is None:
                time.sleep(0.05)
            assert child.poll() is None       # append blocked on lock
            assert not path.exists()
        child.wait(timeout=30)
        records, dropped = recover_jsonl(path)
        assert ([r["i"] for r in records], dropped) == ([1], 0)

    def test_recover_compacts_under_lock(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"i": 0}) + "\n" + '{"torn')
        records, dropped = recover_jsonl(path)
        assert ([r["i"] for r in records], dropped) == ([0], 1)
        # The lock sibling exists and is reusable, not the target inode.
        assert Path(f"{path}.lock").exists()
        assert path.read_text() == json.dumps({"i": 0}) + "\n"


# ---- torn shared-cache entries -------------------------------------------


class TestTornCacheReads:
    def test_trace_cache_torn_put_is_miss_not_error(self, tmp_path):
        from repro.traces import TraceCache, synthetic_spec
        from repro.traces.spec import SystemScale
        spec = synthetic_spec("mcf", SystemScale(1 / 256))
        cache = TraceCache(tmp_path)
        trace = cache.get_or_generate(spec, 2000, 9)
        entry = next(Path(tmp_path).glob("*.trace"))
        # A concurrent put observed before its final rename: valid
        # header, payload cut short.
        entry.write_bytes(entry.read_bytes()[:-16])
        fresh = TraceCache(tmp_path)
        assert fresh.get(spec, 2000, 9) is None
        assert fresh.counters()["misses"] == 1
        assert not entry.exists()             # poisoned entry dropped
        assert fresh.get_or_generate(spec, 2000, 9) == trace

    def test_trace_cache_transient_torn_read_retries(self, tmp_path):
        from repro.traces import TraceCache, synthetic_spec
        from repro.traces.spec import SystemScale
        spec = synthetic_spec("mcf", SystemScale(1 / 256))
        cache = TraceCache(tmp_path)
        trace = cache.get_or_generate(spec, 2000, 9)
        fresh = TraceCache(tmp_path)
        real = fresh.store.get
        observed = []
        def flaky(key):
            if not observed:                  # first read sees the torn
                observed.append(key)          # in-flight put
                return real(key)[:-16]
            return real(key)
        fresh.store.get = flaky
        assert fresh.get(spec, 2000, 9) == trace
        assert fresh.counters()["hits"] == 1
        assert next(Path(tmp_path).glob("*.trace")).exists()

    def test_result_cache_torn_put_is_miss_not_error(self, tmp_path):
        from repro.analysis.resultcache import ResultCache
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, {"norm_ipc": 1.5})
        entry = tmp_path / f"{key}.json"
        entry.write_bytes(entry.read_bytes()[:-8])
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.misses == 1
        assert not entry.exists()             # poisoned entry dropped
        cache.put(key, {"norm_ipc": 1.5})     # recompute heals
        assert fresh.get(key) == {"norm_ipc": 1.5}

    def test_result_cache_transient_torn_read_retries(self, tmp_path):
        from repro.analysis.resultcache import ResultCache
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"norm_ipc": 0.75})
        real = cache.store.get
        observed = []
        def flaky(key):
            if not observed:
                observed.append(key)
                return real(key)[:-8]
            return real(key)
        cache.store.get = flaky
        assert cache.get(key) == {"norm_ipc": 0.75}
        assert (cache.hits, cache.misses) == (1, 0)
        assert (tmp_path / f"{key}.json").exists()
