"""Chaos harness: prove the resilience machinery under injected faults.

Each scenario runs a real (small) campaign while deterministically
breaking something — workers crash or hang, cache entries rot on disk,
checkpoint writes hit ENOSPC, the whole process is SIGKILL'd, and the
``fleet-*`` scenarios kill, hang, restart or partition a real fabric
coordinator and its workers — and then checks the survival contract:
every recoverable cell is present, quarantined cells are reported, and
the campaign file ends up **byte-identical** to an uninterrupted
reference run (timing-free records, deterministic cell order).

Every scenario is one entry of the ordered :data:`SCENARIOS` table, a
function ``fn(sweep, path) -> detail`` that raises
:class:`ScenarioFailed` when a check does not hold.  The runner turns
that, or any other exception, into a failing :class:`ChaosCase` naming
the scenario's campaign file, and goes on to the next scenario.

All fault decisions derive from the sweep seed through
:mod:`~repro.resilience.faults`, so a failing scenario reproduces
exactly; artifacts (campaign JSONL files, cache trees) are left under
``out_dir`` for post-mortem.  Entry points: :func:`run_chaos` (library)
and the ``repro chaos`` CLI subcommand.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
import traceback
import urllib.request
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

from ..analysis.campaign import Campaign
from ..analysis.experiments import ExperimentConfig, ExperimentHarness
from ..analysis.resultcache import ResultCache
from ..fabric import (CoordinatorThread, FabricClient, FabricCoordinator,
                      run_worker)
from ..fabric.coordinator import unwire_cell
from ..observatory import RunStore
from . import faults
from .checkpoint import recover_jsonl
from .supervisor import FLEET_POLICY, Supervision

#: The (small) campaign every scenario runs.
CHAOS_DESIGNS = ("Bumblebee", "Banshee")
CHAOS_WORKLOADS = ("leela", "mcf")
_CELLS = len(CHAOS_DESIGNS) * len(CHAOS_WORKLOADS)
_FIRST_CELL = f"{CHAOS_DESIGNS[0]}::{CHAOS_WORKLOADS[0]}"
_LAST_CELL = f"{CHAOS_DESIGNS[-1]}::{CHAOS_WORKLOADS[-1]}"

_SRC = str(Path(__file__).resolve().parents[2])
_URL_RE = re.compile(r"at (http://[0-9.]+:[0-9]+)")
_SUMMARY_RE = re.compile(
    r"fabric: cells=(?P<cells>\d+) emitted=(?P<emitted>\d+) "
    r"reclaimed=(?P<reclaimed>\d+) duplicates=(?P<duplicates>\d+) "
    r"divergent=(?P<divergent>\d+) quarantined=(?P<quarantined>\d+)")


@dataclass
class ChaosCase:
    """Outcome of one chaos scenario."""

    scenario: str
    passed: bool
    detail: str
    artifact: str | None = None

    def line(self, width: int = 0) -> str:
        """``[ok] name: detail``, the name padded to ``width``."""
        line = (f"[{'ok' if self.passed else 'FAIL'}] "
                f"{self.scenario + ':':<{width + 1}} {self.detail}")
        if not self.passed and self.artifact:
            line += f" (artifact: {self.artifact})"
        return line


@dataclass
class ChaosReport:
    """All cases of one chaos sweep."""

    cases: list[ChaosCase]
    seed: int

    @property
    def passed(self) -> bool:
        """True when every scenario passed."""
        return all(case.passed for case in self.cases)

    @property
    def verdict(self) -> str:
        """The closing line: scenario count, seed, pass/fail."""
        failed = sum(not case.passed for case in self.cases)
        outcome = (f"{failed} scenario(s) FAILED" if failed
                   else "all scenarios passed")
        return f"{len(self.cases)} scenarios, seed {self.seed}: {outcome}"

    def render(self) -> str:
        """A human-readable summary, one line per scenario."""
        width = max((len(case.scenario) for case in self.cases), default=0)
        return "\n".join([*(case.line(width) for case in self.cases),
                          self.verdict])


class ScenarioFailed(Exception):
    """A scenario's survival check did not hold."""


def _check(ok: object, message: str) -> None:
    if not ok:
        raise ScenarioFailed(message)


class _Sweep:
    """Shared state of one chaos sweep: dirs, reference bytes, knobs."""

    def __init__(self, seed: int, jobs: int, requests: int, warmup: int,
                 out_dir: Path) -> None:
        self.seed = seed
        self.jobs = jobs
        self.requests = requests
        self.warmup = warmup
        self.out_dir = out_dir
        # One shared trace cache synthesises each workload once; the
        # corrupt-tracecache scenario damages a private one instead.
        self.trace_cache = str(out_dir / "shared-tracecache")
        self.reference = self._reference_bytes()

    def harness(self, cache_dir: "str | None" = None,
                trace_cache: "str | None" = None) -> ExperimentHarness:
        """A fresh harness (no warm in-memory state)."""
        config = ExperimentConfig(
            requests=self.requests, warmup=self.warmup,
            workloads=CHAOS_WORKLOADS,
            trace_cache_dir=(trace_cache if trace_cache is not None
                             else self.trace_cache))
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        return ExperimentHarness(config, cache=cache)

    def campaign(self, path: Path, **harness_kw: str) -> Campaign:
        """A timing-free campaign over a fresh harness."""
        return Campaign(self.harness(**harness_kw), path,
                        record_timing=False)

    def fill(self, path: Path, **harness_kw: str) -> None:
        """Fill (or resume) the chaos matrix serially into ``path``."""
        self.campaign(path, **harness_kw).run(CHAOS_DESIGNS,
                                              CHAOS_WORKLOADS, jobs=1)

    def campaign_path(self, scenario: str) -> Path:
        path = self.out_dir / f"{scenario}.jsonl"
        path.unlink(missing_ok=True)
        return path

    def cli(self, command: str, path: Path, *extra: str) -> list[str]:
        """``repro <command>`` over the chaos matrix, writing ``path``."""
        return [sys.executable, "-m", "repro", *command.split(),
                "--out", str(path),
                "--designs", *CHAOS_DESIGNS,
                "--workloads", *CHAOS_WORKLOADS,
                "--requests", str(self.requests),
                "--warmup", str(self.warmup),
                "--trace-cache", self.trace_cache,
                "--no-timing", *extra]

    def _reference_bytes(self) -> bytes:
        """The uninterrupted, fault-free serial run every scenario must
        reproduce byte for byte."""
        path = self.campaign_path("reference")
        self.fill(path)
        return path.read_bytes()

    def supervision(self, timeout_s: "float | None" = None,
                    max_attempts: int = 4) -> Supervision:
        return Supervision(timeout_s=timeout_s,
                           max_attempts=max_attempts,
                           backoff_base_s=0.01, backoff_cap_s=0.1,
                           seed=self.seed)


def _verdict(sweep: _Sweep, path: Path, detail: str,
             expect: "bytes | None" = None) -> str:
    """``detail`` if the campaign file matches the reference bytes."""
    expect = sweep.reference if expect is None else expect
    actual = path.read_bytes() if path.exists() else b""
    _check(actual == expect,
           f"{detail}; campaign file diverges from reference "
           f"({len(actual)} vs {len(expect)} bytes)")
    return detail


@contextlib.contextmanager
def _chaos_env(spec: faults.FaultSpec) -> Iterator[None]:
    """Set ``$REPRO_CHAOS`` for the block (pool workers inherit it)."""
    previous = os.environ.get(faults.CHAOS_ENV)
    os.environ[faults.CHAOS_ENV] = spec.to_env()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(faults.CHAOS_ENV, None)
        else:
            os.environ[faults.CHAOS_ENV] = previous


def _env(spec: "faults.FaultSpec | None" = None) -> dict:
    """Subprocess env: repo on PYTHONPATH, chaos spec set or scrubbed."""
    env = dict(os.environ)
    env.pop(faults.CHAOS_ENV, None)
    if spec is not None:
        env[faults.CHAOS_ENV] = spec.to_env()
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class _Proc:
    """A ``repro`` subprocess with its stdout pumped to a line buffer."""

    def __init__(self, cmd: list[str], env: dict) -> None:
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.lines: list[str] = []
        self._pump = threading.Thread(target=self._drain, daemon=True)
        self._pump.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))

    @property
    def output(self) -> str:
        return "\n".join(self.lines)

    def wait(self, timeout_s: float = 300.0) -> int:
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._pump.join(timeout=5.0)
        return self.proc.returncode

    def reap(self) -> None:
        """SIGKILL and collect, whatever state the process is in."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _live_processes() -> dict[int, tuple[str, str]]:
    """``{pid: (ppid, start time)}`` of every live, non-zombie process,
    from ``/proc/*/stat`` (empty where there is no ``/proc``).  The
    start time tells a process from a later one reusing its pid."""
    live = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid, *rest = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if state != "Z":
            live[int(stat.parent.name)] = (ppid, rest[17])
    return live


@contextlib.contextmanager
def _processes() -> Iterator[Callable[..., _Proc]]:
    """Yield ``spawn(cmd, spec=None)``; every process it started is
    reaped when the block exits, however it exits."""
    procs: list[_Proc] = []

    def spawn(cmd: list[str],
              spec: "faults.FaultSpec | None" = None) -> _Proc:
        procs.append(_Proc(cmd, _env(spec)))
        return procs[-1]

    try:
        yield spawn
    finally:
        for proc in procs:
            proc.reap()


def _await(proc: _Proc, ready: Callable[[], object], what: str,
           timeout_s: float = 300.0):
    """Poll ``ready()`` while ``proc`` runs; return its first truthy
    value, or fail the scenario if ``proc`` exits or time runs out."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = ready()
        if value:
            return value
        _check(proc.proc.poll() is None,
               f"process exited (code {proc.proc.returncode}) before "
               f"{what}:\n{proc.output}")
        time.sleep(0.05)
    raise ScenarioFailed(f"timed out after {timeout_s:.0f}s waiting for "
                         f"{what}")


def _await_lines(proc: _Proc, path: Path, n: int) -> int:
    """Wait until ``path`` holds ``n`` records; return how many."""
    def done() -> int:
        count = path.read_bytes().count(b"\n") if path.exists() else 0
        return count if count >= n else 0
    return _await(proc, done, f"{path.name} held {n} record(s)")


def _await_url(proc: _Proc) -> str:
    """The URL the coordinator ``proc`` announces once it listens."""
    return _await(proc, lambda: _URL_RE.search(proc.output),
                  "the coordinator announced its URL", 120.0).group(1)


def _exits(log: _Proc, **codes: int) -> None:
    """Check every named process exited 0 (``log`` explains a failure)."""
    _check(not any(codes.values()),
           "exit codes: " + " ".join(f"{name}={code}"
                                     for name, code in codes.items())
           + f"\n{log.output}")


def _work_cmd(url: str, worker_id: str) -> list[str]:
    return [sys.executable, "-m", "repro", "fabric", "work", url,
            "--worker-id", worker_id]


def _leased(url: str) -> int:
    """How many cells the coordinator at ``url`` has out on lease."""
    with urllib.request.urlopen(f"{url}/status", timeout=5.0) as resp:
        return json.loads(resp.read())["counts"]["leased"]


def _summary(output: str) -> dict[str, int]:
    """The coordinator's closing ``fabric: cells=...`` counters."""
    found = _SUMMARY_RE.search(output)
    return ({name: int(value) for name, value in found.groupdict().items()}
            if found else {})


#: Every scenario, in sweep order: ``name -> fn(sweep, path) -> detail``.
SCENARIOS: dict[str, Callable[[_Sweep, Path], str]] = {}


def _scenario(name: str):
    """Register the decorated function as scenario ``name``."""
    return lambda fn: SCENARIOS.setdefault(name, fn)


def _supervised(sweep: _Sweep, path: Path, supervision: Supervision,
                **spec: object) -> Campaign:
    """Fill the matrix on the supervised pool under ``FaultSpec(**spec)``."""
    campaign = sweep.campaign(path)
    with _chaos_env(faults.FaultSpec(seed=sweep.seed, **spec)):
        campaign.run(CHAOS_DESIGNS, CHAOS_WORKLOADS, jobs=sweep.jobs,
                     supervise=supervision)
    return campaign


@_scenario("crash")
def _crash(sweep: _Sweep, path: Path) -> str:
    """Every cell's first attempt dies mid-run; retries must heal all."""
    campaign = _supervised(sweep, path, sweep.supervision(), crash=1.0,
                           once=True)
    detail = (f"{_CELLS} cells, every first attempt crashed "
              f"(exit {faults.CRASH_EXIT}), "
              f"{len(campaign.quarantined)} quarantined")
    _check(not campaign.quarantined, detail)
    return _verdict(sweep, path, detail)


@_scenario("hang")
def _hang(sweep: _Sweep, path: Path) -> str:
    """Every cell's first attempt wedges; timeouts must reclaim them."""
    campaign = _supervised(sweep, path, sweep.supervision(timeout_s=2.0),
                           hang=1.0, hang_s=30.0, once=True)
    detail = ("every first attempt hung 30s, 2s timeout killed and "
              f"respawned workers, {len(campaign.quarantined)} "
              "quarantined")
    _check(not campaign.quarantined, detail)
    return _verdict(sweep, path, detail)


@_scenario("quarantine")
def _quarantine(sweep: _Sweep, path: Path) -> str:
    """One cell fails every attempt: it must be skipped and reported,
    never abort the rest of the campaign."""
    campaign = _supervised(sweep, path, sweep.supervision(max_attempts=3),
                           crash=1.0, match=_LAST_CELL)
    names = [f"{q.design}::{q.workload}" for q in campaign.quarantined]
    _check(names == [_LAST_CELL],
           f"expected [{_LAST_CELL}] quarantined, got {names}")
    expected = b"".join(
        line + b"\n" for line in sweep.reference.splitlines()
        if f'"{CHAOS_DESIGNS[-1]}"'.encode() not in line
        or f'"{CHAOS_WORKLOADS[-1]}"'.encode() not in line)
    detail = (f"{_LAST_CELL} crashed on all 3 attempts -> quarantined "
              f"([SKIP] reported), other cells completed")
    return _verdict(sweep, path, detail, expect=expected)


def _damage_and_rerun(sweep: _Sweep, path: Path, store: str,
                      damage: Callable[[Path], object]) -> object:
    """Warm a private ``store`` (a harness keyword), ``damage`` it, then
    re-run into ``path``; returns what ``damage`` returned."""
    cache_dir = sweep.out_dir / f"{path.stem}-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    private = {store: str(cache_dir)}
    sweep.fill(sweep.campaign_path(f"{path.stem}-warm"), **private)
    damaged = damage(cache_dir)
    sweep.fill(path, **private)
    return damaged


@_scenario("corrupt-resultcache")
def _corrupt_resultcache(sweep: _Sweep, path: Path) -> str:
    """Bit-rot in every result-cache entry must be healed by
    recomputation, never surfaced."""
    corrupted = _damage_and_rerun(
        sweep, path, "cache_dir",
        lambda root: faults.corrupt_tree(root, "*.json", seed=sweep.seed))
    _check(corrupted, "no cache entries were written to corrupt")
    return _verdict(sweep, path,
                    f"{corrupted} cache entries corrupted, all detected "
                    f"via digest mismatch and recomputed")


@_scenario("corrupt-tracecache")
def _corrupt_tracecache(sweep: _Sweep, path: Path) -> str:
    """Corrupt/truncated packed-trace entries must be regenerated."""
    flipped, truncated = _damage_and_rerun(
        sweep, path, "trace_cache", lambda root: (
            faults.corrupt_tree(root, "*.trace", seed=sweep.seed,
                                mode="flip"),
            faults.corrupt_tree(root, "*.trace", seed=sweep.seed + 1,
                                mode="truncate")))
    _check(flipped, "no trace entries were written to corrupt")
    return _verdict(sweep, path,
                    f"{flipped} trace entries bit-flipped then "
                    f"{truncated} truncated, all regenerated "
                    f"bit-identically")


@_scenario("checkpoint-io")
def _checkpoint_io(sweep: _Sweep, path: Path) -> str:
    """Every checkpoint append fails (disk full) for the whole run;
    records must survive in the pending buffer and flush once the
    'disk' recovers — file intact, order preserved."""
    campaign = sweep.campaign(path)
    faults.install(faults.FaultSpec(seed=sweep.seed, checkpoint=1.0))
    try:
        campaign.run(CHAOS_DESIGNS, CHAOS_WORKLOADS, jobs=1)
        errors = campaign._writer.write_errors
        deferred = campaign.deferred_appends
    finally:
        faults.uninstall()
    flushed = campaign.flush_pending()
    _check(errors and deferred and flushed,
           f"expected failing writes to defer records (errors={errors}, "
           f"deferred={deferred}, flushed={flushed})")
    return _verdict(sweep, path,
                    f"{errors} ENOSPC/EIO append failures absorbed, "
                    f"{deferred} records held pending, all flushed "
                    f"after recovery")


@_scenario("torn-tail")
def _torn_tail(sweep: _Sweep, path: Path) -> str:
    """A torn final line (kill mid-write) must be dropped, the file
    compacted, and a re-run must recompute exactly that cell."""
    lines = sweep.reference.splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]) + lines[-1][:17])
    campaign = sweep.campaign(path)
    _check(campaign.recovered_lines == 1,
           f"expected 1 dropped line, got {campaign.recovered_lines}")
    campaign.run(CHAOS_DESIGNS, CHAOS_WORKLOADS, jobs=1)
    return _verdict(sweep, path,
                    "torn final line dropped and compacted on load, "
                    "cell recomputed on resume")


@_scenario("kill-resume")
def _kill_resume(sweep: _Sweep, path: Path) -> str:
    """SIGKILL a ``repro campaign`` mid-flight; a resume must complete
    it to a file byte-identical to the uninterrupted reference.

    The *last* cell hangs, so the kill lands after the others are
    checkpointed; no handler runs, and the orphaned supervised worker,
    hanging in that cell, must be gone within 5 s."""
    with _processes() as spawn:
        proc = spawn(sweep.cli("campaign", path, "--retries", "1"),
                     faults.FaultSpec(seed=sweep.seed, hang=1.0,
                                      hang_s=120.0, match=_LAST_CELL))
        killed_after = _await_lines(proc, path, _CELLS - 1)
        workers = {(pid, start) for pid, (ppid, start)
                   in _live_processes().items()
                   if ppid == str(proc.proc.pid)}
        proc.reap()
    deadline = time.monotonic() + 5.0
    while (alive := workers & {(pid, start) for pid, (_, start)
                               in _live_processes().items()}) \
            and time.monotonic() < deadline:
        time.sleep(0.1)
    _check(not alive, f"campaign worker(s) {sorted(alive)} outlived the "
                      f"SIGKILL'd campaign by 5 s")
    _, dropped = recover_jsonl(path)
    sweep.fill(path)
    return _verdict(sweep, path,
                    f"SIGKILL'd after {killed_after} fsync'd cells "
                    f"({dropped} torn), resume recomputed the rest "
                    f"bit-identically")


@_scenario("fleet-worker-kill")
def _fleet_worker_kill(sweep: _Sweep, path: Path) -> str:
    """A worker dies mid-cell (the moral SIGKILL); its expired lease
    must be reclaimed and the cell completed by the surviving worker."""
    with _processes() as spawn:
        coordinator = spawn(sweep.cli("fabric serve", path, "--once",
                                      "--lease", "2"))
        url = _await_url(coordinator)
        doomed = spawn(_work_cmd(url, "w1"), faults.FaultSpec(
            seed=sweep.seed, crash=1.0, once=True))
        # The doomed worker leases its first cell, then dies holding the
        # lease; only after it is gone does the survivor start, so the
        # reclaim path is guaranteed to be exercised.
        doomed_code = doomed.wait(120.0)
        _check(doomed_code == faults.CRASH_EXIT,
               f"doomed worker exited {doomed_code}, expected "
               f"{faults.CRASH_EXIT}\n{doomed.output}")
        _exits(coordinator, survivor=spawn(_work_cmd(url, "w2")).wait(),
               coordinator=coordinator.wait())
    counts = _summary(coordinator.output)
    _check(counts.get("reclaimed", 0) >= 1,
           f"no lease was reclaimed: {counts}")
    return _verdict(sweep, path,
                    f"w1 died exit {doomed_code} holding a lease, w2 "
                    f"completed all cells ({counts['reclaimed']} "
                    f"lease(s) reclaimed)")


@_scenario("fleet-lease-expiry")
def _fleet_lease_expiry(sweep: _Sweep, path: Path) -> str:
    """A worker hangs right after leasing (heartbeats never start);
    the lease must expire and the cell complete elsewhere, with the
    straggler's late completion absorbed as a duplicate."""
    with _processes() as spawn:
        coordinator = spawn(sweep.cli("fabric serve", path, "--once",
                                      "--lease", "1.5", "--linger", "8"))
        url = _await_url(coordinator)
        hung = spawn(_work_cmd(url, "w1"), faults.FaultSpec(
            seed=sweep.seed, hang=1.0, hang_s=4.0, once=True,
            match=_FIRST_CELL))
        # Let w1 take the first lease (and start its hang) before the
        # healthy worker joins, so the hung cell is deterministic.
        _await(coordinator, lambda: _leased(url) >= 1, "w1 leased a cell",
               60.0)
        healthy = spawn(_work_cmd(url, "w2"))
        _exits(coordinator, w1=hung.wait(), w2=healthy.wait(),
               coordinator=coordinator.wait())
    counts = _summary(coordinator.output)
    _check(counts.get("reclaimed", 0) >= 1 and not counts["divergent"]
           and counts["duplicates"] >= 1,
           f"expected >=1 reclaim, >=1 duplicate, 0 divergent: {counts}")
    return _verdict(sweep, path,
                    f"w1 hung 4s on {_FIRST_CELL} with no heartbeats, "
                    f"lease expired at 1.5s and w2 rescued the cell "
                    f"({counts['reclaimed']} reclaimed, "
                    f"{counts['duplicates']} duplicate completion(s) "
                    f"absorbed)")


@_scenario("fleet-coordinator-restart")
def _fleet_coordinator_restart(sweep: _Sweep, path: Path) -> str:
    """SIGKILL the coordinator mid-campaign; a ``--resume`` restart on
    the same port must pick up the clean prefix while the workers ride
    out the gap on client retries.  Both workers stall 3s on the last
    cell, so the kill lands while that cell is still outstanding."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    serve = ("fabric serve", path, "--once", "--lease", "5",
             "--port", str(port))
    stall = faults.FaultSpec(seed=sweep.seed, hang=1.0, hang_s=3.0,
                             once=True, match=_LAST_CELL)
    with _processes() as spawn:
        first = spawn(sweep.cli(*serve))
        url = _await_url(first)
        w1 = spawn(_work_cmd(url, "w1"), stall)
        w2 = spawn(_work_cmd(url, "w2"), stall)
        killed_after = _await_lines(first, path, _CELLS - 1)
        first.reap()
        _check(killed_after < _CELLS,
               f"coordinator SIGKILL'd after all {killed_after} cells "
               f"were saved; the restart had nothing to resume")
        second = spawn(sweep.cli(*serve, "--resume"))
        _exits(second, w1=w1.wait(), w2=w2.wait(),
               restarted_coordinator=second.wait())
    return _verdict(sweep, path,
                    f"coordinator SIGKILL'd after {killed_after} "
                    f"fsync'd cell(s), --resume restart on port {port} "
                    f"completed the rest while both workers rode out "
                    f"the gap")


@_scenario("fleet-partition-heal")
def _fleet_partition_heal(sweep: _Sweep, path: Path) -> str:
    """One worker is partitioned from the coordinator (its first N
    requests dropped with no response); once the partition heals, the
    fleet must converge with zero lost or corrupted cells."""
    partition_n = 6
    with _processes() as spawn:
        # Generous linger: the partitioned worker spends seconds in
        # backoff before healing, and "heal" means it must still reach
        # a live coordinator afterwards to hear the fleet is done.
        coordinator = spawn(
            sweep.cli("fabric serve", path, "--once", "--lease", "5",
                      "--linger", "10"),
            faults.FaultSpec(seed=sweep.seed, partition_n=partition_n,
                             match="w1"))
        url = _await_url(coordinator)
        w1 = spawn(_work_cmd(url, "w1"))
        w2 = spawn(_work_cmd(url, "w2"))
        _exits(coordinator, w1=w1.wait(), w2=w2.wait(),
               coordinator=coordinator.wait())
    dropped = re.search(r'"partition": (\d+)', coordinator.output)
    dropped_n = int(dropped.group(1)) if dropped else 0
    _check(dropped_n == partition_n,
           f"expected {partition_n} partition-dropped requests, "
           f"coordinator reported {dropped_n}")
    return _verdict(sweep, path,
                    f"w1's first {dropped_n} requests dropped at the "
                    f"coordinator, client retries rode out the "
                    f"partition, fleet converged after heal")


@_scenario("fleet-duplicate-completion")
def _fleet_duplicate_completion(sweep: _Sweep, path: Path) -> str:
    """The duplicate-completion race, staged precisely in-process: a
    lease expires mid-compute, a second worker completes the cell
    first, and the straggler's identical completion must be absorbed
    idempotently (0 new rows on RunStore ingest)."""
    coordinator = FabricCoordinator(
        sweep.campaign(path), CHAOS_DESIGNS, CHAOS_WORKLOADS,
        policy=replace(FLEET_POLICY, timeout_s=1.0, seed=sweep.seed))
    thread = CoordinatorThread(coordinator)
    url = thread.start()
    try:
        slow = FabricClient(url, "wA")
        lease = slow.call("POST", "/lease", {"worker": "wA"})
        design, workload = unwire_cell(lease["cell"])
        comparison = sweep.harness().run_design(
            design, workload).to_record()
        time.sleep(1.3)            # lease expires; sweeper reclaims it
        first = FabricClient(url, "wB").call("POST", "/complete", {
            "worker": "wB", "lease": "lost-in-restart",
            "cell": lease["cell"], "comparison": comparison})
        second = slow.call("POST", "/complete", {
            "worker": "wA", "lease": lease["lease"],
            "cell": lease["cell"], "comparison": comparison})
        run_worker(url, "wC", harness=sweep.harness(),
                   local_caches=True)
    finally:
        thread.stop()
    duplicates = coordinator.state.duplicates
    _check(first["status"] == "ok" and second["status"] == "duplicate",
           f"expected ok then duplicate, got {first['status']} then "
           f"{second['status']}")
    _check(duplicates >= 1 and not coordinator.divergent,
           f"duplicates={duplicates} divergent={coordinator.divergent}")
    db_path = sweep.out_dir / "fleet-duplicate-completion.db"
    db_path.unlink(missing_ok=True)
    store = RunStore(db_path)
    added, seen = store.ingest_jsonl(path, source="campaign")
    re_added, _ = store.ingest_jsonl(path, source="campaign")
    _check(added == seen and re_added == 0,
           f"RunStore ingest not idempotent: first added {added}/{seen}, "
           f"re-ingest added {re_added}")
    return _verdict(sweep, path,
                    f"expired-lease cell completed twice (orphaned lease "
                    f"merged on arrival, stale lease -> duplicate), "
                    f"{duplicates} duplicate(s) absorbed, 0 divergent; "
                    f"RunStore ingest {added} rows once, re-ingest added "
                    f"{re_added}")


#: The single-machine scenarios: the sweep ``repro chaos`` runs unless
#: ``--scenarios`` names others (``all`` adds the ``fleet-*`` ones).
DEFAULT_SCENARIOS = tuple(name for name in SCENARIOS
                          if not name.startswith("fleet-"))


def run_chaos(scenarios: Sequence[str] | None = None, seed: int = 0,
              jobs: int = 2, requests: int = 1200, warmup: int = 300,
              out_dir: str | Path = "chaos-artifacts",
              progress: Callable[[str], None] | None = None
              ) -> ChaosReport:
    """Run the seeded fault-injection sweep.

    A failed check, or any other exception, makes a failing case with
    its message (or traceback) and campaign file; the sweep goes on.

    Args:
        scenarios: Scenario names (None for :data:`DEFAULT_SCENARIOS`,
            ``["all"]`` for every entry of :data:`SCENARIOS`).
        seed: Root of every injected-fault decision (reproducible).
        jobs: Supervised workers for the crash/hang scenarios.
        requests: Measured requests of each scenario campaign.
        warmup: Warm-up requests of each scenario campaign.
        out_dir: Artifact directory (campaign JSONLs, corrupted cache
            trees) — kept for post-mortem, uploaded by CI on failure.
        progress: Optional sink for each case's line as it completes
            (e.g. ``print``).

    Raises:
        KeyError: on an unknown scenario name, before anything runs.
    """
    chosen = list(scenarios) if scenarios else list(DEFAULT_SCENARIOS)
    if chosen == ["all"]:
        chosen = list(SCENARIOS)
    unknown = [name for name in chosen if name not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown chaos scenario(s): {', '.join(unknown)}; "
                       f"valid: {', '.join(SCENARIOS)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep = _Sweep(seed=seed, jobs=jobs, requests=requests,
                   warmup=warmup, out_dir=out_dir)
    cases = []
    for name in chosen:
        path = sweep.campaign_path(name)
        try:
            case = ChaosCase(name, True, SCENARIOS[name](sweep, path))
        except Exception as exc:  # a crashed scenario is a failed case
            detail = (str(exc) if isinstance(exc, ScenarioFailed)
                      else traceback.format_exc().rstrip())
            case = ChaosCase(name, False, detail, artifact=str(path))
        cases.append(case)
        if progress is not None:
            progress(case.line())
    return ChaosReport(cases=cases, seed=seed)
