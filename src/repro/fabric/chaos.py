"""Fleet chaos scenarios: break the fabric, demand byte-identity.

Each scenario runs a real coordinator + workers (subprocesses over the
``repro fabric`` CLI, or in-process where the race needs precise
control), injects one distributed failure mode — a SIGKILL'd worker, a
hung worker whose lease must expire, a SIGKILL'd-and-restarted
coordinator, a network partition, a duplicate-completion race — and
then holds the fleet to the same survival contract as the
single-machine chaos scenarios: the campaign file must come out
**byte-identical** to the fault-free serial reference.

These scenarios register into the :mod:`repro.resilience.chaos`
scenario table (lazily, to avoid an import cycle) and run via
``repro chaos --scenarios fleet-... `` or ``--scenarios all``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Callable

from ..analysis.campaign import Campaign
from ..resilience import faults
from ..resilience.chaos import (
    CHAOS_DESIGNS,
    CHAOS_WORKLOADS,
    ChaosCase,
    _Sweep,
    _verdict,
)
from .coordinator import CoordinatorThread, FabricCoordinator, unwire_cell
from .state import FabricPolicy
from .worker import FabricClient, run_worker

#: Fleet scenario order (appended to the core sweep by ``all``).
FLEET_SCENARIOS = ("fleet-worker-kill", "fleet-lease-expiry",
                   "fleet-coordinator-restart", "fleet-partition-heal",
                   "fleet-duplicate-completion")

_SRC = str(Path(__file__).resolve().parents[2])
_URL_RE = re.compile(r"at (http://[0-9.]+:[0-9]+)")
_SUMMARY_RE = re.compile(
    r"fabric: cells=(\d+) emitted=(\d+) reclaimed=(\d+) "
    r"duplicates=(\d+) divergent=(\d+) quarantined=(\d+)")


def _repro_env(spec: "faults.FaultSpec | None" = None) -> dict:
    """Subprocess env: repo on PYTHONPATH, chaos spec set or scrubbed."""
    env = dict(os.environ)
    env.pop(faults.CHAOS_ENV, None)
    if spec is not None:
        env[faults.CHAOS_ENV] = spec.to_env()
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class _Proc:
    """A fleet subprocess with its stdout pumped to a line buffer."""

    def __init__(self, cmd: list[str], env: dict) -> None:
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.lines: list[str] = []
        self._pump = threading.Thread(target=self._drain, daemon=True)
        self._pump.start()

    def _drain(self) -> None:
        assert self.proc.stdout is not None
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
        """Kill and collect, whatever state the process is in."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _serve_cmd(sweep: _Sweep, path: Path, extra: tuple = ()) -> list[str]:
    return [sys.executable, "-m", "repro", "fabric", "serve",
            "--out", str(path),
            "--designs", *CHAOS_DESIGNS,
            "--workloads", *CHAOS_WORKLOADS,
            "--requests", str(sweep.requests),
            "--warmup", str(sweep.warmup),
            "--trace-cache", sweep.trace_cache,
            "--no-timing", "--once", *extra]


def _work_cmd(url: str, worker_id: str) -> list[str]:
    return [sys.executable, "-m", "repro", "fabric", "work", url,
            "--worker-id", worker_id]


def _await_url(proc: _Proc, timeout_s: float = 120.0) -> str:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for line in list(proc.lines):
            found = _URL_RE.search(line)
            if found:
                return found.group(1)
        if proc.proc.poll() is not None:
            raise RuntimeError(
                f"coordinator exited early (code {proc.proc.returncode}):"
                f"\n{proc.output}")
        time.sleep(0.05)
    raise RuntimeError("coordinator never announced its URL")


def _status(url: str) -> dict:
    with urllib.request.urlopen(f"{url}/status", timeout=5.0) as resp:
        return json.loads(resp.read())


def _summary(output: str) -> "dict[str, int] | None":
    found = _SUMMARY_RE.search(output)
    if not found:
        return None
    names = ("cells", "emitted", "reclaimed", "duplicates", "divergent",
             "quarantined")
    return dict(zip(names, map(int, found.groups())))


def fleet_worker_kill(sweep: _Sweep) -> ChaosCase:
    """A worker dies mid-cell (the moral SIGKILL); its expired lease
    must be reclaimed and the cell completed by the surviving worker."""
    path = sweep.campaign_path("fleet-worker-kill")
    coordinator = _Proc(_serve_cmd(sweep, path, ("--lease", "2")),
                        _repro_env())
    doomed = survivor = None
    try:
        url = _await_url(coordinator)
        doomed = _Proc(_work_cmd(url, "w1"), _repro_env(
            faults.FaultSpec(seed=sweep.seed, crash=1.0, once=True)))
        # The doomed worker leases its first cell, then dies holding the
        # lease; only after it is gone does the survivor start, so the
        # reclaim path is guaranteed to be exercised.
        doomed_code = doomed.wait(120.0)
        survivor = _Proc(_work_cmd(url, "w2"), _repro_env())
        survivor_code = survivor.wait(300.0)
        coordinator_code = coordinator.wait(300.0)
    finally:
        for proc in (coordinator, doomed, survivor):
            if proc is not None:
                proc.reap()
    counts = _summary(coordinator.output) or {}
    detail = (f"w1 died exit {doomed_code} holding a lease, w2 "
              f"completed all cells ({counts.get('reclaimed', 0)} "
              f"lease(s) reclaimed)")
    if doomed_code != faults.CRASH_EXIT:
        return ChaosCase("fleet-worker-kill", False,
                         f"doomed worker exited {doomed_code}, expected "
                         f"{faults.CRASH_EXIT}\n{coordinator.output}",
                         artifact=str(path))
    if survivor_code != 0 or coordinator_code != 0:
        return ChaosCase("fleet-worker-kill", False,
                         f"survivor exit {survivor_code}, coordinator "
                         f"exit {coordinator_code}\n{coordinator.output}",
                         artifact=str(path))
    if counts.get("reclaimed", 0) < 1:
        return ChaosCase("fleet-worker-kill", False,
                         f"no lease was reclaimed: {counts}",
                         artifact=str(path))
    return _verdict(sweep, "fleet-worker-kill", path, detail)


def fleet_lease_expiry(sweep: _Sweep) -> ChaosCase:
    """A worker hangs right after leasing (heartbeats never start);
    the lease must expire and the cell complete elsewhere, with the
    straggler's late completion absorbed as a duplicate."""
    path = sweep.campaign_path("fleet-lease-expiry")
    coordinator = _Proc(
        _serve_cmd(sweep, path, ("--lease", "1.5", "--linger", "8")),
        _repro_env())
    hung = healthy = None
    try:
        url = _await_url(coordinator)
        hung_cell = f"{CHAOS_DESIGNS[0]}::{CHAOS_WORKLOADS[0]}"
        hung = _Proc(_work_cmd(url, "w1"), _repro_env(
            faults.FaultSpec(seed=sweep.seed, hang=1.0, hang_s=4.0,
                             once=True, match=hung_cell)))
        # Let w1 take the first lease (and start its hang) before the
        # healthy worker joins, so the hung cell is deterministic.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if _status(url)["counts"]["leased"] >= 1:
                break
            time.sleep(0.05)
        healthy = _Proc(_work_cmd(url, "w2"), _repro_env())
        hung_code = hung.wait(300.0)
        healthy_code = healthy.wait(300.0)
        coordinator_code = coordinator.wait(300.0)
    finally:
        for proc in (coordinator, hung, healthy):
            if proc is not None:
                proc.reap()
    counts = _summary(coordinator.output) or {}
    detail = (f"w1 hung 4s on {hung_cell} with no heartbeats, lease "
              f"expired at 1.5s and w2 rescued the cell "
              f"({counts.get('reclaimed', 0)} reclaimed, "
              f"{counts.get('duplicates', 0)} duplicate completion(s) "
              f"absorbed)")
    if coordinator_code != 0 or hung_code != 0 or healthy_code != 0:
        return ChaosCase("fleet-lease-expiry", False,
                         f"exit codes: coordinator={coordinator_code} "
                         f"w1={hung_code} w2={healthy_code}\n"
                         f"{coordinator.output}", artifact=str(path))
    if counts.get("reclaimed", 0) < 1 or counts.get("duplicates", 0) < 1:
        return ChaosCase("fleet-lease-expiry", False,
                         f"expected >=1 reclaim and >=1 duplicate, got "
                         f"{counts}", artifact=str(path))
    if counts.get("divergent", 0):
        return ChaosCase("fleet-lease-expiry", False,
                         f"duplicate completion diverged: {counts}",
                         artifact=str(path))
    return _verdict(sweep, "fleet-lease-expiry", path, detail)


def fleet_coordinator_restart(sweep: _Sweep) -> ChaosCase:
    """SIGKILL the coordinator mid-campaign; a ``--resume`` restart on
    the same port must pick up the clean prefix while the workers ride
    out the gap on client retries."""
    path = sweep.campaign_path("fleet-coordinator-restart")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    extra = ("--lease", "5", "--port", str(port))
    first = _Proc(_serve_cmd(sweep, path, extra), _repro_env())
    second = w1 = w2 = None
    try:
        url = _await_url(first)
        w1 = _Proc(_work_cmd(url, "w1"), _repro_env())
        w2 = _Proc(_work_cmd(url, "w2"), _repro_env())
        killed_after = -1
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            if path.exists() and path.read_bytes().count(b"\n") >= 1:
                killed_after = path.read_bytes().count(b"\n")
                break
            time.sleep(0.05)
        if killed_after < 1:
            return ChaosCase("fleet-coordinator-restart", False,
                             "no cell reached the campaign file before "
                             "the kill window closed", artifact=str(path))
        os.kill(first.proc.pid, signal.SIGKILL)
        first.proc.wait()
        second = _Proc(_serve_cmd(sweep, path, extra + ("--resume",)),
                       _repro_env())
        w1_code = w1.wait(300.0)
        w2_code = w2.wait(300.0)
        second_code = second.wait(300.0)
    finally:
        for proc in (first, second, w1, w2):
            if proc is not None:
                proc.reap()
    detail = (f"coordinator SIGKILL'd after {killed_after} fsync'd "
              f"cell(s), --resume restart on port {port} completed the "
              f"rest while both workers rode out the gap")
    if second_code != 0 or w1_code != 0 or w2_code != 0:
        return ChaosCase("fleet-coordinator-restart", False,
                         f"exit codes: restarted coordinator="
                         f"{second_code} w1={w1_code} w2={w2_code}\n"
                         f"{second.output if second else ''}",
                         artifact=str(path))
    return _verdict(sweep, "fleet-coordinator-restart", path, detail)


def fleet_partition_heal(sweep: _Sweep) -> ChaosCase:
    """One worker is partitioned from the coordinator (its first N
    requests dropped with no response); once the partition heals, the
    fleet must converge with zero lost or corrupted cells."""
    path = sweep.campaign_path("fleet-partition-heal")
    partition_n = 6
    # Generous linger: the partitioned worker spends seconds in backoff
    # before healing, and "heal" means it must still reach a live
    # coordinator afterwards to hear the fleet is done.
    coordinator = _Proc(
        _serve_cmd(sweep, path, ("--lease", "5", "--linger", "10")),
        _repro_env(faults.FaultSpec(seed=sweep.seed,
                                    partition_n=partition_n,
                                    match="w1")))
    w1 = w2 = None
    try:
        url = _await_url(coordinator)
        w1 = _Proc(_work_cmd(url, "w1"), _repro_env())
        w2 = _Proc(_work_cmd(url, "w2"), _repro_env())
        w1_code = w1.wait(300.0)
        w2_code = w2.wait(300.0)
        coordinator_code = coordinator.wait(300.0)
    finally:
        for proc in (coordinator, w1, w2):
            if proc is not None:
                proc.reap()
    dropped = re.search(r'"partition": (\d+)', coordinator.output)
    dropped_n = int(dropped.group(1)) if dropped else 0
    detail = (f"w1's first {dropped_n} requests dropped at the "
              f"coordinator, client retries rode out the partition, "
              f"fleet converged after heal")
    if coordinator_code != 0 or w1_code != 0 or w2_code != 0:
        return ChaosCase("fleet-partition-heal", False,
                         f"exit codes: coordinator={coordinator_code} "
                         f"w1={w1_code} w2={w2_code}\n"
                         f"{coordinator.output}", artifact=str(path))
    if dropped_n != partition_n:
        return ChaosCase("fleet-partition-heal", False,
                         f"expected {partition_n} partition-dropped "
                         f"requests, coordinator reported {dropped_n}",
                         artifact=str(path))
    return _verdict(sweep, "fleet-partition-heal", path, detail)


def fleet_duplicate_completion(sweep: _Sweep) -> ChaosCase:
    """The duplicate-completion race, staged precisely in-process: a
    lease expires mid-compute, a second worker completes the cell
    first, and the straggler's identical completion must be absorbed
    idempotently (0 new rows on RunStore ingest)."""
    from ..observatory import RunStore
    path = sweep.campaign_path("fleet-duplicate-completion")
    campaign = Campaign(sweep.harness(), path, record_timing=False)
    coordinator = FabricCoordinator(
        campaign, CHAOS_DESIGNS, CHAOS_WORKLOADS,
        policy=FabricPolicy(lease_s=1.0, seed=sweep.seed))
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
    detail = (f"expired-lease cell completed twice (orphaned lease "
              f"merged on arrival, stale lease -> duplicate), "
              f"{duplicates} duplicate(s) absorbed, 0 divergent")
    if first["status"] != "ok" or second["status"] != "duplicate":
        return ChaosCase("fleet-duplicate-completion", False,
                         f"expected ok then duplicate, got "
                         f"{first['status']} then {second['status']}",
                         artifact=str(path))
    if duplicates < 1 or coordinator.divergent:
        return ChaosCase("fleet-duplicate-completion", False,
                         f"duplicates={duplicates} "
                         f"divergent={coordinator.divergent}",
                         artifact=str(path))
    db_path = sweep.out_dir / "fleet-duplicate-completion.db"
    db_path.unlink(missing_ok=True)
    store = RunStore(db_path)
    added, seen = store.ingest_jsonl(path, source="campaign")
    re_added, _ = store.ingest_jsonl(path, source="campaign")
    if added != seen or re_added != 0:
        return ChaosCase("fleet-duplicate-completion", False,
                         f"RunStore ingest not idempotent: first added "
                         f"{added}/{seen}, re-ingest added {re_added}",
                         artifact=str(path))
    detail += (f"; RunStore ingest {added} rows once, re-ingest added "
               f"{re_added}")
    return _verdict(sweep, "fleet-duplicate-completion", path, detail)


#: Scenario table merged (lazily) into :mod:`repro.resilience.chaos`.
FLEET_SCENARIO_TABLE: dict[str, Callable[[_Sweep], ChaosCase]] = {
    "fleet-worker-kill": fleet_worker_kill,
    "fleet-lease-expiry": fleet_lease_expiry,
    "fleet-coordinator-restart": fleet_coordinator_restart,
    "fleet-partition-heal": fleet_partition_heal,
    "fleet-duplicate-completion": fleet_duplicate_completion,
}
