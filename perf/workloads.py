"""The benchmark workloads: what each round runs and how outputs are checked.

Every workload drives public API only: a :class:`~repro.exec.CellPlan`
executed by :class:`~repro.exec.SerialBackend` for local campaigns, and
``python -m repro fabric serve`` plus
:func:`~repro.fabric.worker.run_worker` for the fleet.  Load is one
process and one client thread (the fleet adds one coordinator
subprocess).  Every campaign file is written with ``--no-timing``
semantics, so every round of a workload must produce the same bytes.

:func:`measure` runs one workload: set-up, timed rounds (no
instrumentation), optionally traced rounds (:mod:`perf.tracing`), then
the output checks.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from . import SRC, STATE_ROOT
from .reference import reference_check
from .tracing import ROOT_SPAN, Tracer, instrument

FIG8_DESIGNS = ("Banshee", "AlloyCache", "UnisonCache", "Chameleon",
                "Hybrid2", "Bumblebee")

ALL_DESIGNS = ("Bumblebee", "No-Multi", "Meta-H", "Alloc-D", "Alloc-H",
               "No-HMF", "AlloyCache", "Banshee", "Chameleon", "Hybrid2",
               "Ideal", "MemPod", "No-HBM", "C-Only", "M-Only", "25%-C",
               "50%-C", "UnisonCache")

ALL_WORKLOADS = ("roms", "lbm", "bwaves", "wrf", "xalancbmk", "mcf",
                 "cam4", "cactuBSSN", "fotonik3d", "x264", "nab", "namd",
                 "xz", "leela")

#: Set-ups per run that ``setup_s`` takes the median of.
SETUPS = 3

#: What a fresh interpreter imports before the first round can start.
IMPORTS = "import repro.exec, repro.fabric, repro.observatory"

# The benchmark measures the host time of the stack, not the flush
# latency of whatever disk the checkout sits on: on a shared virtual
# disk the median fsync moved between 0.15 and 0.72 ms from one second
# to the next, which swamped the warm-hits and fleet rounds.  Every
# benchmark process therefore makes fsync a no-op, which is what it is
# on tmpfs; the writes themselves still happen, inside the checkout.
_NO_FSYNC = "import os; os.fsync = lambda fd: None"

#: ``python -m repro`` with fsync a no-op (argv follows).
_REPRO_MAIN = (f"{_NO_FSYNC}; import runpy; "
               f"runpy.run_module('repro', run_name='__main__')")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: As listed in ``BENCHMARK.json`` (which says why each
            workload exists).
        kind: ``cold`` (fresh caches every round, checked against the
            scalar reference), ``warm`` (every cell a result-cache hit)
            or ``fleet`` (a fabric coordinator plus one worker).
        designs / workloads: The cell matrix, design-major.
        requests / warmup: The measured and warm-up window per cell.
    """

    name: str
    kind: str
    designs: tuple
    workloads: tuple
    requests: int
    warmup: int

    @property
    def cells(self) -> list[tuple]:
        return [(design, workload) for design in self.designs
                for workload in self.workloads]


WORKLOADS = {spec.name: spec for spec in (
    Workload("fig8-cold", "cold", FIG8_DESIGNS,
             ("mcf", "leela", "xalancbmk"), 30_000, 15_000),
    Workload("pressure-cold", "cold",
             ("C-Only", "M-Only", "Alloc-D", "Alloc-H", "MemPod"),
             ("lbm", "roms"), 20_000, 10_000),
    Workload("warm-hits", "warm", ALL_DESIGNS, ALL_WORKLOADS, 1_000, 500),
    Workload("fleet-cold", "fleet", FIG8_DESIGNS, ALL_WORKLOADS,
             2_000, 1_000),
)}


@dataclass
class Result:
    """Everything one :func:`measure` call observed."""

    workload: str
    seed: int
    state_dir: str
    state_fs: str
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    results_digest: str = ""
    trace_events: "dict | None" = None

    @property
    def correct(self) -> bool:
        return not self.failed and not self.checks


def _records(data: bytes) -> dict:
    """``(design, workload) -> record`` of campaign file bytes."""
    out = {}
    for line in data.splitlines():
        if line.strip():
            record = json.loads(line)
            out[(record["design"], record["workload"])] = record
    return out


def diff_campaigns(reference: bytes, candidate: bytes) -> set:
    """Cells whose records differ between two campaign files (missing
    or extra records included)."""
    ref, cand = _records(reference), _records(candidate)
    return {cell for cell in ref.keys() | cand.keys()
            if ref.get(cell) != cand.get(cell)}


@dataclass
class _Round:
    """One round's plan and the campaign bytes it produced."""

    plan: object
    data: bytes = b""


class ColdBench:
    """Fresh, empty trace and result caches every round; outputs are
    checked against the scalar reference engine.

    A round is ``prepare_round`` (untimed, counted as set-up),
    ``run_round`` (timed) and ``finish_round`` (untimed: returns the
    campaign bytes and records missing cells as failed).  The other
    workload kinds subclass this one.
    """

    def __init__(self, spec: Workload, seed: int, state: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.state = state
        self.failed: set = set()
        self.checks: list[str] = []

    def _plan(self, tag: str, cache_dir: "str | None" = None,
              traces: "str | None" = None, db: "str | None" = None):
        from repro.analysis.experiments import ExperimentConfig
        from repro.exec import CellPlan
        root = Path(tempfile.mkdtemp(prefix=tag, dir=self.state))
        config = ExperimentConfig(
            requests=self.spec.requests, warmup=self.spec.warmup,
            seed=self.seed, workloads=self.spec.workloads,
            trace_cache_dir=traces or str(root / "traces"))
        return CellPlan(config=config, designs=self.spec.designs,
                        out=root / "campaign.jsonl", record_timing=False,
                        cache_dir=cache_dir or str(root / "results"),
                        db=db)

    @staticmethod
    def _serial(plan) -> bytes:
        """Execute ``plan`` in-process; returns its campaign bytes."""
        from repro.exec import SerialBackend
        campaign = plan.open_campaign()
        try:
            SerialBackend().execute(plan, campaign)
        finally:
            if campaign.store is not None:
                campaign.store.close()
        return plan.out.read_bytes() if plan.out.exists() else b""

    def _account(self, data: bytes) -> None:
        self.failed |= set(self.spec.cells) - _records(data).keys()

    def prepare(self, setups: int) -> list[float]:
        """One-time set-up, made ``setups`` times; returns the seconds
        each took (empty when there is none)."""
        return []

    def prepare_round(self):
        return _Round(self._plan("round-"))

    def run_round(self, ctx) -> None:
        ctx.data = self._serial(ctx.plan)

    def finish_round(self, ctx) -> bytes:
        self._account(ctx.data)
        shutil.rmtree(ctx.plan.out.parent, ignore_errors=True)
        return ctx.data

    def check(self, data: bytes) -> None:
        """Workload-specific checks of the first round's bytes."""
        failed, lines = reference_check(
            self.spec.designs, self.spec.workloads, self.spec.requests,
            self.spec.warmup, self.seed, records=_records(data))
        self.failed |= failed
        self.checks += lines


class WarmBench(ColdBench):
    """Caches filled in set-up; each round reads every cell from the
    result cache into a fresh campaign file and a fresh in-memory
    RunStore, closed at the end of the round."""

    def prepare(self, setups: int) -> list[float]:
        samples, fills = [], []
        for index in range(setups):
            plan = self._plan(f"fill{index}-")
            start = time.perf_counter()
            data = self._serial(plan)
            samples.append(time.perf_counter() - start)
            fills.append((plan, data))
        self.fill, self.fill_bytes = fills[0]
        self._account(self.fill_bytes)
        for plan, data in fills[1:]:
            self._compare("a repeated set-up fill", data)
            shutil.rmtree(plan.out.parent, ignore_errors=True)
        return samples

    def _compare(self, what: str, data: bytes) -> None:
        if data != self.fill_bytes:
            self.checks.append(f"{self.spec.name}: {what} differs from "
                               f"the fill")
            self.failed |= diff_campaigns(self.fill_bytes, data)

    def prepare_round(self):
        # A RunStore on ":memory:" runs the same ingest code without
        # sqlite's per-commit fsyncs, whose latency on a shared disk
        # would dominate this workload's noise.
        return _Round(self._plan(
            "round-", cache_dir=self.fill.cache_dir,
            traces=self.fill.config.trace_cache_dir, db=":memory:"))

    def check(self, data: bytes) -> None:
        self._compare("the round", data)


@dataclass
class _Fleet:
    """One round's coordinator subprocess and its directory."""

    root: Path
    proc: subprocess.Popen
    url: str
    output: bytes


class FleetBench(ColdBench):
    """A ``repro fabric serve --once --no-timing`` coordinator with cold
    result and trace caches per round; one in-process worker drains it
    through the coordinator's HTTP caches."""

    START_TIMEOUT_S = 60.0

    def prepare_round(self) -> _Fleet:
        spec = self.spec
        root = Path(tempfile.mkdtemp(prefix="fleet-", dir=self.state))
        command = [
            sys.executable, "-c", _REPRO_MAIN, "fabric", "serve",
            "--out", str(root / "campaign.jsonl"),
            "--designs", *spec.designs, "--workloads", *spec.workloads,
            "--requests", str(spec.requests),
            "--warmup", str(spec.warmup), "--seed", str(self.seed),
            "--cache", str(root / "results"),
            "--trace-cache", str(root / "traces"),
            "--port", "0", "--once", "--no-timing", "--linger", "0.1"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(command, cwd=root, env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        try:
            url, output = _await_url(proc, self.START_TIMEOUT_S)
        except BaseException:
            _stop(proc)
            raise
        return _Fleet(root, proc, url, output)

    def run_round(self, fleet: _Fleet) -> None:
        from repro.fabric import run_worker
        run_worker(fleet.url, worker_id="perf-worker")

    def finish_round(self, fleet: _Fleet) -> bytes:
        try:
            rest, _ = fleet.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            _stop(fleet.proc)
            rest = b""
        if fleet.proc.returncode != 0:
            output = (fleet.output + rest).decode(errors="replace")
            self.checks.append(
                f"{self.spec.name}: coordinator exited "
                f"{fleet.proc.returncode}: {output[-2000:]}")
        out = fleet.root / "campaign.jsonl"
        data = out.read_bytes() if out.exists() else b""
        self._account(data)
        shutil.rmtree(fleet.root, ignore_errors=True)
        return data

    def check(self, data: bytes) -> None:
        plan = self._plan("serial-")
        serial = self._serial(plan)
        shutil.rmtree(plan.out.parent, ignore_errors=True)
        if data != serial:
            self.checks.append(f"{self.spec.name}: fleet campaign differs "
                               f"from a serial campaign of the same plan")
            self.failed |= diff_campaigns(serial, data)


BENCHES = {"cold": ColdBench, "warm": WarmBench, "fleet": FleetBench}


def _await_url(proc: subprocess.Popen, timeout_s: float) -> tuple:
    """Read the coordinator's output until it announces its URL."""
    pattern = re.compile(rb"serving \d+ cell\(s\) at (http://\S+)")
    deadline = time.monotonic() + timeout_s
    fd = proc.stdout.fileno()
    output = b""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.05)
        if not ready:
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            break
        output += chunk
        match = pattern.search(output)
        if match:
            return match.group(1).decode(), output
    raise RuntimeError("fabric coordinator did not start: "
                       + output.decode(errors="replace")[-2000:])


def _stop(proc: subprocess.Popen) -> None:
    """Kill a subprocess and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the measured stack."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)
    return time.perf_counter() - start


def peak_rss_mib() -> float:
    """This process's peak resident set size so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def filesystem_of(path: Path) -> str:
    """The filesystem type ``path`` lives on (``unknown`` if unsure)."""
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    best, fstype = "", "unknown"
    target = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        inside = target == mount or target.startswith(
            mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, parts[2]
    return fstype


_KERNEL_KEYS = tuple(f"cell-{index:05d}" for index in range(4000))


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python kernel doing the kinds of work a
    round does (dict build, JSON round trip, sort, sha256), with the
    collector off so that the heap a workload leaves does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {key: [index, key.upper(), index * 0.5]
                 for index, key in enumerate(_KERNEL_KEYS)}
        text = json.dumps(table, sort_keys=True)
        rows = sorted(json.loads(text).items(), key=lambda row: row[1][1])
        hashlib.sha256(repr(rows).encode()).digest()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class _Rounds:
    """What a series of rounds observed; ``refs[i]`` is the mean of
    :func:`reference_seconds` just before and just after round ``i``."""

    walls: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    preps: list = field(default_factory=list)
    datas: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    cells: list = field(default_factory=list)


def _rounds(bench: ColdBench, seconds: float, min_rounds: int,
            tracer: "Tracer | None" = None) -> _Rounds:
    """Run rounds until ``seconds`` have passed and ``min_rounds`` ran.

    A round that raises has its traceback printed to stderr, fails its
    missing cells, and the run goes on.
    """
    out = _Rounds()
    start = time.perf_counter()
    while (len(out.walls) < min_rounds
           or time.perf_counter() - start < seconds):
        began = time.perf_counter()
        ctx = bench.prepare_round()
        out.preps.append(time.perf_counter() - began)
        before = reference_seconds()
        began = time.perf_counter()
        try:
            if tracer is None:
                bench.run_round(ctx)
            else:
                tracer.reset()
                with instrument(tracer), tracer.span(ROOT_SPAN):
                    bench.run_round(ctx)
                out.layers.append(tracer.layer_metrics())
                out.cells.extend(tracer.cell_s.values())
        except Exception:
            traceback.print_exc()
            bench.checks.append(f"{bench.spec.name}: a round raised "
                                f"(traceback on stderr)")
        out.walls.append(time.perf_counter() - began if tracer is None
                         else tracer.inclusive_s[ROOT_SPAN])
        out.refs.append((before + reference_seconds()) / 2)
        out.datas.append(bench.finish_round(ctx))
        gc.collect()
    return out


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 < q <= 100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure(spec: Workload, seed: int, seconds: float,
            trace: "int | None" = None, min_rounds: int = 3) -> Result:
    """Run one workload and check its outputs.

    Args:
        spec: The workload.
        seed: Goes into ``ExperimentConfig.seed``: the same seed gives
            the same traces and the same campaign bytes.
        seconds: How long the timed rounds run (at least
            ``min_rounds``).  With ``trace=1`` half goes to untimed and
            half to traced rounds; with ``trace=None`` a traced pass of
            ``seconds / 2`` follows the timed rounds.
        trace: 0 = end-to-end metrics only, 1 = per-layer metrics only,
            None = both.
        min_rounds: Fewest timed rounds (traced passes run at least
            one round).
    """
    import repro.exec       # noqa: F401  (IMPORTS, before any timing)
    import repro.fabric     # noqa: F401
    import repro.observatory  # noqa: F401
    STATE_ROOT.mkdir(parents=True, exist_ok=True)
    state = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=STATE_ROOT))
    result = Result(workload=spec.name, seed=seed, state_dir=str(state),
                    state_fs=filesystem_of(state))
    fsync = os.fsync
    os.fsync = _skip_fsync
    try:
        bench = BENCHES[spec.kind](spec, seed, state)
        imports = ([_import_seconds() for _ in range(SETUPS)]
                   if trace != 1 else [])
        prepares = bench.prepare(SETUPS if trace != 1 else 1)
        datas = []
        if trace != 1:
            timed = _rounds(bench, seconds, min_rounds)
            datas += timed.datas
            # Other tenants of the shared host slow every instruction of
            # this process for seconds to minutes at a time (no steal
            # time: CPU time grows with wall time), which moved a run's
            # median round by up to 1.9x.  The reference kernel slows
            # with it, so each round is divided by the kernel's time
            # around it: where warm-hits rounds grew 1.74x, the ratio
            # moved 13% (perf/README.md).
            result.end_to_end = {
                "wall_norm": statistics.median(
                    wall / ref for wall, ref in zip(timed.walls, timed.refs)),
                "setup_s": (statistics.median(imports)
                            + (statistics.median(prepares)
                               if prepares else 0.0)
                            + statistics.median(timed.preps)),
                "peak_rss_mib": peak_rss_mib(),
            }
            result.samples.update(wall_s=timed.walls, ref_s=timed.refs,
                                  import_s=imports,
                                  prepare_s=prepares,
                                  round_prep_s=timed.preps)
            untimed = timed.walls
        if trace == 1:
            untimed_rounds = _rounds(bench, seconds / 2, 2)
            datas += untimed_rounds.datas
            untimed = untimed_rounds.walls
        if trace != 0:
            tracer = Tracer()
            traced = _rounds(bench, seconds / 2, 1, tracer=tracer)
            datas += traced.datas
            if traced.layers:
                result.per_layer = _per_layer(traced, untimed)
            result.samples["traced_s"] = traced.walls
            result.trace_events = tracer.chrome_trace()
        first = datas[0]
        for index, data in enumerate(datas[1:], start=2):
            if data != first:
                bench.checks.append(f"{spec.name}: round {index} bytes "
                                    f"differ from round 1")
                bench.failed |= diff_campaigns(first, data)
        bench.check(first)
        result.results_digest = hashlib.sha256(first).hexdigest()
        result.attempted = len(spec.cells)
        result.failed = sorted(bench.failed)
        result.checks = bench.checks
        return result
    finally:
        os.fsync = fsync
        shutil.rmtree(state, ignore_errors=True)


def _skip_fsync(fd) -> None:
    """In-process stand-in for ``os.fsync`` (see ``_NO_FSYNC``)."""


def _per_layer(traced: _Rounds, untimed: list) -> dict:
    """Median per-layer metrics over traced rounds, plus cell latency
    percentiles over every traced cell, the median uninstrumented round
    as measured (``wall_s``) and the tracing overhead."""
    out = {name: statistics.median(layers[name] for layers in traced.layers)
           for name in traced.layers[0]}
    cells_ms = [seconds * 1e3 for seconds in traced.cells]
    traced_s = statistics.median(traced.walls)
    wall_s = statistics.median(untimed)
    out.update({
        "wall_s": wall_s,
        "exec.cell_ms.p50": statistics.median(cells_ms),
        "exec.cell_ms.p99": _percentile(cells_ms, 99),
        "exec.cell_ms.samples": len(cells_ms),
        "bench.traced_round_s": traced_s,
        "bench.trace_overhead_frac": traced_s / wall_s - 1.0,
    })
    return out
