"""Per-layer spans for the traced pass, recorded from outside ``src/``.

:func:`instrument` wraps public functions of the ``repro`` package for
the duration of a ``with`` block and restores them afterwards, so the
timed rounds run the unmodified code.  Each wrapper opens a span on a
:class:`Tracer`; a span's *self* time is its duration minus the time
its child spans cover, so the self times of one traced round add up to
the round's wall time exactly.

Per-request calls (``controller.access``) and per-epoch calls
(``batch_epoch_plan``/``commit_epoch``) are not spans: they add their
duration into the enclosing ``sim.run`` span as aggregated children,
so tracing never records one event per request.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Every span the traced pass reports, in report order.  ``exec.self``
#: is the round's own time: orchestration outside every other span.
SPANS = (
    "exec.cell", "harness.lookup", "harness.baseline", "traces.acquire",
    "resultcache.get", "resultcache.put", "sim.run", "policy.plan",
    "policy.commit", "policy.bridge", "policy.scalar", "campaign.persist",
    "checkpoint.append", "observatory.ingest", "fabric.lease",
    "fabric.complete", "fabric.cache_get", "fabric.cache_put",
    "fabric.config", "exec.self",
)

#: The traced round's root span; its self time is reported as exec.self.
ROOT_SPAN = "round"

#: Fabric routes grouped into spans: (method, path prefix) -> span.
FABRIC_ROUTES = (
    ("POST", "/lease", "fabric.lease"),
    ("POST", "/complete", "fabric.complete"),
    ("GET", "/cache/", "fabric.cache_get"),
    ("PUT", "/cache/", "fabric.cache_put"),
    ("GET", "/config", "fabric.config"),
)

# Controller methods timed inside sim.run.  ``access`` lands in
# policy.bridge or policy.scalar once the run's engine is known.
_POLICY_METHODS = (
    ("batch_epoch_plan", "policy.plan"),
    ("batch_plan", "policy.plan"),
    ("commit_epoch", "policy.commit"),
    ("access", "policy.access"),
)


class _Frame:
    __slots__ = ("start", "child_s", "inner", "rename", "args")

    def __init__(self, start: float, args: dict) -> None:
        self.start = start
        self.child_s = 0.0
        self.inner: dict[str, list] = {}
        self.rename: dict[str, str] = {}
        self.args = args


class Tracer:
    """Nested spans with self time, counters and Chrome trace events.

    Only the thread that created the tracer records; calls from other
    threads (the fabric worker's heartbeats) pass through untimed.

    Args:
        clock: Monotonic clock in seconds (tests pass a scripted one).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.owner = threading.get_ident()
        self.origin = clock()
        self.events: list[dict] = []
        self.reset()

    def reset(self) -> None:
        """Forget the totals of the previous round (events are kept)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.cell_s: dict[tuple, float] = defaultdict(float)
        self.cell_depth = 0
        self._stack: list[_Frame] = []

    def _charge(self, name: str, self_s: float, calls: int) -> None:
        self.self_s[name] += self_s
        self.calls[name] += calls

    @contextmanager
    def span(self, name: str, **args):
        """Time a block as span ``name``; yields its frame."""
        frame = _Frame(self.clock(), args)
        self._stack.append(frame)
        try:
            yield frame
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - frame.start
            self._charge(name, duration - frame.child_s, 1)
            self.inclusive_s[name] += duration
            children = {}
            for inner, (seconds, calls) in frame.inner.items():
                target = frame.rename.get(inner, inner)
                self._charge(target, seconds, calls)
                children[f"{target}_s"] = seconds
                children[f"{target}_calls"] = calls
            if self._stack:
                self._stack[-1].child_s += duration
            self.events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (frame.start - self.origin) * 1e6,
                "dur": duration * 1e6,
                "args": {**frame.args, **children}})

    def add(self, name: str, seconds: float) -> None:
        """Charge one call of ``name`` into the enclosing span."""
        if not self._stack:
            self._charge(name, seconds, 1)
            return
        frame = self._stack[-1]
        total = frame.inner.get(name)
        if total is None:
            frame.inner[name] = [seconds, 1]
        else:
            total[0] += seconds
            total[1] += 1
        frame.child_s += seconds

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the round since :meth:`reset`.

        Must be called after the :data:`ROOT_SPAN` span has closed; its
        duration is the traced round's wall time.
        """
        wall = self.inclusive_s[ROOT_SPAN]
        c = self.counters
        out: dict[str, float] = {}
        for name in SPANS:
            source = ROOT_SPAN if name == "exec.self" else name
            out[f"{name}.share"] = self.self_s[source] / wall
            out[f"{name}.calls"] = self.calls[source]
        out["traces.generated"] = c["traces.generated"]
        out["traces.hit_ratio"] = _ratio(c["traces.hits"], c["traces.gets"])
        out["resultcache.hit_ratio"] = _ratio(c["resultcache.hits"],
                                              self.calls["resultcache.get"])
        out["sim.requests"] = c["sim.requests"]
        out["sim.epochs"] = c["sim.epochs"]
        out["sim.vector_runs"] = c["sim.vector_runs"]
        out["sim.scalar_runs"] = c["sim.scalar_runs"]
        out["sim.req_per_s"] = _ratio(c["sim.requests"],
                                      self.inclusive_s["sim.run"])
        out["policy.bridge_frac"] = _ratio(self.calls["policy.bridge"],
                                           c["sim.vector_requests"])
        return out

    def chrome_trace(self) -> dict:
        """Every recorded span as Chrome trace-event JSON (Perfetto)."""
        return {"traceEvents": self.events, "displayTimeUnit": "ms"}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _spanned(tracer: Tracer, name: str, fn):
    """``fn`` timed as span ``name`` (other threads pass through)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if threading.get_ident() != tracer.owner:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _cell_spanned(tracer: Tracer, name: str, fn):
    """A ``(self, design, workload, ...)`` method timed as span ``name``.

    The outermost of these spans also charges its duration to the
    cell, so ``Tracer.cell_s`` holds each cell's lookup, run and
    persist time without double counting nested calls.
    """
    @functools.wraps(fn)
    def wrapper(self, design, workload, *args, **kwargs):
        outermost = tracer.cell_depth == 0
        tracer.cell_depth += 1
        start = tracer.clock()
        try:
            with tracer.span(name, cell=f"{design}/{workload}"):
                return fn(self, design, workload, *args, **kwargs)
        finally:
            tracer.cell_depth -= 1
            if outermost:
                tracer.cell_s[(str(design), workload)] += (tracer.clock()
                                                           - start)
    return wrapper


def _aggregated(tracer: Tracer, name: str, fn):
    """A per-request/per-epoch call charged into the enclosing span."""
    clock = tracer.clock
    add = tracer.add

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        add(name, clock() - start)
        return result
    return wrapper


def _sim_run(tracer: Tracer, fn):
    """``SimulationDriver.run`` as span sim.run, plus replay counters."""
    @functools.wraps(fn)
    def run(self, controller, trace, *args, **kwargs):
        with tracer.span("sim.run") as frame:
            result = fn(self, controller, trace, *args, **kwargs)
            requests = len(trace)
            vector = self.last_engine == "vector"
            frame.rename["policy.access"] = ("policy.bridge" if vector
                                             else "policy.scalar")
            frame.args.update(engine=self.last_engine, requests=requests,
                              controller=controller.name)
            counters = tracer.counters
            counters["sim.requests"] += requests
            counters["sim.epochs"] += (self.last_vector_epochs
                                       + self.last_scalar_epochs)
            if vector:
                counters["sim.vector_runs"] += 1
                counters["sim.vector_requests"] += requests
            else:
                counters["sim.scalar_runs"] += 1
        return result
    return run


def _build(tracer: Tracer, fn):
    """``registry.build`` whose controllers time their policy methods."""
    @functools.wraps(fn)
    def build(*args, **kwargs):
        controller = fn(*args, **kwargs)
        for attr, name in _POLICY_METHODS:
            method = getattr(controller, attr, None)
            if callable(method):
                setattr(controller, attr, _aggregated(tracer, name, method))
        return controller
    return build


def _acquire(tracer: Tracer, fn):
    """``TraceCache.get_or_generate`` as traces.acquire, plus counters."""
    @functools.wraps(fn)
    def get_or_generate(self, *args, **kwargs):
        before = (self.hits, self.generated)
        with tracer.span("traces.acquire"):
            trace = fn(self, *args, **kwargs)
        counters = tracer.counters
        counters["traces.gets"] += 1
        counters["traces.hits"] += self.hits - before[0]
        counters["traces.generated"] += self.generated - before[1]
        return trace
    return get_or_generate


def _result_get(tracer: Tracer, fn):
    """A result-cache ``get`` as resultcache.get, counting hits."""
    spanned = _spanned(tracer, "resultcache.get", fn)

    @functools.wraps(fn)
    def get(*args, **kwargs):
        record = spanned(*args, **kwargs)
        if record is not None:
            tracer.counters["resultcache.hits"] += 1
        return record
    return get


def _fabric_request(tracer: Tracer, fn):
    """``FabricClient.request`` grouped into one span per route."""
    spans = {(method, prefix): _spanned(tracer, name, fn)
             for method, prefix, name in FABRIC_ROUTES}

    @functools.wraps(fn)
    def request(self, method, path, *args, **kwargs):
        for (route_method, prefix), spanned in spans.items():
            if method == route_method and path.startswith(prefix):
                return spanned(self, method, path, *args, **kwargs)
        return fn(self, method, path, *args, **kwargs)
    return request


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the measured layers' public functions for one block."""
    from repro.analysis.campaign import Campaign
    from repro.analysis.experiments import ExperimentHarness
    from repro.analysis.resultcache import ResultCache
    from repro.designs import registry
    from repro.fabric.cachebackend import BackendResultCache
    from repro.fabric.worker import FabricClient
    from repro.observatory.store import RunStore
    from repro.resilience.checkpoint import CheckpointWriter
    from repro.sim.driver import SimulationDriver
    from repro.traces.tracecache import TraceCache

    def spanned(name):
        return lambda fn: _spanned(tracer, name, fn)

    def cell(name):
        return lambda fn: _cell_spanned(tracer, name, fn)

    patches = [
        (ExperimentHarness, "run_design", cell("exec.cell")),
        (ExperimentHarness, "cached_comparison", cell("harness.lookup")),
        (ExperimentHarness, "baseline", spanned("harness.baseline")),
        (TraceCache, "get_or_generate", lambda fn: _acquire(tracer, fn)),
        (ResultCache, "get", lambda fn: _result_get(tracer, fn)),
        (ResultCache, "put", spanned("resultcache.put")),
        (BackendResultCache, "get", lambda fn: _result_get(tracer, fn)),
        (BackendResultCache, "put", spanned("resultcache.put")),
        (SimulationDriver, "run", lambda fn: _sim_run(tracer, fn)),
        (Campaign, "persist_comparison", cell("campaign.persist")),
        (CheckpointWriter, "append", spanned("checkpoint.append")),
        (RunStore, "add_record", spanned("observatory.ingest")),
        (FabricClient, "request", lambda fn: _fabric_request(tracer, fn)),
    ]
    originals = []
    try:
        for owner, attr, wrap in patches:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        # The registry is an instance: shadow its bound method.
        registry.build = _build(tracer, registry.build)
        yield tracer
    finally:
        registry.__dict__.pop("build", None)
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
