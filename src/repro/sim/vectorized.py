"""Vectorized epoch-at-a-time replay of packed traces.

The scalar driver loop (:meth:`~repro.sim.driver.SimulationDriver.run`)
pays Python bytecode dispatch per simulated miss: a controller method
call, a device decode, a bank FSM step, a channel bus step, and a few
dataclass allocations.  No in-tree policy reads device timing, though:
a request's placement and the movement it triggers follow from the
addresses and the policy state alone (tags, remapping tables, hotness
counters, mode bits), and only *when* the devices finish depends on the
timing model.  ``replay_epoch`` splits an epoch of requests along that
line into two passes.

Pass 1 (:meth:`batch_epoch_plan`) decides every request of the epoch in
scalar order against the controller's live state, commits all of its
feedback, and returns an :class:`EpochPlan`: each request's serving
device and local address, its metadata latency, and one flat *op
table* of the extra device operations the epoch issues, a row
``(owner, kind, lane, addr, nbytes, is_write)`` per operation (serial
probes, bulk movement before and after the demand).  A design may
decide requests however it likes, as long as the decisions and the
table are the scalar loop's:

* No-HBM and Ideal send the whole epoch to one device at
  ``addr % capacity`` and script nothing;
* the Figure-8 caches forward-replay their own state machine and
  append rows directly (AlloyCache builds its table with numpy);
* MemPod runs every request through its own ``access``, and Bumblebee
  classifies runs of resident hits with numpy and runs every other
  request through ``access``, both with the devices bound to a
  :class:`ScriptRecorder`, which appends the rows.

The walk then times the table, with everything outside the sequential
float recurrence done as numpy array operations over the epoch:

* bulk decode of the packed ``uint64`` records into ``addr`` /
  ``is_write`` / ``icount`` columns (the same bit layout as
  :mod:`repro.traces.packed`);
* one validation and decode of the op table: bulk rows split into
  their per-channel shares (``MemoryDevice.bulk_transfer``'s chunking
  as array arithmetic), probes through the demand decode;
* the interleaved channel/bank/row decode of
  :class:`~repro.mem.address.AddressMapper` as integer array arithmetic
  over every demand and probe, yielding the global channel/bank ids of
  the controller's shared :class:`~repro.mem.device.TimingState`;
* row-buffer hit/closed/conflict classification of every bank access
  (probes and demands, in table order) via a stable sort by bank id:
  each access sees the row its bank's *previous* access opened, with
  the open-row state carried across epoch boundaries;
* traffic, energy-counter, statistic, and histogram accumulation
  (``np.bincount`` totals added straight into the state's lists,
  :meth:`~repro.sim.stats.Histogram.add_many` for the histogram).

What cannot be vectorized bit-identically is the recurrence that
couples request *i*'s latency to request *i+1*'s arrival time
(``now += icount/...; arrival = now + fault; done = f(bank, bus,
backlog); now += latency/mlp``).  One pure-Python loop runs the
bank/bus/backlog arithmetic of ``MemoryDevice.access`` and
``bulk_transfer`` over pre-converted lists, **directly on the shared
timing-state lists**, operation for operation in the scalar order: a
request's rows are a contiguous run of each decoded column, so the
walk steps a cursor per column instead of looking a request up.  It
keeps no timing state of its own and never calls back into the
controller, so every float and every counter lands bit-identically.
The equivalence is enforced by the differential sanitizer
(``repro sanitize``: scalar, checked and epoch legs) and the
property/identity tests.

Controllers opt in by implementing ``batch_epoch_plan`` (plus the
optional ``epoch_fallback_reason`` veto); everything else falls back to
the scalar loop automatically (see ``SimulationDriver.run(engine=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Any

try:
    import numpy as np
except ImportError:      # pragma: no cover - numpy is a declared dep
    np = None            # type: ignore[assignment]

from ..traces.packed import ICOUNT_MAX, LINE_SHIFT, PackedTrace
from .driver import LATENCY_BOUNDS, VECTOR_EPOCH_REQUESTS
from .request import CACHE_LINE_BYTES, MutableRequest
from .stats import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..baselines.base import HybridMemoryController
    from ..mem.device import MemoryDevice, TimingState
    from .driver import SimResult, SimulationDriver

__all__ = ["EpochPlan", "ScriptRecorder", "epoch_capable",
           "fallback_reason", "decode_epoch", "replay_epoch",
           "PRE_BULK", "PROBE", "POST_BULK", "OP_WIDTH",
           "VECTOR_EPOCH_REQUESTS"]

#: Op-table row kinds: bulk movement charged before the demand, a
#: serial probe on the critical path, bulk movement after the demand.
PRE_BULK, PROBE, POST_BULK = 0, 1, 2
#: Ints per op-table row: ``(owner, kind, lane, addr, nbytes, is_write)``.
OP_WIDTH = 6


@dataclass
class EpochPlan:
    """Pass 1's decisions and op table for one epoch.

    Returned by :meth:`batch_epoch_plan`, after pass 1 has applied every
    request's policy feedback.  Controllers may attach further
    attributes (the dataclass is deliberately not slotted).

    Attributes:
        use_hbm: Bool array — which device serves each request's demand.
        local_addr: Device-local byte address of each demand (already
            wrapped into the serving device), int64.
        meta_const: Constant metadata latency (ns) added to every
            request's device access (designs with in-HBM metadata);
            overridden per request by ``meta``.
        meta: Optional per-request metadata latency (ns) (variable MAL
            designs).
        ops: Optional op table: every device operation of the epoch
            besides the demands, one row ``(owner, kind, lane, addr,
            nbytes, is_write)`` each, as a flat int sequence
            (:data:`OP_WIDTH` ints a row; pass 1 appends rows with
            ``emit = ops.extend``) or an ``(n, OP_WIDTH)`` int array.
            ``owner`` is the issuing request's index in the epoch and
            ``kind`` one of :data:`PRE_BULK` (bulk movement issued
            before the demand — an eviction that frees a slot, a flush
            — charged at the request's arrival like
            ``MemoryDevice.bulk_transfer``), :data:`PROBE` (a serial
            demand-style access — a tag probe — run after the
            request's pre-demand movement and before its demand; its
            duration extends the critical path and metadata time,
            exactly like the scalar ``probe_ns`` terms) and
            :data:`POST_BULK` (fills, migrations and writebacks issued
            after the demand, charged at the request's arrival).  Rows
            are ordered by ``(owner, kind)`` and keep the scalar call
            order within each group.
        policy_requests: How many of the epoch's requests pass 1 ran
            through the controller's ``access`` (0 for designs that
            forward-replay their own state machine).

    ``lane`` is 0 for the stacked device, 1 for off-chip DRAM.  Pass 1
    bumps the design's own statistics; the engine counts every
    request's demand (``demand_reads``/``demand_writes``,
    ``hbm_demand_hits``, ``page_faults``).
    """

    use_hbm: Any
    local_addr: Any
    meta_const: float = 0.0
    meta: Any = None
    ops: Any = None
    policy_requests: int = 0


class ScriptRecorder:
    """Device calls of a controller's ``access``, recorded as op rows.

    Inside a ``with`` block the controller's devices are bound to the
    recorder: ``MemoryDevice.access`` records the running request's
    demand and ``bulk_transfer`` appends a :data:`PRE_BULK` row (before
    the demand) or a :data:`POST_BULK` row (after it) to the epoch's op
    table, instead of running the timing model (both return their
    ``now_ns`` argument).  So pass 1 can run a request's policy in
    scalar order and leave its timing to the walk.  Each request
    :meth:`run` sends through ``access`` must issue exactly one demand
    access; :meth:`fill` writes the demands and the table into the
    epoch's plan.

    The engine counts every request's demand, so on leaving the block
    the recorder takes back the ``demand_reads``/``demand_writes``/
    ``hbm_demand_hits`` bumps that ``access`` made for the requests it
    ran.
    """

    def __init__(self, controller: "HybridMemoryController") -> None:
        self._access = controller.access
        self._stats = controller.stats
        self._devices = _lanes(controller)[1]
        self._request = MutableRequest()
        #: The recorded op table, flat.
        self._ops: list[int] = []
        #: ``[owner, kind]`` of the rows the running request appends;
        #: its demand access turns the kind from PRE_BULK to POST_BULK.
        self._cursor = [0, PRE_BULK]
        self._index: list[int] = []
        #: ``(lane, local_addr, is_write)`` of each demand access, in
        #: call order.
        self._demands: list[tuple] = []

    def _bind(self, lane: int, dev: "MemoryDevice") -> None:
        emit = self._ops.extend
        demand = self._demands.append
        cursor = self._cursor

        def access(addr, nbytes, is_write, now_ns):
            demand((lane, addr, is_write))
            cursor[1] = POST_BULK
            return now_ns

        def bulk_transfer(addr, nbytes, is_write, now_ns):
            emit((cursor[0], cursor[1], lane, addr, nbytes, is_write))
            return now_ns

        dev.access = access
        dev.bulk_transfer = bulk_transfer

    def __enter__(self) -> "ScriptRecorder":
        for lane, dev in self._devices:
            self._bind(lane, dev)
        return self

    def __exit__(self, *exc) -> None:
        for _, dev in self._devices:
            del dev.access, dev.bulk_transfer
        demands = self._demands
        writes = sum(demand[2] for demand in demands)
        bump = self._stats.bump
        for key, count in (
                ("demand_reads", len(demands) - writes),
                ("demand_writes", writes),
                ("hbm_demand_hits", sum(demand[0] == 0
                                        for demand in demands))):
            if count:
                bump(key, -count)

    def run(self, index: int, addr: int, is_write: bool) -> None:
        """Run request ``index`` of the epoch through ``access``,
        recording its demand and the movement it issues around it."""
        request = self._request
        request.addr = addr
        request.is_write = is_write
        cursor = self._cursor
        cursor[0] = index
        cursor[1] = PRE_BULK
        self._access(request, 0.0)
        self._index.append(index)

    def fill(self, plan: EpochPlan) -> None:
        """Write the recorded demands and op table into ``plan``.

        Raises:
            ValueError: when the requests run did not each issue exactly
                one demand access.
        """
        if len(self._demands) != len(self._index):
            raise ValueError(
                f"{len(self._index)} recorded requests issued "
                f"{len(self._demands)} demand accesses")
        if self._index:
            lane, local, _ = zip(*self._demands)
            index = np.array(self._index, dtype=np.int64)
            plan.use_hbm[index] = np.array(lane) == 0
            plan.local_addr[index] = local
        plan.ops = self._ops
        plan.policy_requests = len(self._index)


def epoch_capable(controller: "HybridMemoryController") -> bool:
    """Whether ``controller`` implements the two-pass epoch protocol."""
    return np is not None and callable(
        getattr(controller, "batch_epoch_plan", None))


def fallback_reason(controller: "HybridMemoryController") -> str | None:
    """Why the epoch engine cannot replay ``controller``, or None.

    The per-run reason a :class:`~repro.sim.driver.SimulationDriver`
    records (``last_fallback_reason``) combines this with run-level
    causes (forced scalar engine, empty trace, active invariant
    checker).
    """
    if np is None:
        return "numpy-unavailable"
    if callable(getattr(controller, "batch_epoch_plan", None)):
        hook = getattr(controller, "epoch_fallback_reason", None)
        return hook() if callable(hook) else None
    return "design-not-batch-capable"


def _require_numpy() -> None:
    if np is None:  # pragma: no cover - numpy is a declared dep
        raise RuntimeError("the vectorized engine requires numpy")


def decode_epoch(trace: PackedTrace, start: int = 0,
                 stop: int | None = None):
    """Bulk-decode ``trace[start:stop]`` into column arrays.

    Returns:
        ``(addr, is_write, icount)`` — int64, bool, and int64 arrays,
        element-for-element equal to
        :func:`~repro.traces.packed.decode_value` on each record.
    """
    _require_numpy()
    values = np.frombuffer(trace.data, dtype=np.uint64)[start:stop]
    return _decode_values(values)


def _decode_values(values):
    """The packed bit layout (LINE_SHIFT/ICOUNT_BITS) as array ops."""
    line = (values >> np.uint64(LINE_SHIFT)).astype(np.int64)
    addr = line * CACHE_LINE_BYTES
    is_write = (values & np.uint64(1)).astype(bool)
    icount = ((values >> np.uint64(1))
              & np.uint64(ICOUNT_MAX)).astype(np.int64)
    return addr, is_write, icount


def _lanes(controller: "HybridMemoryController"
           ) -> tuple["TimingState", list[tuple[int, "MemoryDevice"]]]:
    """The controller's shared timing state and its ``(code, device)``
    lanes: code 0 is the stacked device, 1 off-chip DRAM."""
    lanes = [(1, controller.dram)]
    if controller.hbm is not None:
        lanes.insert(0, (0, controller.hbm))
    return controller.dram.state, lanes


def _decode_lanes(lanes, local, use_hbm, select, who: str, name: str):
    """Interleaved address decode (``MemoryDevice.access`` as array math).

    Returns global ``(chan_gid, bank_gid, row)`` arrays for the requests
    in ``select`` (all when None); the rest stay 0.

    Raises:
        ValueError: for a local address outside the serving device.
    """
    m = local.shape[0]
    chan_gid = np.zeros(m, dtype=np.int64)
    bank_gid = np.zeros(m, dtype=np.int64)
    row = np.zeros(m, dtype=np.int64)
    for code, dev in lanes:
        mask = use_hbm if code == 0 else ~use_hbm
        if select is not None:
            mask = select & mask
        la = local[mask]
        if la.size == 0:
            continue
        if int(la.min()) < 0 or int(la.max()) >= dev.capacity_bytes:
            raise ValueError(
                f"{who} of {name!r} produced a local address outside the "
                f"{dev.name} capacity")
        chunk = la // dev.interleave
        ch = chunk % dev.nchannels
        loc = ((chunk // dev.nchannels) * dev.interleave
               + la % dev.interleave)
        row_index = loc // dev.row_bytes
        banks = dev.banks_per_channel
        chan_gid[mask] = ch + dev.chan_base
        bank_gid[mask] = dev.bank_base + ch * banks + row_index % banks
        row[mask] = row_index // banks
    return chan_gid, bank_gid, row


def _lookup_tables(lanes):
    """Per-lane latency/burst tables and per-channel line-burst counts."""
    nch = sum(dev.nchannels for _, dev in lanes)
    lat_table = np.zeros((2, 3), dtype=np.float64)
    burst_table = np.zeros(2, dtype=np.float64)
    bursts_by_chan = np.zeros(nch, dtype=np.int64)
    for code, dev in lanes:
        lat_table[code] = (dev.row_hit_ns, dev.row_closed_ns,
                           dev.row_conflict_ns)
        burst_table[code] = dev.demand_burst_ns(CACHE_LINE_BYTES)
        bursts_by_chan[dev.chan_slice] = dev.bursts(CACHE_LINE_BYTES)
    return lat_table, burst_table, bursts_by_chan


#: The device constants the op-table decode reads, per lane.
_LANE_FIELDS = ("capacity_bytes", "interleave", "nchannels", "row_bytes",
                "chan_base", "bus_bytes", "burst_bytes", "tck_half_ns")


def _lane_params(lanes) -> dict:
    """Each of :data:`_LANE_FIELDS` as a two-entry array indexed by
    lane code; a lane the design lacks stays 0 (capacity 0, so the op
    table check rejects any row on it)."""
    params = {name: np.zeros(2, dtype=np.float64 if name == "tck_half_ns"
                             else np.int64) for name in _LANE_FIELDS}
    for code, dev in lanes:
        for name, column in params.items():
            column[code] = getattr(dev, name)
    return params


def _op_table(ops, m: int, params: dict, name: str):
    """A plan's op table as an ``(n, OP_WIDTH)`` int64 array, checked
    once per epoch.

    Raises:
        ValueError: naming the design, for a table that is not whole
            rows, an owner outside the epoch, a kind other than 0, 1 or
            2, rows out of ``(owner, kind)`` order, a lane the design
            lacks, a negative byte count, or an address outside its
            device wherever the op touches it (a probe, or a move of
            at least one byte) — the range ``MemoryDevice`` enforces.
    """
    table = (np.fromiter(ops, dtype=np.int64, count=len(ops))
             if type(ops) is list else np.asarray(ops, dtype=np.int64))
    problem = None
    if table.size % OP_WIDTH:
        problem = f"{table.size} ints, not rows of {OP_WIDTH}"
    else:
        table = table.reshape(-1, OP_WIDTH)
        owner, kind, lane, addr, nbytes, _ = table.T
        capacity = params["capacity_bytes"]
        if int(owner.min()) < 0 or int(owner.max()) >= m:
            problem = f"an op owner outside the {m}-request epoch"
        elif int(kind.min()) < PRE_BULK or int(kind.max()) > POST_BULK:
            problem = "an op kind other than 0, 1 or 2"
        elif bool((np.diff(owner * 3 + kind) < 0).any()):
            problem = "op rows out of (owner, kind) order"
        elif int(lane.min()) < 0 or int(lane.max()) > 1 or not bool(
                capacity[lane].all()):
            problem = "an op on a device the design lacks"
        elif int(nbytes.min()) < 0:
            problem = "an op with a negative byte count"
        else:
            live = (nbytes > 0) | (kind == PROBE)
            where = addr[live]
            if bool(((where < 0) | (where >= capacity[lane[live]])).any()):
                problem = "an op address outside its device"
    if problem is not None:
        raise ValueError(f"batch_epoch_plan of {name!r} scripted "
                         f"{problem}")
    return table


def _bulk_shares(bulk, params):
    """Every bulk row's per-channel shares, in row order.

    The chunking of ``MemoryDevice.bulk_transfer`` as array arithmetic:
    a row's byte count splits into equal shares over ``min(channels,
    interleave chunks)`` consecutive channels from the address's home
    channel, and every share charges the row count of a whole share.
    A zero-byte row has no share.

    Returns:
        ``(owner, post, burst_ns, counts)`` arrays, one entry per
        share, where ``counts`` is ``(chan, is_write, nbytes, bursts,
        rows)`` in :func:`_add_counts`'s order.
    """
    owner, kind, lane, addr, nbytes, is_write = bulk.T
    interleave = params["interleave"][lane]
    nch = params["nchannels"][lane]
    used = np.minimum(nch, np.maximum(
        (nbytes + interleave - 1) // interleave, 1))
    share = (nbytes + used - 1) // used
    count = -(-nbytes // np.maximum(share, 1))
    rep = np.repeat(np.arange(owner.shape[0]), count)
    k = np.arange(rep.shape[0]) - np.repeat(np.cumsum(count) - count,
                                            count)
    share_r = share[rep]
    part = np.minimum(share_r, nbytes[rep] - k * share_r)
    lane_r = lane[rep]
    home = (addr // interleave) % nch
    chan = params["chan_base"][lane_r] + (home[rep] + k) % nch[rep]
    burst_ns, bursts = _bursts(params, lane_r, part)
    rows = np.maximum(share // params["row_bytes"][lane], 1)[rep]
    return (owner[rep], kind[rep] == POST_BULK, burst_ns,
            (chan, is_write[rep] != 0, part, bursts, rows))


def _ends(owner, m: int):
    """Per request, the end of its run in a column ordered by owner."""
    return np.cumsum(np.bincount(owner, minlength=m))


def _add(target: list, counts) -> None:
    """``target += counts`` elementwise, in place."""
    target[:] = (np.asarray(target, dtype=np.int64)
                 + counts.astype(np.int64)).tolist()


def _add_counts(state: "TimingState", chan, is_write, nbytes, bursts,
                activations, bank, outcome) -> None:
    """Add the traffic, burst and activation counts of a batch of
    channel operations, and the row-buffer outcome counts of its bank
    accesses, into ``state``."""
    nch = len(state.bus_free)
    nbank = len(state.open_row)
    for sel, byte_counts, burst_counts in (
            (~is_write, state.read_bytes, state.read_bursts),
            (is_write, state.write_bytes, state.write_bursts)):
        _add(byte_counts, np.bincount(chan[sel], nbytes[sel], nch))
        _add(burst_counts, np.bincount(chan[sel], bursts[sel], nch))
    _add(state.activations, np.bincount(chan, activations, nch))
    for kind, counts in enumerate((state.hits, state.closed,
                                   state.conflicts)):
        _add(counts, np.bincount(bank[outcome == kind], minlength=nbank))


def _row_outcomes(bank, row, open_row):
    """Row-buffer outcome (0 hit, 1 closed, 2 conflict) of each access:
    it sees the row its bank's previous access opened, a bank's first
    access its ``open_row`` entry (int64, updated in place)."""
    m = bank.shape[0]
    outcome = np.empty(m, dtype=np.int64)
    if not m:
        return outcome
    order = np.argsort(bank, kind="stable")
    bank_sorted = bank[order]
    row_sorted = row[order]
    same = bank_sorted[1:] == bank_sorted[:-1]
    prev_row = np.empty(m, dtype=np.int64)
    prev_row[0] = open_row[bank_sorted[0]]
    prev_row[1:] = np.where(same, row_sorted[:-1],
                            open_row[bank_sorted[1:]])
    outcome[order] = np.where(row_sorted == prev_row, 0,
                              np.where(prev_row < 0, 1, 2))
    last = np.append(~same, True)
    open_row[bank_sorted[last]] = row_sorted[last]
    return outcome


def _bursts(params, lane, nbytes):
    """``MemoryDevice.demand_burst_ns`` and ``bursts`` of each transfer
    of ``nbytes`` on lane ``lane``, as arrays."""
    bus = params["bus_bytes"][lane]
    burst_bytes = params["burst_bytes"][lane]
    return (np.maximum((nbytes + bus - 1) // bus, 1)
            * params["tck_half_ns"][lane],
            np.maximum((nbytes + burst_bytes - 1) // burst_bytes, 1))


def _segments(n: int, max_requests: int | None,
              warmup: int) -> list[tuple[int, int, bool]]:
    """``(start, stop, measured)`` spans replicating the scalar loop.

    The scalar loop checks the request cap *before* the warm-up reset,
    so a cap at or below the warm-up length means the reset never fires
    and the whole (capped) run is measured from t=0.
    """
    if warmup and n > warmup and (max_requests is None
                                  or max_requests > warmup):
        measured = (n - warmup if max_requests is None
                    else min(n - warmup, max_requests))
        return [(0, warmup, False), (warmup, warmup + measured, True)]
    count = n if max_requests is None else min(n, max_requests)
    return [(0, count, True)]



def _plain_walk(columns, t: float, running: float, mlp: float,
                bank_busy: list, bus_free: list, backlog_at: list,
                lat_append) -> tuple[float, float]:
    """The walk of an epoch whose plan scripts nothing, with no backlog
    queued anywhere: the general walk with its script, metadata and
    backlog-drain steps elided (each adds an exact 0.0 or is skipped).
    Returns the advanced ``(t, running)``."""
    for comp_ns, f, c, b, lat, burst_ns in zip(*columns):
        t += comp_ns
        arrival = t + f
        if arrival > backlog_at[c]:
            backlog_at[c] = arrival
        busy = bank_busy[b]
        data = (arrival if arrival > busy else busy) + lat
        bank_busy[b] = data
        free = bus_free[c]
        done = (data if data > free else free) + burst_ns
        bus_free[c] = done
        latency = (done - arrival) + f
        running += latency
        t += latency / mlp
        lat_append(latency)
    return t, running


def replay_epoch(driver: "SimulationDriver",
                 controller: "HybridMemoryController",
                 trace: PackedTrace,
                 workload: str = "unnamed",
                 max_requests: int | None = None,
                 warmup: int = 0,
                 epoch_requests: int | None = None
                 ) -> tuple["SimResult", int, int]:
    """Replay ``trace`` through the two-pass epoch engine.

    Pass 1 (:meth:`batch_epoch_plan`) decides each epoch and returns its
    op table; the walk below times the table through an inlined copy of
    the scalar device arithmetic **on the shared timing-state lists**.
    Every float operation happens in the same order as the scalar loop,
    so the result is bit-identical.

    Returns:
        ``(result, epochs, policy_requests)`` — a
        :class:`~repro.sim.driver.SimResult` bit-identical to the scalar
        loop's, the number of epochs processed, and the number of
        requests pass 1 ran through ``controller.access``.

    Raises:
        ValueError: on a non-positive epoch size or a malformed
            :class:`EpochPlan` (wrong length, out-of-range local
            address, HBM use on a design without HBM, an op table that
            fails :func:`_op_table`'s checks).
    """
    _require_numpy()
    if epoch_requests is None:
        # A controller whose pass 1 classifies from a snapshot (rather
        # than forward-replaying every request) trades work for epoch
        # length and may advise a shorter epoch; an explicit
        # ``vector_epoch`` always wins, and the choice is
        # performance-only — results are bit-identical at any size
        # (pinned by tests).
        epoch_requests = getattr(controller, "preferred_epoch_requests",
                                 None)
    epoch = int(epoch_requests or VECTOR_EPOCH_REQUESTS)
    if epoch <= 0:
        raise ValueError(f"epoch_requests must be positive, got {epoch}")

    cpu = driver.cpu
    retire_rate = cpu.ipc_peak * cpu.cores
    freq_ghz = cpu.freq_ghz
    mlp = cpu.mlp

    # ---- the shared device timing state and lookup tables ---------------
    state, lanes = _lanes(controller)
    lat_table, burst_table, bursts_by_chan = _lookup_tables(lanes)
    params = _lane_params(lanes)
    chunk_by_chan = [dev.chunk_ns for _, dev in lanes
                     for _ in range(dev.nchannels)]
    open_row = state.open_row
    bank_busy = state.bank_busy
    bus_free = state.bus_free
    backlog = state.backlog
    backlog_at = state.backlog_at
    chan_busy = state.chan_busy

    visible = controller.os_visible_bytes()
    controller._os_visible_cache = visible
    fault_penalty_ns = float(controller.PAGE_FAULT_NS)
    plan_fn = controller.batch_epoch_plan
    name = controller.name
    no_ops = repeat(0)

    values_all = np.frombuffer(trace.data, dtype=np.uint64)

    # ---- measured-window accumulators -----------------------------------
    histogram = Histogram(bounds=list(LATENCY_BOUNDS))
    instructions = 0
    measured_requests = 0
    hbm_hits = 0
    faults = 0
    demand_reads = 0
    demand_writes = 0
    total_latency = 0.0
    total_metadata = 0.0
    policy_requests = 0

    now = 0.0
    measure_start = 0.0
    epochs = 0
    segments = _segments(len(trace), max_requests, warmup)
    for seg_start, seg_stop, measured in segments:
        if measured and len(segments) == 2:
            # The warm-up boundary: the scalar loop's reset (devices
            # back to power-on FSM state, statistics zeroed); placement
            # and metadata state persists, exactly as in the scalar run.
            controller.reset_measurements()
            measure_start = now

        for start in range(seg_start, seg_stop, epoch):
            stop = min(start + epoch, seg_stop)
            epochs += 1
            values = values_all[start:stop]
            m = values.shape[0]
            addr, is_write, icount = _decode_values(values)

            comp = icount / retire_rate / freq_ghz
            fault_mask = addr >= visible
            fault_arr = np.where(fault_mask, fault_penalty_ns, 0.0)

            # ---- pass 1: the controller decides the epoch ---------------
            plan = plan_fn(addr, is_write)
            policy_requests += plan.policy_requests
            use_hbm = np.asarray(plan.use_hbm, dtype=bool)
            local = np.asarray(plan.local_addr, dtype=np.int64)
            if use_hbm.shape[0] != m or local.shape[0] != m:
                raise ValueError(
                    f"batch_epoch_plan returned {use_hbm.shape[0]}/"
                    f"{local.shape[0]} entries for a {m}-request epoch")
            if controller.hbm is None and use_hbm.any():
                raise ValueError(
                    f"batch_epoch_plan of {name!r} routed "
                    f"requests to HBM but the design has no stacked "
                    f"device")
            meta_l = repeat(float(plan.meta_const))
            if plan.meta is not None:
                meta_l = (plan.meta if type(plan.meta) is list
                          else np.asarray(plan.meta,
                                          dtype=np.float64).tolist())
                if len(meta_l) != m:
                    raise ValueError(
                        f"batch_epoch_plan returned {len(meta_l)} "
                        f"metadata latencies for a {m}-request epoch")

            # ---- the op table, decoded once -----------------------------
            # Each request's rows are a contiguous run of the probe and
            # share columns; the walk steps a cursor through each, up to
            # the request's end in ``*_end``.
            ops = plan.ops
            table = (_op_table(ops, m, params, name)
                     if ops is not None and len(ops) else None)
            probe_ops = shares = None
            e_end = p_end = b_end = no_ops
            if table is not None:
                is_probe = table[:, 1] == PROBE
                if is_probe.any():
                    probe_ops = table[is_probe]
                    p_end = _ends(probe_ops[:, 0], m)
                bulk = table[~is_probe]
                if bulk.shape[0]:
                    s_owner, s_post, s_burst, shares = _bulk_shares(
                        bulk, params)
                    b_end = _ends(s_owner, m)
                    e_end = (b_end - np.bincount(s_owner[s_post],
                                                 minlength=m)).tolist()
                    b_end = b_end.tolist()
                    s_chan = shares[0].tolist()
                    s_burst = s_burst.tolist()

            chan_gid, bank_gid, row = _decode_lanes(
                lanes, local, use_hbm, None, "batch_epoch_plan", name)
            device_idx = np.where(use_hbm, 0, 1)

            # Row-buffer outcomes of every bank access (a request's
            # probes, then its demand) are classified up front: bulk
            # movement opens no rows.
            seq_bank, seq_row, d_pos = bank_gid, row, slice(None)
            if probe_ops is not None:
                p_req, _, p_code, p_addr, p_bytes, p_write = probe_ops.T
                p_chan, p_bank, p_row = _decode_lanes(
                    lanes, p_addr, p_code == 0, None,
                    "batch_epoch_plan", name)
                p_burst, p_bursts = _bursts(params, p_code, p_bytes)
                # Request i's demand follows the probes of requests up
                # to i; a probe follows the demands before its own.
                d_pos = np.arange(m) + p_end
                p_end = p_end.tolist()
                p_pos = np.arange(p_req.shape[0]) + p_req
                seq_bank = np.empty(m + p_req.shape[0], dtype=np.int64)
                seq_row = np.empty_like(seq_bank)
                seq_bank[d_pos], seq_bank[p_pos] = bank_gid, p_bank
                seq_row[d_pos], seq_row[p_pos] = row, p_row
            open_rows = np.asarray(open_row, dtype=np.int64)
            seq_out = _row_outcomes(seq_bank, seq_row, open_rows)
            open_row[:] = open_rows.tolist()
            outcomes = seq_out[d_pos]
            if probe_ops is not None:
                p_out = seq_out[p_pos]
                pc_l = p_chan.tolist()
                pb_l = p_bank.tolist()
                plat_l = lat_table[p_code, p_out].tolist()
                pburst_l = p_burst.tolist()

            # ---- the walk: the timing of the table, in order ------------
            # Plain lists: scalar indexing is much cheaper on lists than
            # on numpy arrays.
            latencies: list[float] = []
            lat_append = latencies.append
            running = total_latency
            running_meta = total_metadata
            t = now
            columns = (comp.tolist(), fault_arr.tolist(),
                       chan_gid.tolist(), bank_gid.tolist(),
                       lat_table[device_idx, outcomes].tolist(),
                       burst_table[device_idx].tolist())
            if (table is None and not plan.meta_const and plan.meta is None
                    and not any(backlog)):
                # No table, no metadata time and nothing queued: each
                # request is its bare demand, and the drain timestamps
                # are the only backlog state that moves.
                t, running = _plain_walk(columns, t, running, mlp,
                                         bank_busy, bus_free, backlog_at,
                                         lat_append)
            else:
                j = pj = 0
                for (comp_ns, f, c, b, lat, burst_ns, mc, e_stop, p_stop,
                     b_stop) in zip(*columns, meta_l, e_end, p_end, b_end):
                    t += comp_ns
                    arrival = t + f
                    # Bulk shares queue as ``bulk_transfer`` charges them
                    # (their counts land with the table's).
                    while j < e_stop:
                        c3 = s_chan[j]
                        at = backlog_at[c3]
                        if arrival > at:
                            drained = backlog[c3] - (arrival - at)
                            queued = ((drained if drained > 0.0 else 0.0)
                                      + s_burst[j])
                            backlog_at[c3] = arrival
                        else:
                            queued = backlog[c3] + s_burst[j]
                        backlog[c3] = queued
                        finish = arrival + queued
                        if finish > chan_busy[c3]:
                            chan_busy[c3] = finish
                        j += 1
                    probed = pj < p_stop
                    while pj < p_stop:
                        # Serial probes run at the running cursor and extend
                        # the critical path, exactly like the scalar
                        # probe_ns composition.
                        c2 = pc_l[pj]
                        cur = arrival + mc
                        if cur > backlog_at[c2]:
                            drained = backlog[c2] - (cur - backlog_at[c2])
                            backlog[c2] = drained if drained > 0.0 else 0.0
                            backlog_at[c2] = cur
                        b2 = pb_l[pj]
                        busy = bank_busy[b2]
                        data = (cur if cur > busy else busy) + plat_l[pj]
                        bank_busy[b2] = data
                        pending = backlog[c2]
                        chunk_ns = chunk_by_chan[c2]
                        free = bus_free[c2]
                        done = ((data if data > free else free)
                                + (pending if pending < chunk_ns
                                   else chunk_ns) + pburst_l[pj])
                        bus_free[c2] = done
                        mc += done - cur
                        pj += 1
                    t0 = arrival + mc
                    # An empty backlog drains to itself and adds an exact
                    # +0.0 to the bus step, so both are skipped.
                    pending = backlog[c]
                    at = backlog_at[c]
                    if t0 > at:
                        backlog_at[c] = t0
                        if pending:
                            pending -= t0 - at
                            if pending < 0.0:
                                pending = 0.0
                            backlog[c] = pending
                    busy = bank_busy[b]
                    data = (t0 if t0 > busy else busy) + lat
                    bank_busy[b] = data
                    free = bus_free[c]
                    done = data if data > free else free
                    if pending:
                        chunk_ns = chunk_by_chan[c]
                        done += pending if pending < chunk_ns else chunk_ns
                    done += burst_ns
                    bus_free[c] = done
                    if probed:
                        # Probe composition: probe_ns + demand latency
                        # measured from the shifted start (AccessResult
                        # addition order in Alloy/Unison).
                        latency = (mc + (done - t0)) + f
                    else:
                        # _demand_* composes latency from the caller's
                        # now_ns even though the access starts at now_ns +
                        # metadata_ns.
                        latency = (done - arrival) + f
                    running += latency
                    running_meta += mc
                    t += latency / mlp
                    lat_append(latency)
                    while j < b_stop:
                        c3 = s_chan[j]
                        at = backlog_at[c3]
                        if arrival > at:
                            drained = backlog[c3] - (arrival - at)
                            queued = ((drained if drained > 0.0 else 0.0)
                                      + s_burst[j])
                            backlog_at[c3] = arrival
                        else:
                            queued = backlog[c3] + s_burst[j]
                        backlog[c3] = queued
                        finish = arrival + queued
                        if finish > chan_busy[c3]:
                            chan_busy[c3] = finish
                        j += 1
            del columns         # the lists are dead: keep peak RSS low
            now = t

            if not measured:
                continue

            # ---- bulk accumulation (measured window only) --------------
            total_latency = running
            total_metadata = running_meta
            histogram.add_many(latencies)
            instructions += int(icount.sum())
            measured_requests += m
            hbm_hits += int(use_hbm.sum())
            faults += int(fault_mask.sum())
            writes = int(is_write.sum())
            demand_writes += writes
            demand_reads += m - writes
            # Every device operation's counts only add: the demands',
            # the probes' and the bulk shares' land in one batch.
            counts = [(chan_gid, is_write, np.full(m, CACHE_LINE_BYTES),
                       bursts_by_chan[chan_gid], outcomes != 0)]
            bank_out = [(bank_gid, outcomes)]
            if probe_ops is not None:
                counts.append((p_chan, p_write != 0, p_bytes, p_bursts,
                               p_out != 0))
                bank_out.append((p_bank, p_out))
            if shares is not None:
                counts.append(shares)
            _add_counts(state, *(np.concatenate(column) for column in
                                 (*zip(*counts), *zip(*bank_out))))

    # ---- the deferred measured state -------------------------------------
    # Demand completions only advanced bus_free; the busy horizon is
    # their max-watermark.  The stats bumps are conditional: the scalar
    # loop only creates a counter key when it actually increments, and
    # controller_stats equality is exact.  Everything deferred here is
    # add-only or a max-watermark, so deferred accumulation commutes
    # exactly.
    chan_busy[:] = map(max, chan_busy, bus_free)
    bump = controller.stats.bump
    if demand_reads:
        bump("demand_reads", demand_reads)
    if demand_writes:
        bump("demand_writes", demand_writes)
    if hbm_hits:
        bump("hbm_demand_hits", hbm_hits)
    if faults:
        bump("page_faults", faults)

    controller.finish(now)
    elapsed = now - measure_start
    result = driver._build_result(
        controller, workload, instructions, measured_requests, elapsed,
        total_latency, total_metadata, hbm_hits, histogram)
    return result, epochs, policy_requests
