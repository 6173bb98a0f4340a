"""Multi-channel memory device: the unit controllers talk to.

A :class:`MemoryDevice` owns the channels of one physical memory (the HBM
stack or the off-chip DDR4 module), decodes device-local addresses through
the interleaved :class:`AddressMapper`, and aggregates traffic and energy
statistics.  Two access styles are offered:

* :meth:`access` — a demand access on the critical path; returns the
  precise completion time from the bank FSM and bus queue.
* :meth:`bulk_transfer` — asynchronous data movement (migration, eviction,
  fill); consumes bandwidth and counts traffic but the caller does not stall.

Timing state lives in flat lists
--------------------------------

Every bank and channel of a device is a slot in the flat lists of a
:class:`TimingState`.  A controller's two devices share one state, HBM
first, so a channel or bank has one global id across both memories — the
numbering the replay kernels in :mod:`repro.sim.vectorized` index with.

Each bank runs an open-page row-buffer FSM: it remembers its open row
(-1 when precharged) and the time it becomes free again, and classifies
every access as a row hit, a closed-bank activate, or a row conflict.
The channel's shared data bus serialises burst transfers, and traffic is
split into two priority classes, matching how real memory controllers
schedule migration engines:

* **Demand** accesses serialise against each other on the bus and pay
  precise FSM latency.
* **Movement** traffic is *lower priority*: it accumulates into a
  bandwidth backlog that drains through otherwise-idle bus time.  A demand
  access arriving while movement is in flight waits for at most one
  movement chunk (the burst that cannot be preempted), so heavy movement
  degrades demand latency smoothly instead of convoying requests behind
  multi-microsecond page copies — while still consuming real bandwidth,
  delaying *later* movement and keeping the device busy for energy
  purposes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .address import AddressMapper
from .energy import EnergyBreakdown, EnergyCounters, EnergyModel
from .timing import DeviceConfig

#: Movement is preemptible at this granularity: a demand access waits for
#: at most one in-flight chunk of a bulk transfer.
MOVEMENT_CHUNK_BYTES = 512

#: Per-bank lists of a :class:`TimingState` and their power-on values.
_BANK_FIELDS = {"open_row": -1, "bank_busy": 0.0, "hits": 0, "closed": 0,
                "conflicts": 0}

#: Per-channel lists and their power-on values.  ``chan_busy`` is the
#: latest completion of any demand or movement transfer on the channel.
_CHANNEL_FIELDS = {"bus_free": 0.0, "backlog": 0.0, "backlog_at": 0.0,
                   "read_bytes": 0, "write_bytes": 0, "activations": 0,
                   "read_bursts": 0, "write_bursts": 0, "chan_busy": 0.0}


class TimingState:
    """Flat DRAM timing state of one or more devices.

    Per bank: ``open_row`` (-1 when precharged), ``bank_busy`` and the
    ``hits``/``closed``/``conflicts`` outcome counts.  Per channel:
    ``bus_free``, the movement ``backlog`` and its ``backlog_at``
    timestamp, ``read_bytes``/``write_bytes``, ``activations``,
    ``read_bursts``/``write_bursts`` and the ``chan_busy`` horizon.
    Lists are only ever mutated in place, so a kernel may hold them in
    local variables across a warm-up reset.
    """

    __slots__ = tuple(_BANK_FIELDS) + tuple(_CHANNEL_FIELDS)

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, [])

    def add(self, channels: int, banks: int) -> tuple[slice, slice]:
        """Append power-on slots; returns their channel and bank slices."""
        first_channel = len(self.bus_free)
        first_bank = len(self.open_row)
        chans = slice(first_channel, first_channel + channels)
        bank_slots = slice(first_bank, first_bank + banks)
        self.clear(chans, bank_slots)
        return chans, bank_slots

    def clear(self, chans: slice, banks: slice) -> None:
        """Return the given slots to their power-on values."""
        for name, value in _BANK_FIELDS.items():
            getattr(self, name)[banks] = [value] * (banks.stop - banks.start)
        for name, value in _CHANNEL_FIELDS.items():
            getattr(self, name)[chans] = [value] * (chans.stop - chans.start)


@dataclass(frozen=True)
class TrafficStats:
    """Byte traffic through a device."""

    read_bytes: int
    write_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes


class MemoryDevice:
    """One physical memory (HBM stack or DDR4 module).

    Args:
        config: The device description.
        state: The :class:`TimingState` to append this device's channels
            and banks to; a fresh one when None.
    """

    def __init__(self, config: DeviceConfig,
                 state: TimingState | None = None) -> None:
        self._config = config
        self._mapper = AddressMapper(config.geometry)
        self._energy_model = EnergyModel(config)
        g = config.geometry
        t = config.timings
        self.state = state if state is not None else TimingState()
        self.chan_slice, self.bank_slice = self.state.add(
            g.channels, g.channels * g.banks_per_channel)
        self.chan_base = self.chan_slice.start
        self.bank_base = self.bank_slice.start
        # Constants of the demand path, hoisted: the timing properties
        # re-derive them from cycle counts on every call, and access()
        # is the simulator's innermost function.
        self._capacity = g.capacity_bytes
        self.interleave = g.interleave_bytes
        self.nchannels = g.channels
        self.row_bytes = g.row_bytes
        self.banks_per_channel = g.banks_per_channel
        self.row_hit_ns = t.row_hit_ns
        self.row_closed_ns = t.row_closed_ns
        self.row_conflict_ns = t.row_conflict_ns
        self.bus_bytes = g.bus_bytes
        self.burst_bytes = t.burst_length * g.bus_bytes
        self.tck_half_ns = t.tck_ns / 2.0
        self.chunk_ns = config.burst_ns(MOVEMENT_CHUNK_BYTES)

    @property
    def config(self) -> DeviceConfig:
        return self._config

    @property
    def name(self) -> str:
        return self._config.name

    @property
    def capacity_bytes(self) -> int:
        return self._config.geometry.capacity_bytes

    @property
    def mapper(self) -> AddressMapper:
        return self._mapper

    def demand_burst_ns(self, nbytes: int) -> float:
        """Bus occupancy of a demand transfer of ``nbytes``."""
        beats = (nbytes + self.bus_bytes - 1) // self.bus_bytes
        return (beats if beats > 1 else 1) * self.tck_half_ns

    def bursts(self, nbytes: int) -> int:
        """Column bursts (energy events) a transfer of ``nbytes`` costs."""
        bursts = (nbytes + self.burst_bytes - 1) // self.burst_bytes
        return bursts if bursts > 1 else 1

    def access(self, addr: int, nbytes: int, is_write: bool,
               now_ns: float) -> float:
        """Demand access at device-local byte address ``addr``.

        Runs the bank FSM, the backlog drain, at most one movement chunk
        of interference and the bus step, and returns the completion
        time (ns).
        """
        # Inlined AddressMapper.decode (same arithmetic).
        if addr < 0 or addr >= self._capacity:
            self._mapper.decode(addr)  # raises the canonical range error
        interleave = self.interleave
        nchannels = self.nchannels
        chunk = addr // interleave
        local = (chunk // nchannels) * interleave + addr % interleave
        row_index = local // self.row_bytes
        banks = self.banks_per_channel
        ch = chunk % nchannels
        c = self.chan_base + ch
        b = self.bank_base + ch * banks + row_index % banks
        row = row_index // banks
        s = self.state
        backlog = s.backlog
        backlog_at = s.backlog_at
        if now_ns > backlog_at[c]:
            drained = backlog[c] - (now_ns - backlog_at[c])
            backlog[c] = drained if drained > 0.0 else 0.0
            backlog_at[c] = now_ns
        # Bank FSM: the bank serialises with itself, and the access
        # opens its row unconditionally.
        bank_busy = s.bank_busy
        busy = bank_busy[b]
        issue = now_ns if now_ns > busy else busy
        open_row = s.open_row
        orow = open_row[b]
        if orow == row:
            data = issue + self.row_hit_ns
            s.hits[b] += 1
        else:
            if orow < 0:
                data = issue + self.row_closed_ns
                s.closed[b] += 1
            else:
                data = issue + self.row_conflict_ns
                s.conflicts[b] += 1
            s.activations[c] += 1
        open_row[b] = row
        bank_busy[b] = data
        # Bus step.
        pending = backlog[c]
        chunk_ns = self.chunk_ns
        interference = pending if pending < chunk_ns else chunk_ns
        bus_free = s.bus_free
        free = bus_free[c]
        done = ((data if data > free else free) + interference) \
            + self.demand_burst_ns(nbytes)
        bus_free[c] = done
        if is_write:
            s.write_bursts[c] += self.bursts(nbytes)
            s.write_bytes[c] += nbytes
        else:
            s.read_bursts[c] += self.bursts(nbytes)
            s.read_bytes[c] += nbytes
        if done > s.chan_busy[c]:
            s.chan_busy[c] = done
        return done

    def bulk_transfer(self, addr: int, nbytes: int, is_write: bool,
                      now_ns: float) -> float:
        """Asynchronous streaming transfer of ``nbytes`` starting at ``addr``.

        The transfer is striped across all channels (matching the
        interleaved address map), each channel moving an equal share into
        its movement backlog.  Each share charges the activations of the
        rows it crosses.

        Returns:
            Completion time (ns) of the slowest participating channel.
        """
        if nbytes <= 0:
            return now_ns
        # Only as many channels participate as the transfer has
        # interleave chunks — a 64B fill touches one channel and one row,
        # not the whole stack.
        chunks = max(1, (nbytes + self.interleave - 1) // self.interleave)
        channels_used = min(self.nchannels, chunks)
        share = (nbytes + channels_used - 1) // channels_used
        rows = max(1, share // self.row_bytes)
        done = now_ns
        remaining = nbytes
        start_channel = self._mapper.decode(addr).channel
        s = self.state
        for i in range(channels_used):
            if remaining <= 0:
                break
            part = min(share, remaining)
            c = self.chan_base + (start_channel + i) % self.nchannels
            if now_ns > s.backlog_at[c]:
                s.backlog[c] = max(
                    0.0, s.backlog[c] - (now_ns - s.backlog_at[c]))
                s.backlog_at[c] = now_ns
            s.backlog[c] += self._config.burst_ns(part)
            finish = now_ns + s.backlog[c]
            s.activations[c] += rows
            if is_write:
                s.write_bursts[c] += self.bursts(part)
                s.write_bytes[c] += part
            else:
                s.read_bursts[c] += self.bursts(part)
                s.read_bytes[c] += part
            s.chan_busy[c] = max(s.chan_busy[c], finish)
            done = max(done, finish)
            remaining -= part
        return done

    def traffic(self) -> TrafficStats:
        s = self.state
        return TrafficStats(read_bytes=sum(s.read_bytes[self.chan_slice]),
                            write_bytes=sum(s.write_bytes[self.chan_slice]))

    def energy(self, elapsed_ns: float) -> EnergyBreakdown:
        """Aggregate energy across channels over ``elapsed_ns`` of runtime."""
        s = self.state
        chans = self.chan_slice
        merged = EnergyCounters(
            activations=sum(s.activations[chans]),
            read_bursts=sum(s.read_bursts[chans]),
            write_bursts=sum(s.write_bursts[chans]),
            refreshes=self._energy_model.refresh_count(elapsed_ns))
        return self._energy_model.breakdown(merged, elapsed_ns)

    def row_buffer_stats(self) -> dict[str, int]:
        """Aggregate row-buffer outcome counts across every bank."""
        s = self.state
        banks = self.bank_slice
        return {"hits": sum(s.hits[banks]), "closed": sum(s.closed[banks]),
                "conflicts": sum(s.conflicts[banks])}

    def check_consistent(self) -> list[str]:
        """Bookkeeping invariants of every bank and channel; empty when
        healthy.

        Only :meth:`access` opens a row or advances a bank's busy
        horizon, and the first access after power-on/reset always
        activates (the row buffer starts precharged) — so an open row or
        a non-zero busy window without any recorded outcome, or row hits
        without a prior activate, mean the counters and the FSM have
        diverged.  Per channel, the busy horizon is raised to every
        demand completion that also advances ``bus_free``, so it can
        never trail it; burst counts are per-operation ceilings of the
        byte counts, so ``bursts * burst_bytes`` bounds the bytes from
        above; and activations cover at least every closed/conflict bank
        outcome (bulk transfers add more).
        """
        s = self.state
        violations: list[str] = []
        for ch in range(self.nchannels):
            c = self.chan_base + ch
            prefix = f"{self.name}: channel {ch}"
            activates_needed = 0
            for bank in range(self.banks_per_channel):
                b = self.bank_base + ch * self.banks_per_channel + bank
                hits, closed, conflicts = s.hits[b], s.closed[b], \
                    s.conflicts[b]
                row, busy = s.open_row[b], s.bank_busy[b]
                where = f"{prefix} bank {bank}: "
                if hits < 0 or closed < 0 or conflicts < 0:
                    violations.append(
                        where + f"negative outcome counters (hits={hits}, "
                        f"closed={closed}, conflicts={conflicts})")
                outcomes = hits + closed + conflicts
                if row < -1:
                    violations.append(where + f"negative open row {row}")
                if busy < 0.0:
                    violations.append(
                        where + f"negative busy horizon {busy}ns")
                if row >= 0 and outcomes == 0:
                    violations.append(
                        where + f"row {row} open with no recorded access")
                if busy > 0.0 and outcomes == 0:
                    violations.append(
                        where + f"busy until {busy}ns with no recorded "
                        f"access")
                if hits > 0 and closed + conflicts == 0:
                    violations.append(
                        where + f"{hits} row hits but no activate ever "
                        f"recorded")
                activates_needed += closed + conflicts
            prefix += ": "
            if min(s.read_bytes[c], s.write_bytes[c], s.activations[c],
                   s.read_bursts[c], s.write_bursts[c]) < 0:
                violations.append(prefix + "negative traffic/energy counter")
            if s.backlog[c] < 0.0:
                violations.append(
                    prefix + f"negative movement backlog {s.backlog[c]}ns")
            if s.chan_busy[c] < s.bus_free[c]:
                violations.append(
                    prefix + f"busy horizon {s.chan_busy[c]}ns trails bus "
                    f"horizon {s.bus_free[c]}ns")
            for kind in ("read", "write"):
                nbytes = getattr(s, f"{kind}_bytes")[c]
                bursts = getattr(s, f"{kind}_bursts")[c]
                if bursts * self.burst_bytes < nbytes:
                    violations.append(
                        prefix + f"{nbytes} {kind} bytes exceed {bursts} "
                        f"bursts of {self.burst_bytes}B")
            if s.activations[c] < activates_needed:
                violations.append(
                    prefix + f"{s.activations[c]} activations below the "
                    f"{activates_needed} closed/conflict bank outcomes")
        traffic = self.traffic()
        if traffic.read_bytes < 0 or traffic.write_bytes < 0:
            violations.append(f"{self.name}: negative aggregate traffic")
        return violations

    def reset(self) -> None:
        """Return every bank and channel to power-on, clearing statistics."""
        self.state.clear(self.chan_slice, self.bank_slice)
