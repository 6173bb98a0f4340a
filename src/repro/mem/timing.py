"""Device timing, current, and geometry parameter sets.

The numbers for the two built-in presets come straight from Table I of the
Bumblebee paper (DAC 2023): an 8-channel HBM2 stack and a 2-channel off-chip
DDR4-3200 module.  Timings are expressed in device clock cycles and converted
to nanoseconds through ``tck_ns``; currents follow the Micron datasheet IDD
naming convention and feed the :mod:`repro.mem.energy` model.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DeviceTimings:
    """DRAM timing parameters, in device clock cycles unless noted.

    Attributes:
        tck_ns: Device clock period in nanoseconds.
        tcas: CAS (column access) latency.
        trcd: RAS-to-CAS delay (row activation time).
        trp: Row precharge time.
        tras: Minimum row-active time.
        trc: Row cycle time (activate-to-activate, same bank).
        trfc: Refresh cycle time.
        trefi: Average refresh interval.
        burst_length: Number of beats per column access.
    """

    tck_ns: float
    tcas: int
    trcd: int
    trp: int
    tras: int
    trc: int
    trfc: int
    trefi: int
    burst_length: int = 8

    def ns(self, cycles: float) -> float:
        """Convert a cycle count into nanoseconds."""
        return cycles * self.tck_ns

    @property
    def row_hit_ns(self) -> float:
        """Column access only: the row is already open."""
        return self.ns(self.tcas)

    @property
    def row_closed_ns(self) -> float:
        """Activate then column access: the bank is precharged."""
        return self.ns(self.trcd + self.tcas)

    @property
    def row_conflict_ns(self) -> float:
        """Precharge, activate, column access: another row is open."""
        return self.ns(self.trp + self.trcd + self.tcas)


@dataclass(frozen=True)
class DeviceCurrents:
    """IDD current parameters (mA) and supply voltage (V).

    Names follow the JEDEC/Micron convention used in Table I of the paper:
    IDD0 (activate-precharge), IDD2P/N (precharge power-down / standby),
    IDD3P/N (active power-down / standby), IDD4W/R (write / read burst),
    IDD5 (refresh) and IDD6 (self refresh).
    """

    vdd: float
    idd0: float
    idd2p: float
    idd2n: float
    idd3p: float
    idd3n: float
    idd4w: float
    idd4r: float
    idd5: float
    idd6: float


@dataclass(frozen=True)
class DeviceGeometry:
    """Physical organisation of one memory device.

    Attributes:
        capacity_bytes: Total device capacity.
        channels: Number of independent channels.
        bus_bits: Data-bus width of one channel, in bits.
        banks_per_channel: Banks per channel.
        row_bytes: Size of one DRAM row (page) in bytes.
        interleave_bytes: Channel-interleaving granularity of the physical
            address map (512B for the paper's HBM2 configuration).
        devices_per_rank: DRAM dies driven in lock-step per channel
            access.  HBM channels are one die slice (1); a 64-bit DDR4
            rank gangs eight x8 chips, so datasheet per-chip IDD currents
            multiply by eight — this is what makes off-chip DRAM cost
            ~3x more energy per bit than the stacked memory.
    """

    capacity_bytes: int
    channels: int
    bus_bits: int
    banks_per_channel: int
    row_bytes: int
    interleave_bytes: int
    devices_per_rank: int = 1

    @property
    def bus_bytes(self) -> int:
        """Channel data-bus width in bytes."""
        return self.bus_bits // 8


@dataclass(frozen=True)
class DeviceConfig:
    """A complete description of one memory device."""

    name: str
    timings: DeviceTimings
    currents: DeviceCurrents
    geometry: DeviceGeometry
    is_stacked: bool = False

    @property
    def peak_bandwidth_gbs(self) -> float:
        """Aggregate peak bandwidth in GB/s (double data rate assumed)."""
        beats_per_ns = 2.0 / self.timings.tck_ns
        return (self.geometry.bus_bytes * self.geometry.channels
                * beats_per_ns)

    def burst_ns(self, nbytes: int) -> float:
        """Bus occupancy of transferring ``nbytes`` on one channel."""
        beats = max(1, (nbytes + self.geometry.bus_bytes - 1)
                    // self.geometry.bus_bytes)
        return (beats / 2.0) * self.timings.tck_ns


KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def hbm2_config(capacity_bytes: int = 1 * GIB) -> DeviceConfig:
    """The Table I HBM2 stack: 8 x 128-bit channels, 512B interleaved."""
    return DeviceConfig(
        name="HBM2",
        timings=DeviceTimings(
            tck_ns=1.0, tcas=7, trcd=7, trp=7,
            tras=17, trc=24, trfc=160, trefi=3900,
        ),
        currents=DeviceCurrents(
            vdd=1.2, idd0=65, idd2p=28, idd2n=40, idd3p=40, idd3n=55,
            idd4w=500, idd4r=390, idd5=250, idd6=31,
        ),
        geometry=DeviceGeometry(
            capacity_bytes=capacity_bytes, channels=8, bus_bits=128,
            banks_per_channel=8, row_bytes=2 * KIB, interleave_bytes=512,
        ),
        is_stacked=True,
    )


def ddr4_3200_config(capacity_bytes: int = 10 * GIB) -> DeviceConfig:
    """The Table I off-chip DDR4-3200 module: 2 x 64-bit channels."""
    return DeviceConfig(
        name="DDR4-3200",
        timings=DeviceTimings(
            tck_ns=0.625, tcas=22, trcd=22, trp=22,
            tras=52, trc=74, trfc=560, trefi=12480,
        ),
        currents=DeviceCurrents(
            vdd=1.2, idd0=52, idd2p=25, idd2n=37, idd3p=38, idd3n=47,
            idd4w=130, idd4r=143, idd5=250, idd6=30,
        ),
        geometry=DeviceGeometry(
            capacity_bytes=capacity_bytes, channels=2, bus_bits=64,
            banks_per_channel=8, row_bytes=8 * KIB, interleave_bytes=128,
            devices_per_rank=8,
        ),
        is_stacked=False,
    )


def hbm3_config(capacity_bytes: int = 2 * GIB) -> DeviceConfig:
    """A forward-looking HBM3-class stack (beyond the paper).

    16 channels at 6.4 Gb/s/pin roughly doubles both the bandwidth and
    the typical capacity of the Table I HBM2 part; timings tighten
    mildly (tCK 0.3125ns at 3.2GHz I/O clock, similar absolute latency).
    Used by the capacity/bandwidth sensitivity study.
    """
    return DeviceConfig(
        name="HBM3",
        timings=DeviceTimings(
            tck_ns=0.3125, tcas=22, trcd=22, trp=22,
            tras=54, trc=76, trfc=512, trefi=12480,
        ),
        currents=DeviceCurrents(
            vdd=1.1, idd0=70, idd2p=30, idd2n=42, idd3p=42, idd3n=58,
            idd4w=520, idd4r=410, idd5=260, idd6=33,
        ),
        geometry=DeviceGeometry(
            capacity_bytes=capacity_bytes, channels=16, bus_bits=64,
            banks_per_channel=16, row_bytes=1 * KIB, interleave_bytes=256,
        ),
        is_stacked=True,
    )


def ddr5_4800_config(capacity_bytes: int = 16 * GIB) -> DeviceConfig:
    """A DDR5-4800 off-chip module (beyond the paper).

    Two 32-bit sub-channels per DIMM channel; modelled as 4 channels of
    32 bits.  Per-chip currents gang over four x8 chips per sub-channel.
    """
    return DeviceConfig(
        name="DDR5-4800",
        timings=DeviceTimings(
            tck_ns=0.4167, tcas=40, trcd=40, trp=40,
            tras=76, trc=116, trfc=984, trefi=9360,
        ),
        currents=DeviceCurrents(
            vdd=1.1, idd0=60, idd2p=28, idd2n=40, idd3p=42, idd3n=50,
            idd4w=145, idd4r=160, idd5=280, idd6=34,
        ),
        geometry=DeviceGeometry(
            capacity_bytes=capacity_bytes, channels=4, bus_bits=32,
            banks_per_channel=16, row_bytes=8 * KIB, interleave_bytes=128,
            devices_per_rank=4,
        ),
        is_stacked=False,
    )
