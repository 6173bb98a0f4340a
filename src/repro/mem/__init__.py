"""Memory-device substrate: timing, energy, and traffic models.

This package replaces DRAMSim2 in the paper's toolchain with a semi-analytic
model: per-bank row-buffer state machines, per-channel data-bus
serialisation, Micron-style IDD energy accounting, and byte-exact traffic
counters, all kept in the flat lists of one :class:`TimingState` per
controller.  See DESIGN.md §1 for the substitution argument.
"""

from .address import AddressMapper, DecodedAddress
from .device import MemoryDevice, TimingState, TrafficStats
from .energy import EnergyBreakdown, EnergyCounters, EnergyModel
from .timing import (
    GIB,
    KIB,
    MIB,
    DeviceConfig,
    DeviceCurrents,
    DeviceGeometry,
    DeviceTimings,
    ddr4_3200_config,
    ddr5_4800_config,
    hbm2_config,
    hbm3_config,
)

__all__ = [
    "AddressMapper",
    "DecodedAddress",
    "MemoryDevice",
    "TimingState",
    "TrafficStats",
    "EnergyBreakdown",
    "EnergyCounters",
    "EnergyModel",
    "DeviceConfig",
    "DeviceCurrents",
    "DeviceGeometry",
    "DeviceTimings",
    "hbm2_config",
    "hbm3_config",
    "ddr4_3200_config",
    "ddr5_4800_config",
    "KIB",
    "MIB",
    "GIB",
]
