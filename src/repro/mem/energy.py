"""Micron power-calculator style DRAM energy accounting.

The model converts the IDD/VDD parameters of a :class:`DeviceConfig` into
per-event energies (picojoules) using the standard Micron power-calc
formulae, then accumulates them against event counters maintained by the
device model:

* activate/precharge pair:  ``VDD * (IDD0*tRC - (IDD3N*tRAS + IDD2N*tRP))``
* read burst:               ``VDD * (IDD4R - IDD3N) * tBurst``
* write burst:              ``VDD * (IDD4W - IDD3N) * tBurst``
* refresh:                  ``VDD * (IDD5 - IDD3N) * tRFC``
* background (static):      ``VDD * IDD3N * elapsed`` (reported separately —
  the paper's Figure 8(d) plots *dynamic* energy only)

Currents are per-channel; burst energy therefore scales with the number of
bursts issued on each channel, which the device model counts directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .timing import DeviceConfig


@dataclass
class EnergyCounters:
    """Raw event counts fed to the energy model."""

    activations: int = 0
    read_bursts: int = 0
    write_bursts: int = 0
    refreshes: int = 0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy totals in picojoules."""

    activate_pj: float
    read_pj: float
    write_pj: float
    refresh_pj: float
    background_pj: float

    @property
    def dynamic_pj(self) -> float:
        """Dynamic energy: activates + bursts (refresh counted as static,
        matching the paper's treatment of refresh as runtime-proportional)."""
        return self.activate_pj + self.read_pj + self.write_pj

    @property
    def total_pj(self) -> float:
        return self.dynamic_pj + self.refresh_pj + self.background_pj


class EnergyModel:
    """Translates event counters into an :class:`EnergyBreakdown`."""

    def __init__(self, config: DeviceConfig) -> None:
        self._config = config
        t = config.timings
        c = config.currents
        # Datasheet currents are per die; a rank gangs devices_per_rank
        # dies in lock-step.  mA * V * ns == pJ.
        rank = config.geometry.devices_per_rank
        self._e_act = rank * c.vdd * max(
            0.0, c.idd0 * t.ns(t.trc)
            - (c.idd3n * t.ns(t.tras) + c.idd2n * t.ns(t.trp)))
        burst_ns = config.burst_ns(t.burst_length * config.geometry.bus_bytes)
        self._e_read = rank * c.vdd * max(0.0, c.idd4r - c.idd3n) * burst_ns
        self._e_write = rank * c.vdd * max(0.0, c.idd4w - c.idd3n) * burst_ns
        self._e_refresh = rank * c.vdd * max(
            0.0, c.idd5 - c.idd3n) * t.ns(t.trfc)

    @property
    def config(self) -> DeviceConfig:
        return self._config

    @property
    def activate_pj(self) -> float:
        """Energy of one activate/precharge pair, pJ."""
        return self._e_act

    @property
    def read_burst_pj(self) -> float:
        """Energy of one full-burst read column access, pJ."""
        return self._e_read

    @property
    def write_burst_pj(self) -> float:
        """Energy of one full-burst write column access, pJ."""
        return self._e_write

    def refresh_count(self, elapsed_ns: float) -> int:
        """Number of refresh commands implied by elapsed wall time."""
        t = self._config.timings
        return int(elapsed_ns / t.ns(t.trefi)) * self._config.geometry.channels

    def breakdown(self, counters: EnergyCounters,
                  elapsed_ns: float) -> EnergyBreakdown:
        """Compute the energy breakdown for a finished simulation."""
        c = self._config.currents
        refreshes = counters.refreshes or self.refresh_count(elapsed_ns)
        background = (c.vdd * c.idd3n * elapsed_ns
                      * self._config.geometry.channels
                      * self._config.geometry.devices_per_rank)
        return EnergyBreakdown(
            activate_pj=counters.activations * self._e_act,
            read_pj=counters.read_bursts * self._e_read,
            write_pj=counters.write_bursts * self._e_write,
            refresh_pj=refreshes * self._e_refresh,
            background_pj=background,
        )
