"""Bumblebee (DAC 2023) reproduction.

A pure-Python, trace-driven simulator for die-stacked + off-chip
heterogeneous memory systems, reproducing *"Bumblebee: A MemCache Design
for Die-stacked and Off-chip Heterogeneous Memory Systems"* (Hua et al.,
DAC 2023) end to end: the Bumblebee HMMC, five published baselines, the
Table I memory substrate, synthetic Table II workloads, and a harness for
every table and figure in the paper's evaluation.

Quick start::

    from repro import ExperimentHarness

    harness = ExperimentHarness()
    print(harness.run_design("Bumblebee", "mcf").norm_ipc)
"""

# Baselines first: repro.core and repro.baselines import each other.
from .baselines import FIGURE7_VARIANTS, FIGURE8_DESIGNS
from .analysis import ExperimentConfig, ExperimentHarness
from .core import BumblebeeConfig, BumblebeeController
from .designs import DesignSpec, registry
from .mem import MemoryDevice, ddr4_3200_config, hbm2_config
from .sim import CpuModel, MemoryRequest, SimulationDriver
from .traces import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    SPEC2017,
    SystemScale,
    workload_trace,
)

__version__ = "1.6.0"

__all__ = [
    "ExperimentConfig",
    "ExperimentHarness",
    "BumblebeeConfig",
    "BumblebeeController",
    "DesignSpec",
    "registry",
    "FIGURE7_VARIANTS",
    "FIGURE8_DESIGNS",
    "MemoryDevice",
    "hbm2_config",
    "ddr4_3200_config",
    "CpuModel",
    "MemoryRequest",
    "SimulationDriver",
    "SPEC2017",
    "SystemScale",
    "DEFAULT_SCALE",
    "PAPER_SCALE",
    "workload_trace",
    "__version__",
]
