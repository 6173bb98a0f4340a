"""Simulation engine: requests, statistics, CPU model, and driver."""

from .cpu import CpuModel
from .driver import ENGINES, VECTOR_EPOCH_REQUESTS, SimResult, \
    SimulationDriver
from .fullstack import RawAccess, raw_access_stream, run_full_stack
from .request import (CACHE_LINE_BYTES, AccessResult, MemoryRequest,
                      MutableRequest, ServicedBy)
from .stats import Histogram, StatGroup, geomean

from .vectorized import EpochPlan, fallback_reason, replay_epoch

__all__ = [
    "CpuModel",
    "ENGINES",
    "VECTOR_EPOCH_REQUESTS",
    "SimResult",
    "SimulationDriver",
    "EpochPlan",
    "fallback_reason",
    "replay_epoch",
    "RawAccess",
    "raw_access_stream",
    "run_full_stack",
    "AccessResult",
    "MemoryRequest",
    "MutableRequest",
    "ServicedBy",
    "CACHE_LINE_BYTES",
    "Histogram",
    "StatGroup",
    "geomean",
]
