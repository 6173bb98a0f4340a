"""Full-stack mode: raw core accesses through the SRAM hierarchy.

The standard harness drives controllers with synthetic *LLC-miss* streams
(DESIGN.md §1).  Full-stack mode instead starts from raw core-side
accesses, filters them through the Table I L1/L2/LLC hierarchy, and feeds
the surviving misses (plus dirty writebacks) to the memory controller —
useful for validating that the miss-stream abstraction holds, and for
users who bring their own instruction-level traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, TYPE_CHECKING

from ..cache.hierarchy import CacheHierarchy, HierarchyConfig
from ..traces.packed import PackedTrace
from ..traces.synthetic import SyntheticSpec, SyntheticTraceGenerator
from .cpu import CpuModel
from .driver import SimResult, SimulationDriver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..baselines.base import HybridMemoryController


@dataclass(frozen=True)
class RawAccess:
    """One core-side memory access (pre-cache-hierarchy)."""

    addr: int
    is_write: bool = False
    icount: int = 10


def raw_access_stream(spec: SyntheticSpec, n: int,
                      seed: int = 1234,
                      icount_per_access: int = 10
                      ) -> Iterator[RawAccess]:
    """Synthesise raw accesses with core-level re-reference behaviour.

    The miss-stream generator's locality knobs apply unchanged; raw
    streams simply run far denser (an access every ~10 instructions
    instead of one miss per ``1000/MPKI``), letting the SRAM hierarchy
    absorb the short-range reuse.
    """
    generator = SyntheticTraceGenerator(spec, seed=seed)
    for index, request in enumerate(generator):
        if index >= n:
            return
        yield RawAccess(addr=request.addr, is_write=request.is_write,
                        icount=icount_per_access)


def run_full_stack(controller: "HybridMemoryController",
                   accesses: Iterable[RawAccess],
                   hierarchy: CacheHierarchy | None = None,
                   cpu: CpuModel | None = None,
                   workload: str = "fullstack") -> tuple[SimResult,
                                                         CacheHierarchy]:
    """Drive raw accesses through SRAM caches into a memory controller.

    Returns:
        The memory-side :class:`SimResult` and the (now populated)
        hierarchy, whose ``llc``/``l2``/``l1`` expose SRAM hit statistics
        and whose :meth:`~repro.cache.hierarchy.CacheHierarchy.mpki`
        reports the achieved miss rate.
    """
    hierarchy = hierarchy or CacheHierarchy(HierarchyConfig())
    triples = ((a.addr, a.is_write, a.icount) for a in accesses)
    miss_stream = PackedTrace.from_requests(
        hierarchy.llc_miss_stream(triples))
    driver = SimulationDriver(cpu or CpuModel())
    result = driver.run(controller, miss_stream, workload=workload)
    return result, hierarchy
