"""Trace statistics: the summary the harness and the CLI print.

:func:`summarise` reduces a :class:`~repro.traces.packed.PackedTrace`
to its distinct footprint, write fraction and implied MPKI in one pass
over the decoded integer stream (no request objects are built).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.request import CACHE_LINE_BYTES
from .packed import PackedTrace


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate statistics of a materialised trace."""

    requests: int
    instructions: int
    distinct_lines: int
    write_fraction: float
    max_addr: int

    @property
    def footprint_bytes(self) -> int:
        """Touched footprint at cache-line granularity."""
        return self.distinct_lines * CACHE_LINE_BYTES

    @property
    def mpki(self) -> float:
        """Misses per kilo-instruction implied by the icount gaps."""
        if self.instructions == 0:
            return 0.0
        return self.requests * 1000.0 / self.instructions


def summarise(trace: PackedTrace) -> TraceSummary:
    """Single-pass summary of a packed trace."""
    lines: set[int] = set()
    add_line = lines.add
    requests = 0
    instructions = 0
    writes = 0
    max_addr = 0
    for addr, is_write, icount in trace.iter_decoded():
        requests += 1
        instructions += icount
        if is_write:
            writes += 1
        add_line(addr // CACHE_LINE_BYTES)
        if addr > max_addr:
            max_addr = addr
    return TraceSummary(
        requests=requests,
        instructions=instructions,
        distinct_lines=len(lines),
        write_fraction=writes / requests if requests else 0.0,
        max_addr=max_addr,
    )
