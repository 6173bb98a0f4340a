"""Host-time benchmark of the repro campaign stack.

Run it with ``python -m perf.run`` from the repository root; compare two
sets of runs with ``python -m perf.compare``.  ``perf/README.md`` says
what each workload is for and how to read the numbers.

Only the standard library is imported here: ``perf.run`` must be able
to refuse a directory without ``src/repro`` before importing anything
from it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: The checkout the benchmark measures (the parent of ``perf/``).
ROOT = Path(__file__).resolve().parent.parent

#: Where the ``repro`` package is imported from.
SRC = ROOT / "src"

#: Scratch state of running benchmarks (campaign files, caches, fleet
#: directories).  Inside the checkout: the benchmark writes nowhere else.
STATE_ROOT = ROOT / ".perf_state"


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json`` of the checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``, as ``statistics.quantiles(values, n=4)``.

    A single value is its own quartiles.
    """
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
