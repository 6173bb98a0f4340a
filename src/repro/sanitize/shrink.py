"""Delta-debugging trace reduction for the differential harness.

When a randomized trace exposes a divergence between the scalar,
checked and epoch replays or an invariant violation, replaying the
whole stream is a poor reproducer.  :func:`shrink_trace` applies ddmin (Zeller & Hildebrandt) over the
packed request stream: repeatedly drop chunks, keep any reduction that
still fails, and refine the granularity until no single request can be
removed — a 1-minimal failing subsequence.

The predicate receives a :class:`~repro.traces.packed.PackedTrace` and
returns True when the failure still reproduces.  Predicates here re-run
whole simulations, so the budget is capped both in predicate
invocations (``max_tests``) and wall-clock time (``max_seconds``) —
pathological traces whose predicate is slow can otherwise spin far
past any useful reduction.  On exhaustion of either budget the best
reduction found so far is returned (still a valid reproducer, just not
guaranteed 1-minimal).
"""

from __future__ import annotations

import time
from array import array
from typing import Callable

from ..traces.packed import PackedTrace


def shrink_trace(trace: PackedTrace,
                 still_fails: Callable[[PackedTrace], bool],
                 max_tests: int = 512,
                 max_seconds: "float | None" = None) -> PackedTrace:
    """Reduce ``trace`` to a small subsequence on which the failure
    persists.

    Args:
        trace: The failing stream.
        still_fails: Predicate re-running the failing scenario; True
            when the candidate subsequence still exhibits the failure.
        max_tests: Upper bound on predicate invocations.
        max_seconds: Wall-clock budget; None disables the time bound.
            Checked between predicate invocations, so one in-flight
            invocation may overrun it.

    Returns:
        The smallest failing subsequence found (1-minimal when the
        budgets sufficed; ``trace`` itself if it no longer fails, e.g.
        a non-deterministic failure).
    """
    values = list(trace.data)
    tests = 0
    deadline = (time.monotonic() + max_seconds
                if max_seconds is not None else None)

    def budget_left() -> bool:
        return tests < max_tests and (
            deadline is None or time.monotonic() < deadline)

    def fails(subset: list[int]) -> bool:
        nonlocal tests
        tests += 1
        return still_fails(PackedTrace(array("Q", subset)))

    if not values or not fails(values):
        return trace
    granularity = 2
    while len(values) >= 2 and budget_left():
        chunk = max(1, len(values) // granularity)
        reduced = False
        start = 0
        while start < len(values) and budget_left():
            candidate = values[:start] + values[start + chunk:]
            if candidate and fails(candidate):
                values = candidate
                # Complement removal keeps the granularity coarse
                # (standard ddmin: retry at n-1 splits, floor 2).
                granularity = max(granularity - 1, 2)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if chunk <= 1:
                break
            granularity = min(len(values), granularity * 2)
    return PackedTrace(array("Q", values))
