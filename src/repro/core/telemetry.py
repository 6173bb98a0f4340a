"""Controller introspection: per-set state snapshots over time.

The HMMC makes hundreds of distributed per-set decisions; telemetry
aggregates them into the handful of distributions a human actually reads:
the cHBM:mHBM census, the SL and Rh distributions across sets, hot-table
temperature, and (when sampled repeatedly) their trajectories.  Used by
the adaptivity examples and available to any study via
:func:`snapshot` / :class:`TelemetryRecorder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .policy import spatial_locality

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .hmmc import BumblebeeController


@dataclass(frozen=True)
class ControllerSnapshot:
    """One moment of a controller's distributed state."""

    chbm_ways: int
    mhbm_ways: int
    free_ways: int
    sets_sl_positive: int
    sets_rh_high: int
    sets_chbm_disabled: int
    mean_threshold: float
    allocated_pages: int

    @property
    def total_ways(self) -> int:
        return self.chbm_ways + self.mhbm_ways + self.free_ways

    @property
    def chbm_share(self) -> float:
        used = self.chbm_ways + self.mhbm_ways
        return self.chbm_ways / used if used else 0.0


def snapshot(controller: "BumblebeeController") -> ControllerSnapshot:
    """Aggregate the controller's per-set state into one record."""
    g = controller.geometry
    chbm = mhbm = free = 0
    sl_positive = rh_high = 0
    thresholds = 0.0
    allocated = 0
    for set_index in range(g.sets):
        ble = controller.ble[set_index]
        na, nn, nc, free_ways = ble.way_counts(
            controller.config.most_blocks_threshold)
        chbm += nc
        mhbm += len(ble) - nc - free_ways
        free += free_ways
        if spatial_locality(na, nn, nc) > 0:
            sl_positive += 1
        if not free_ways:
            rh_high += 1
        thresholds += controller.hot[set_index].threshold()
        allocated += controller.prt[set_index].allocated_count()
    return ControllerSnapshot(
        chbm_ways=chbm,
        mhbm_ways=mhbm,
        free_ways=free,
        sets_sl_positive=sl_positive,
        sets_rh_high=rh_high,
        sets_chbm_disabled=sum(controller._chbm_disabled),
        mean_threshold=thresholds / g.sets,
        allocated_pages=allocated,
    )


@dataclass
class TelemetryRecorder:
    """Samples controller snapshots on a request cadence.

    Wire it into a manual access loop::

        recorder = TelemetryRecorder(interval=5000)
        for request in trace:
            controller.access(request, now)
            recorder.tick(controller)

    ``snapshots`` then holds the trajectory.
    """

    interval: int = 5000
    snapshots: list[ControllerSnapshot] = field(default_factory=list)
    _count: int = 0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("sampling interval must be positive")

    def tick(self, controller: "BumblebeeController") -> bool:
        """Count one request; snapshot when the interval elapses.

        Returns:
            True when a snapshot was taken on this tick.
        """
        self._count += 1
        if self._count % self.interval == 0:
            self.snapshots.append(snapshot(controller))
            return True
        return False

    def chbm_share_series(self) -> list[float]:
        return [s.chbm_share for s in self.snapshots]

    def render(self) -> str:
        """Text table of the recorded trajectory."""
        lines = [f"{'sample':>7} {'cHBM':>6} {'mHBM':>6} {'free':>6} "
                 f"{'SL>0':>6} {'Rh=1':>6} {'T':>6}"]
        for index, snap in enumerate(self.snapshots):
            lines.append(
                f"{index:>7} {snap.chbm_ways:>6} {snap.mhbm_ways:>6} "
                f"{snap.free_ways:>6} {snap.sets_sl_positive:>6} "
                f"{snap.sets_rh_high:>6} {snap.mean_threshold:>6.1f}")
        return "\n".join(lines)
