"""Shape validation: paper claims vs measured results.

Every figure in the paper implies qualitative *shape* claims (who wins,
where, by roughly what factor).  This module encodes those claims as
checkable predicates over harness outputs and renders a pass/fail report
— the machine-readable core of EXPERIMENTS.md.

A campaign may run any subset of designs; claims whose designs are
absent are reported as skipped (never a crash, never a spurious MISS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .metrics import GroupSummary


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative claim derived from the paper.

    ``skipped`` marks a claim whose inputs were not measured (e.g. a
    campaign over a subset of designs); a skipped check neither passes
    nor fails validation.
    """

    artefact: str
    claim: str
    passed: bool
    measured: str
    skipped: bool = False

    @classmethod
    def skip(cls, artefact: str, claim: str,
             missing: Sequence[str]) -> "ShapeCheck":
        """A skipped claim, recording which designs were absent."""
        return cls(artefact, claim, passed=False, skipped=True,
                   measured="not measured: campaign lacks "
                            + ", ".join(sorted(missing)))

    def render(self) -> str:
        status = ("SKIP" if self.skipped
                  else "PASS" if self.passed else "MISS")
        return f"[{status}] {self.artefact}: {self.claim} ({self.measured})"


def _missing(results: Mapping[str, object],
             needed: Sequence[str]) -> list[str]:
    return [name for name in needed if name not in results]


def _claim(artefact: str, claim: str, missing: Sequence[str],
           evaluate: Callable[[], tuple[bool, str]]) -> ShapeCheck:
    """A skip naming what is ``missing``, else the check ``evaluate()``
    measures as ``(passed, measured)``."""
    if missing:
        return ShapeCheck.skip(artefact, claim, missing)
    return ShapeCheck(artefact, claim, *evaluate())


def check_figure8(results: Mapping[str, Mapping[str, GroupSummary]]
                  ) -> list[ShapeCheck]:
    """Shape claims of Figures 8(a)-(d).

    Claims whose designs (or MPKI groups) the campaign did not run are
    skipped.
    """
    bee = results.get("Bumblebee", {})
    others = [name for name in results if name != "Bumblebee"]

    def best_overall() -> tuple[bool, str]:
        best_other = max(
            others, key=lambda name: results[name]["all"].norm_ipc)
        margin = bee["all"].norm_ipc / results[best_other]["all"].norm_ipc
        return (margin >= 0.98,
                f"{bee['all'].norm_ipc:.2f} vs {best_other} "
                f"{results[best_other]['all'].norm_ipc:.2f}")

    return [
        _claim("Fig8a", "Bumblebee has the best overall normalised IPC",
               _missing(results, ["Bumblebee"])
               or ([] if others else ["a second design"]), best_overall),
        _claim("Fig8a", "gains concentrate in the high-MPKI group",
               _missing(results, ["Bumblebee"])
               or [f"{group}-MPKI workloads"
                   for group in _missing(bee, ["high", "low"])],
               lambda: (bee["high"].norm_ipc > bee["low"].norm_ipc,
                        f"high {bee['high'].norm_ipc:.2f} vs low "
                        f"{bee['low'].norm_ipc:.2f}")),
        _claim("Fig8a", "Unison is the weakest design",
               _missing(results, ["UnisonCache"]),
               lambda: (results["UnisonCache"]["all"].norm_ipc
                        <= min(r["all"].norm_ipc for r in results.values())
                        + 0.05,
                        f"Unison "
                        f"{results['UnisonCache']['all'].norm_ipc:.2f}")),
        _claim("Fig8b", "Bumblebee's HBM traffic below Hybrid2's x1.6",
               _missing(results, ["Bumblebee", "Hybrid2"]),
               lambda: (bee["all"].norm_hbm_traffic
                        < results["Hybrid2"]["all"].norm_hbm_traffic * 1.6,
                        f"{bee['all'].norm_hbm_traffic:.2f} vs Hybrid2 "
                        f"{results['Hybrid2']['all'].norm_hbm_traffic:.2f}"
                        )),
        _claim("Fig8c", "POM designs cut off-chip traffic below baseline",
               _missing(results, ["Chameleon"]),
               lambda: (results["Chameleon"]["all"].norm_dram_traffic < 1.0,
                        f"Chameleon "
                        f"{results['Chameleon']['all'].norm_dram_traffic:.2f}"
                        )),
        _claim("Fig8d", "Bumblebee beats the tag-in-HBM designs on energy",
               _missing(results, ["Bumblebee", "AlloyCache", "UnisonCache"]),
               lambda: (bee["all"].norm_energy
                        < min(results["AlloyCache"]["all"].norm_energy,
                              results["UnisonCache"]["all"].norm_energy),
                        f"{bee['all'].norm_energy:.2f} vs AC "
                        f"{results['AlloyCache']['all'].norm_energy:.2f} / UC "
                        f"{results['UnisonCache']['all'].norm_energy:.2f}")),
    ]


def check_figure7(results: Mapping[str, float]) -> list[ShapeCheck]:
    """Shape claims of Figure 7 (skipping claims over absent variants)."""
    partitioning = [v for k, v in results.items() if k != "Meta-H"]
    return [
        _claim("Fig7", "C-Only is the weakest partitioning variant",
               _missing(results, ["C-Only"]),
               lambda: (results["C-Only"] <= min(partitioning) + 0.02,
                        f"C-Only {results['C-Only']:.2f}")),
        _claim("Fig7", "M-Only beats C-Only",
               _missing(results, ["M-Only", "C-Only"]),
               lambda: (results["M-Only"] > results["C-Only"],
                        f"{results['M-Only']:.2f} vs "
                        f"{results['C-Only']:.2f}")),
        _claim("Fig7", "Meta-H pays a metadata-latency penalty",
               _missing(results, ["Meta-H", "Bumblebee"]),
               lambda: (results["Meta-H"] < results["Bumblebee"] * 0.9,
                        f"Meta-H {results['Meta-H']:.2f} vs "
                        f"{results['Bumblebee']:.2f}")),
        _claim("Fig7", "full Bumblebee is the (tied-)top bar",
               _missing(results, ["Bumblebee"]),
               lambda: (results["Bumblebee"] >= max(results.values()) * 0.97,
                        f"Bumblebee {results['Bumblebee']:.2f} vs max "
                        f"{max(results.values()):.2f}")),
    ]


def check_overfetch(results: Mapping[str, float]) -> list[ShapeCheck]:
    """§IV-B over-fetch parity claim."""
    return [_claim(
        "SIV-B", "Bumblebee's over-fetch stays near fine-grained Hybrid2's "
                 "despite 8x/32x larger granularity",
        _missing(results, ["Bumblebee", "Hybrid2"]),
        lambda: (results["Bumblebee"] < 0.3,
                 f"Bumblebee {results['Bumblebee']:.1%} vs Hybrid2 "
                 f"{results['Hybrid2']:.1%}"))]


def check_metadata(report: Mapping) -> list[ShapeCheck]:
    """§IV-B metadata claims."""
    sizes = report["bumblebee"]
    return [
        ShapeCheck("SIV-B", "metadata fits the 512KB SRAM budget",
                   report["bumblebee_fits_sram"],
                   f"{sizes.total_bytes / 1024:.0f}KB"),
        ShapeCheck("SIV-B", "1-2 orders of magnitude below prior designs",
                   report["hybrid2_bytes"] > 10 * sizes.total_bytes
                   and report["alloy_bytes"] > 10 * sizes.total_bytes,
                   f"Hybrid2 {report['hybrid2_bytes'] >> 10}KB, "
                   f"Alloy {report['alloy_bytes'] >> 10}KB"),
    ]


def render_report(checks: list[ShapeCheck]) -> str:
    """Human-readable pass/fail summary (skips counted separately)."""
    skipped = sum(1 for c in checks if c.skipped)
    passed = sum(1 for c in checks if c.passed)
    lines = [c.render() for c in checks]
    summary = f"-- {passed}/{len(checks) - skipped} shape claims reproduced"
    if skipped:
        summary += f" ({skipped} skipped: not measured)"
    lines.append(summary)
    return "\n".join(lines)
