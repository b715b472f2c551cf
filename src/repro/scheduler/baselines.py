"""Baseline schedulers used as comparison points in the paper's evaluation.

The paper compares PolyTOPS against Pluto (dev), Pluto+, Pluto-lp-dfp (with
several fusion heuristics) and isl/isl-PPCG.  Those tools are not available
here, so each baseline is reproduced as a configuration of the same iterative
scheduling engine — which is precisely the paper's claim: the classical
schedulers are instances of the configurable scheme.

* :class:`PlutoBaseline`       — proximity cost, smartfuse-like heuristic;
* :class:`PlutoPlusBaseline`   — same, with negative coefficients enabled;
* :class:`PlutoLpDfpBaseline`  — Pluto with three fusion heuristics
  (``nofuse``/``smartfuse``/``maxfuse``); the harness picks the best result,
  as the paper does for Fig. 4;
* :class:`IslPpcgBaseline`     — the isl-style strategy (Pluto + Feautrier
  fallback) with maximal fusion, as used by PPCG.

Every baseline exposes ``configs()`` returning the candidate configurations to
run; the experiment harness evaluates all of them and keeps the best, which
mirrors how the paper reports "best fusion heuristic" numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import SchedulerConfig
from .strategies import isl_style, pluto_plus_style, pluto_style

__all__ = [
    "Baseline",
    "PlutoBaseline",
    "PlutoPlusBaseline",
    "PlutoLpDfpBaseline",
    "IslPpcgBaseline",
]


@dataclass
class Baseline:
    """A named set of candidate scheduler configurations."""

    name: str
    candidates: list[SchedulerConfig] = field(default_factory=list)

    def configs(self) -> list[SchedulerConfig]:
        return list(self.candidates)


def PlutoBaseline() -> Baseline:
    """Pluto (development version) as configured in the paper's experiments."""
    config = pluto_style()
    config.name = "pluto"
    return Baseline("pluto", [config])


def PlutoPlusBaseline() -> Baseline:
    """Pluto+ : Pluto with negative coefficients (loop reversal / negative skewing)."""
    config = pluto_plus_style()
    config.name = "pluto+"
    return Baseline("pluto+", [config])


def PlutoLpDfpBaseline() -> Baseline:
    """Pluto-lp-dfp: Pluto with the three fusion heuristics of [29].

    ``nofuse`` distributes all statements at the outermost level, ``smartfuse``
    is the default dimensionality-based heuristic, ``maxfuse`` disables the
    heuristic entirely (maximal fusion).  The harness keeps the best performer,
    matching the paper's "best fusion heuristic" reporting.
    """
    nofuse = pluto_style()
    nofuse.name = "pluto-lp-dfp-nofuse"
    nofuse.dimensionality_fusion_heuristic = False
    from .config import FusionSpec

    nofuse.fusion = (FusionSpec(dimension=0, total_distribution=True),)

    smartfuse = pluto_style()
    smartfuse.name = "pluto-lp-dfp-smartfuse"

    maxfuse = pluto_style()
    maxfuse.name = "pluto-lp-dfp-maxfuse"
    maxfuse.dimensionality_fusion_heuristic = False

    return Baseline("pluto-lp-dfp", [nofuse, smartfuse, maxfuse])


def IslPpcgBaseline() -> Baseline:
    """isl-PPCG: Pluto-style with Feautrier fallback and maximal fusion."""
    config = isl_style()
    config.name = "isl-ppcg"
    config.dimensionality_fusion_heuristic = False
    return Baseline("isl-ppcg", [config])
