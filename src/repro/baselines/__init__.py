"""Baseline memory-system designs and the controller framework.

Every controller here (and Bumblebee in :mod:`repro.core.hmmc`)
registers itself into the design registry
(:data:`repro.designs.registry`); the paper-order name lists below are
views over it.  Controllers are built from a registered name or a
:class:`~repro.designs.DesignSpec` with ``registry.build``.
"""

from __future__ import annotations

from ..core.hmmc import BumblebeeController
from ..designs import registry
from .alloy import AlloyCacheController
from .banshee import BansheeController
from .base import HybridMemoryController, MovementEngine
from .chameleon import ChameleonController
from .hybrid2 import Hybrid2Controller
from .ideal import IdealHBMController
from .mempod import MemPodController
from .metacache import MetadataCache
from .no_hbm import NoHBMController
from .static import c_only, fixed_chbm, m_only
from .unison import UnisonCacheController

#: The designs compared in Figure 8, in paper order (registry-derived).
FIGURE8_DESIGNS = registry.figure_names("fig8")

#: The Figure 7 factor-breakdown bars, in paper order (registry-derived).
FIGURE7_VARIANTS = registry.figure_names("fig7")


__all__ = [
    "HybridMemoryController",
    "MovementEngine",
    "MetadataCache",
    "NoHBMController",
    "IdealHBMController",
    "MemPodController",
    "AlloyCacheController",
    "UnisonCacheController",
    "BansheeController",
    "ChameleonController",
    "Hybrid2Controller",
    "c_only",
    "m_only",
    "fixed_chbm",
    "FIGURE8_DESIGNS",
    "FIGURE7_VARIANTS",
]
