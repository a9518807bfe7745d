"""Chip-area model (TSMC 65 nm), after the paper's Section III.

The paper estimates area "from core/cache data given by the processor
vendor for a TSMC 65nm CMOS technology and including an overhead for NoC
switches, bridges and routing area of about 100% of the total core area
(excluding caches)".  Vendor numbers are not public, so the constants
below are calibrated to land the paper's own anchor points:

* the sweep's largest configurations (15 workers, 32 kB) sit near
  20-22 mm^2 in Fig. 7;
* the smallest (2 workers, small caches) sit near 2-3 mm^2.

Only *relative* area matters for the Pareto fronts and kill-rule knees, so
any linear recalibration leaves the reproduced figures unchanged in shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpmmu.mpmmu import MPMMU_CACHE_KB
from repro.system.config import SystemConfig


@dataclass(frozen=True)
class AreaModel:
    """Per-component mm^2 figures for a 65 nm implementation."""

    #: Xtensa LX core logic incl. TIE ports and DP-FP emulation support.
    core_logic_mm2: float = 0.55
    #: NoC switch + pif2NoC bridge + routing overhead, as a fraction of
    #: core logic area (the paper uses ~100%).
    noc_overhead_ratio: float = 1.0
    #: SRAM density for L1 arrays (6T cell + periphery, 65 nm).
    sram_mm2_per_kb: float = 0.0075
    #: Extra MPMMU logic beyond a core: DDR controller + queue glue.
    mpmmu_extra_mm2: float = 0.35

    def core_area(self, cache_kb: int) -> float:
        """One worker tile: core + its NoC share + its L1."""
        logic = self.core_logic_mm2 * (1.0 + self.noc_overhead_ratio)
        return logic + cache_kb * self.sram_mm2_per_kb

    def mpmmu_area(self, cache_kb: int) -> float:
        logic = self.core_logic_mm2 * (1.0 + self.noc_overhead_ratio)
        return logic + self.mpmmu_extra_mm2 + cache_kb * self.sram_mm2_per_kb

    def chip_area(self, config: SystemConfig) -> float:
        """Total die area of one architecture point, in mm^2."""
        return (
            config.n_workers * self.core_area(config.cache_size_kb)
            + self.mpmmu_area(MPMMU_CACHE_KB)
        )
