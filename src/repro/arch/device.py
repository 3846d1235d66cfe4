"""Virtex-II device resource model.

The paper targets the XC2V250 (speed grade -6).  The mapping algorithm
and the area tables only need the resource *counts* — slices (each with
two 4-LUTs and two FFs), block RAMs, and the packing rule from LUT/FF
demand to occupied slices — all public data-sheet facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

__all__ = ["Device", "Utilization", "VIRTEX2_DEVICES", "get_device"]

LUTS_PER_SLICE = 2
FFS_PER_SLICE = 2


@dataclass(frozen=True)
class Device:
    """One FPGA part: resource capacities."""

    name: str
    slices: int
    brams: int
    # Maximum BRAM clock for the -6 speed grade, MHz (data-sheet switching
    # characteristics); the "maximum clock frequency supported by the EMBs"
    # the paper says ROM FSMs can always run at.
    bram_fmax_mhz: float = 200.0

    @property
    def luts(self) -> int:
        return self.slices * LUTS_PER_SLICE

    @property
    def ffs(self) -> int:
        return self.slices * FFS_PER_SLICE

    def fits(self, util: "Utilization") -> bool:
        return (
            util.slices <= self.slices
            and util.brams <= self.brams
        )

    def slice_utilization(self, util: "Utilization") -> float:
        return util.slices / self.slices if self.slices else 0.0


@dataclass(frozen=True)
class Utilization:
    """Resources consumed by one implementation."""

    luts: int = 0
    ffs: int = 0
    brams: int = 0

    @property
    def slices(self) -> int:
        """Occupied slices under the standard 2-LUT/2-FF packing rule."""
        return max(
            math.ceil(self.luts / LUTS_PER_SLICE),
            math.ceil(self.ffs / FFS_PER_SLICE),
        )

    def __add__(self, other: "Utilization") -> "Utilization":
        return Utilization(
            luts=self.luts + other.luts,
            ffs=self.ffs + other.ffs,
            brams=self.brams + other.brams,
        )


# Virtex-II family (slice and BlockRAM counts from the Virtex-II data
# sheet v2.3 cited by the paper; XC2V40 has 4 BRAMs, XC2V8000 has 168).
VIRTEX2_DEVICES: Dict[str, Device] = {
    d.name: d
    for d in (
        Device("XC2V40", slices=256, brams=4),
        Device("XC2V80", slices=512, brams=8),
        Device("XC2V250", slices=1536, brams=24),
        Device("XC2V500", slices=3072, brams=32),
        Device("XC2V1000", slices=5120, brams=40),
        Device("XC2V1500", slices=7680, brams=48),
        Device("XC2V2000", slices=10752, brams=56),
        Device("XC2V3000", slices=14336, brams=96),
        Device("XC2V4000", slices=23040, brams=120),
        Device("XC2V6000", slices=33792, brams=144),
        Device("XC2V8000", slices=46592, brams=168),
    )
}

# The paper's experimental target.
DEFAULT_DEVICE = "XC2V250"


def get_device(name: str = DEFAULT_DEVICE) -> Device:
    """Look up a device by part name (case-insensitive)."""
    key = name.upper()
    try:
        return VIRTEX2_DEVICES[key]
    except KeyError:
        raise KeyError(
            f"unknown device {name!r}; choose from {sorted(VIRTEX2_DEVICES)}"
        ) from None
