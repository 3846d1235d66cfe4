"""XPower-style dynamic power estimation.

The estimator implements the same equation XPower evaluates over a
placed-and-routed design and an activity file::

    P_dyn = sum over nets/components of  1/2 * C_eff * V^2 * alpha * f

with effective capacitances calibrated (see :mod:`repro.power.params`)
so the FF baseline reproduces the published Virtex-II dynamic power
breakdown of roughly 60% interconnect / 16% logic / 14% clock (Shang et
al., FPGA'03, the paper's reference [4]).  Activities ``alpha`` come
from cycle-accurate simulation of the actual implementation netlists,
passed in process as toggle counts rather than through a ``.vcd`` file.
"""

from repro.power.params import PowerParams, VIRTEX2_PARAMS
from repro.power.activity import (
    FfActivity,
    RomActivity,
    extract_ff_activity,
    extract_rom_activity,
)
from repro.power.estimator import PowerReport, estimate_ff_power, estimate_rom_power

__all__ = [
    "PowerParams",
    "VIRTEX2_PARAMS",
    "FfActivity",
    "RomActivity",
    "extract_ff_activity",
    "extract_rom_activity",
    "PowerReport",
    "estimate_ff_power",
    "estimate_rom_power",
]
