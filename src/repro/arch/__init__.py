"""FPGA architecture model: the embedded memory block, device
resources, interconnect capacitance, and timing.

Only the architectural *parameters* the paper's method consumes are
modelled — memory-block aspect ratios and port widths, slice/LUT/FF
counts per device, wire capacitance versus fanout, and pin-to-pin
delays.  The Virtex-II values come from the public data sheet the paper
cites ([1]); :mod:`repro.arch.memblock` gathers the block's legality
and timing parameters into the one record the mapper consumes.
"""

from repro.arch.bram import BramConfig, BlockRam, BRAM_CONFIGS, VIRTEX2_BRAM_BITS
from repro.arch.device import Device, Utilization, VIRTEX2_DEVICES, get_device
from repro.arch.interconnect import InterconnectModel
from repro.arch.memblock import VIRTEX2_BRAM, Virtex2BramModel
from repro.arch.timing import TimingModel, TimingReport

__all__ = [
    "BramConfig",
    "BlockRam",
    "BRAM_CONFIGS",
    "VIRTEX2_BRAM_BITS",
    "Device",
    "Utilization",
    "VIRTEX2_DEVICES",
    "get_device",
    "InterconnectModel",
    "Virtex2BramModel",
    "VIRTEX2_BRAM",
    "TimingModel",
    "TimingReport",
]
