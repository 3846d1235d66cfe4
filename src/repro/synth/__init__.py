"""FF/LUT baseline FSM implementation flow.

This is the paper's "conventional" implementation (Fig. 1a): state bits
in flip-flops, next-state and output functions minimized to two-level
form, factored into a gate network and technology-mapped onto 4-LUTs —
the role played by SIS + Synplify Pro in the paper's experimental flow.
"""

from repro.synth import codegen
from repro.synth.blif import (
    BlifModel,
    ff_implementation_vhdl,
    parse_blif,
    write_blif,
)
from repro.synth.ff_synth import FfImplementation, synthesize_ff
from repro.synth.netsim import NetlistTrace, simulate_ff_netlist

__all__ = [
    "codegen",
    "FfImplementation",
    "synthesize_ff",
    "NetlistTrace",
    "simulate_ff_netlist",
    "BlifModel",
    "write_blif",
    "parse_blif",
    "ff_implementation_vhdl",
]
