"""The paper's contribution: mapping FSMs into embedded memory blocks.

The pipeline is the paper's Fig. 5 algorithm:

1. Encode states densely (reset state at code 0, because the BRAM output
   latch clears to 0 and the latched state bits address the next word).
2. If ``inputs + state_bits`` fit a BRAM address port, program the STG
   directly into the memory; join BRAMs in parallel when
   ``outputs + state_bits`` exceed one data port.
3. Otherwise apply per-state column compaction (drop don't-care input
   columns, insert an input multiplexer, Fig. 4) and, as a last resort,
   join BRAMs in series for more address lines.
4. Optionally realize Moore outputs in LUTs outside the memory (Fig. 3).
5. Optionally synthesize the idle-state clock-control (enable) logic
   (paper section 6) that stops the BRAM clock when neither the state
   nor the outputs would change.
"""

from repro.romfsm.compaction import ColumnCompaction, compact_columns
from repro.romfsm.contents import RomLayout, generate_contents
from repro.romfsm.impl import RomFsmImplementation, RomTrace
from repro.romfsm.mapper import MappingError, map_fsm_to_rom
from repro.romfsm.clock_control import ClockControl, synthesize_clock_control
from repro.romfsm.vhdl import (
    bram_init_strings,
    bram_initp_strings,
    rom_fsm_vhdl,
)

__all__ = [
    "ColumnCompaction",
    "compact_columns",
    "RomLayout",
    "generate_contents",
    "RomFsmImplementation",
    "RomTrace",
    "MappingError",
    "map_fsm_to_rom",
    "ClockControl",
    "synthesize_clock_control",
    "rom_fsm_vhdl",
    "bram_init_strings",
    "bram_initp_strings",
]
