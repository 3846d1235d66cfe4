"""repro — reproduction of Tiwari & Tomko, "Saving Power by Mapping
Finite-State Machines into Embedded Memory Blocks in FPGAs" (DATE 2004).

Quickstart::

    from repro import parse_kiss, map_fsm_to_rom, synthesize_ff

    fsm = parse_kiss(open("detector.kiss2").read())
    rom = map_fsm_to_rom(fsm, clock_control=True)   # the paper's method
    ff = synthesize_ff(fsm)                          # the baseline

    from repro import evaluate_benchmark
    result = evaluate_benchmark(fsm)                 # power comparison
    print(result.saving_percent())

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.fsm`    — FSM model, KISS2 I/O, encodings, simulation
- :mod:`repro.logic`  — cubes, espresso-style minimizer, LUT mapping
- :mod:`repro.arch`   — Virtex-II BRAM/device/interconnect/timing model
- :mod:`repro.synth`  — the conventional FF/LUT baseline flow
- :mod:`repro.romfsm` — the paper's ROM mapping (core contribution)
- :mod:`repro.power`  — XPower-style activity-based power estimation
- :mod:`repro.bench`  — statistics-matched MCNC/PREP benchmark set
- :mod:`repro.tune`   — multi-objective search over mapper configurations
- :mod:`repro.flows`  — end-to-end experiments and the paper's tables
"""

from repro.fsm import (
    FSM,
    Transition,
    FsmError,
    parse_kiss,
    format_kiss,
    load_kiss_file,
    make_encoding,
    FsmSimulator,
    random_stimulus,
    idle_biased_stimulus,
)
from repro.romfsm import (
    map_fsm_to_rom,
    MappingError,
    RomFsmImplementation,
    rom_fsm_vhdl,
    bram_init_strings,
)
from repro.synth import synthesize_ff, FfImplementation, simulate_ff_netlist
from repro.power import (
    estimate_ff_power,
    estimate_rom_power,
    extract_ff_activity,
    extract_rom_activity,
    PowerReport,
)
from repro.flows import evaluate_benchmark, table1, table2, table3, table4
from repro.bench import PAPER_BENCHMARKS, load_benchmark
from repro.tune import (
    TuneResult,
    load_frontier,
    replay_point,
    tune_benchmark,
)

__version__ = "1.0.0"

__all__ = [
    "FSM",
    "Transition",
    "FsmError",
    "parse_kiss",
    "format_kiss",
    "load_kiss_file",
    "make_encoding",
    "FsmSimulator",
    "random_stimulus",
    "idle_biased_stimulus",
    "map_fsm_to_rom",
    "MappingError",
    "RomFsmImplementation",
    "rom_fsm_vhdl",
    "bram_init_strings",
    "synthesize_ff",
    "FfImplementation",
    "simulate_ff_netlist",
    "estimate_ff_power",
    "estimate_rom_power",
    "extract_ff_activity",
    "extract_rom_activity",
    "PowerReport",
    "evaluate_benchmark",
    "table1",
    "table2",
    "table3",
    "table4",
    "PAPER_BENCHMARKS",
    "load_benchmark",
    "TuneResult",
    "load_frontier",
    "replay_point",
    "tune_benchmark",
    "__version__",
]
