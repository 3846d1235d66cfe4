"""The paper's benchmark set, regenerated to published statistics.

Interface statistics (inputs/outputs/states) per circuit follow the MCNC
LGSynth91 FSM benchmark documentation; transition counts are matched in
order of magnitude (exactly matching `tbk`'s 1569 fully-enumerated
products would only slow every flow down without changing any trend, so
its STG is expressed with cubes like the other circuits).  ``Dk`` in the
paper's tables is taken to be ``dk14``.

The specs below also choose the knobs that drive each circuit's role in
the experiments:

* ``sand``/``styr``/``ex1`` are don't-care-rich with wide input vectors,
  exercising column compaction and the input multiplexer;
* ``planet``/``ex1``/``prep4`` are Moore machines with wide outputs
  (``prep4`` is the paper's explicit Fig. 3 external-output case);
* every circuit has self-loop mass so Table 3's 50%-idle stimulus is
  realizable.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.generator import GeneratorSpec, generate_fsm
from repro.fsm.machine import FSM
from repro.fsm.stats import FsmStats, compute_stats

__all__ = [
    "BENCHMARK_SPECS",
    "PAPER_BENCHMARKS",
    "load_benchmark",
    "benchmark_stats",
]


BENCHMARK_SPECS: Dict[str, GeneratorSpec] = {
    spec.name: spec
    for spec in (
        # PREP benchmark #4: 16-state, 8-in/8-out Moore controller.
        GeneratorSpec(
            name="prep4", num_states=16, num_inputs=8, num_outputs=8,
            care_inputs=(2, 4), branch_probability=0.6, self_loop_bias=0.45,
            successors=(2, 3), moore=True, distinct_outputs=8,
            column_locality=0.6, seed=1104,
        ),
        # dk14: small dense 7-state machine, nearly no don't-cares.
        GeneratorSpec(
            name="dk14", num_states=7, num_inputs=3, num_outputs=5,
            care_inputs=(3, 3), branch_probability=0.8, self_loop_bias=0.2,
            successors=(2, 3), distinct_outputs=5, seed=1402,
        ),
        # tbk: 32 states over 6 inputs, densely specified.
        GeneratorSpec(
            name="tbk", num_states=32, num_inputs=6, num_outputs=3,
            care_inputs=(3, 4), branch_probability=0.45, self_loop_bias=0.35,
            successors=(2, 3), distinct_outputs=4,
            column_locality=0.5, seed=3206,
        ),
        # keyb: keyboard scanner, 19 states, 7 inputs.
        GeneratorSpec(
            name="keyb", num_states=19, num_inputs=7, num_outputs=2,
            care_inputs=(3, 5), branch_probability=0.5, self_loop_bias=0.35,
            successors=(2, 3), distinct_outputs=4,
            column_locality=0.6, seed=1907,
        ),
        # donfile: 24 states on a 2-bit input, fully specified.
        GeneratorSpec(
            name="donfile", num_states=24, num_inputs=2, num_outputs=1,
            care_inputs=(2, 2), branch_probability=0.9, self_loop_bias=0.25,
            successors=(2, 3), distinct_outputs=2, seed=2402,
        ),
        # sand: 11 inputs, heavily don't-care -> the compaction showcase.
        GeneratorSpec(
            name="sand", num_states=32, num_inputs=11, num_outputs=9,
            care_inputs=(2, 4), branch_probability=0.45, self_loop_bias=0.3,
            successors=(2, 2), distinct_outputs=6,
            column_locality=0.7, seed=3211,
        ),
        # styr: 30 states, 9 inputs, don't-care rich.
        GeneratorSpec(
            name="styr", num_states=30, num_inputs=9, num_outputs=10,
            care_inputs=(2, 4), branch_probability=0.45, self_loop_bias=0.3,
            successors=(2, 2), distinct_outputs=6,
            column_locality=0.7, seed=3009,
        ),
        # ex1: 20-state Moore machine with 19 outputs.
        GeneratorSpec(
            name="ex1", num_states=20, num_inputs=9, num_outputs=19,
            care_inputs=(2, 5), branch_probability=0.55, self_loop_bias=0.5,
            successors=(2, 3), moore=True, distinct_outputs=12,
            column_locality=0.7, seed=2009,
        ),
        # planet: the big one -- 48 states, 19 Moore outputs.
        GeneratorSpec(
            name="planet", num_states=48, num_inputs=7, num_outputs=19,
            care_inputs=(2, 4), branch_probability=0.55, self_loop_bias=0.45,
            successors=(2, 3), moore=True, distinct_outputs=12,
            column_locality=0.6, seed=4807,
        ),
    )
}

# Row order of the paper's Tables 1-4.
PAPER_BENCHMARKS: List[str] = [
    "prep4", "dk14", "tbk", "keyb", "donfile", "sand", "styr", "ex1", "planet",
]


# Explicit per-process memo (generation is deterministic, so every
# process regenerates identical machines; the pipeline's artifact cache
# handles cross-process reuse).
_BENCHMARK_MEMO: Dict[str, FSM] = {}


def load_benchmark(name: str) -> FSM:
    """Instantiate a benchmark FSM by name (memoized, deterministic)."""
    if name in _BENCHMARK_MEMO:
        return _BENCHMARK_MEMO[name]
    try:
        spec = BENCHMARK_SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {sorted(BENCHMARK_SPECS)}"
        ) from None
    fsm = generate_fsm(spec)
    _BENCHMARK_MEMO[name] = fsm
    return fsm


def benchmark_stats(name: str) -> FsmStats:
    return compute_stats(load_benchmark(name))
