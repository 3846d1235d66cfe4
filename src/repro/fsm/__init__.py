"""FSM core: the six-tuple machine model, KISS2 I/O, state encodings,
classical transformations, and cycle-accurate simulation.

An FSM here is the paper's six-tuple (I, O, S, r0, delta, Y): inputs,
outputs, states, reset state, transition function and output function,
stored as a state-transition graph whose edges carry ternary input cubes
(KISS2 style, so MCNC benchmarks load losslessly).
"""

from repro.fsm.machine import FSM, Transition, FsmError
from repro.fsm.diff import FsmDiff, apply_edits, diff_fsm
from repro.fsm.kiss import parse_kiss, format_kiss, load_kiss_file
from repro.fsm.encoding import (
    StateEncoding,
    binary_encoding,
    gray_encoding,
    one_hot_encoding,
    johnson_encoding,
    make_encoding,
)
from repro.fsm.simulate import (
    FsmSimulator,
    SimulationTrace,
    derive_stream_seed,
    random_stimulus,
    idle_biased_stimulus,
)
from repro.fsm.transform import (
    complete,
    mealy_to_moore,
    minimize_states,
    reachable_states,
    remove_unreachable,
)
from repro.fsm.stats import FsmStats, compute_stats
from repro.fsm.assign import (
    anneal_encoding,
    encoding_switching_cost,
    transition_weights,
)
from repro.fsm.markov import (
    expected_idle_fraction,
    expected_state_bit_activity,
    stationary_distribution,
    transition_matrix,
)

__all__ = [
    "FSM",
    "Transition",
    "FsmError",
    "FsmDiff",
    "diff_fsm",
    "apply_edits",
    "parse_kiss",
    "format_kiss",
    "load_kiss_file",
    "StateEncoding",
    "binary_encoding",
    "gray_encoding",
    "one_hot_encoding",
    "johnson_encoding",
    "make_encoding",
    "FsmSimulator",
    "SimulationTrace",
    "derive_stream_seed",
    "random_stimulus",
    "idle_biased_stimulus",
    "complete",
    "mealy_to_moore",
    "minimize_states",
    "reachable_states",
    "remove_unreachable",
    "FsmStats",
    "compute_stats",
    "anneal_encoding",
    "encoding_switching_cost",
    "transition_weights",
    "transition_matrix",
    "stationary_distribution",
    "expected_idle_fraction",
    "expected_state_bit_activity",
]
