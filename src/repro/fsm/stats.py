"""STG statistics.

The paper's area/power trends are driven by the gross statistics of each
benchmark FSM — state, input, output and transition counts plus the
don't-care density of the input cubes (which determines how much column
compaction can shrink the BRAM address space).  :func:`compute_stats`
extracts exactly those quantities; the benchmark generator in
:mod:`repro.bench.generator` targets them when regenerating the MCNC set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.fsm.machine import FSM

__all__ = ["FsmStats", "compute_stats"]


@dataclass(frozen=True)
class FsmStats:
    """Gross statistics of a state-transition graph."""

    name: str
    num_inputs: int
    num_outputs: int
    num_states: int
    num_transitions: int
    state_bits: int
    # Fraction of input-cube literal positions that are don't-cares.
    dont_care_density: float
    # max over states of the number of *bound* input columns used by any
    # of its outgoing cubes -- the paper's "maximum number of inputs i
    # any state uses excluding don't care bits" (Fig. 5 line 11).
    max_state_inputs: int
    is_moore: bool
    is_complete: bool

    @property
    def address_bits_uncompacted(self) -> int:
        """BRAM address lines needed without column compaction."""
        return self.state_bits + self.num_inputs

    @property
    def address_bits_compacted(self) -> int:
        """BRAM address lines needed after per-state column compaction."""
        return self.state_bits + self.max_state_inputs

    @property
    def data_bits(self) -> int:
        """BRAM data width for next-state plus outputs in one word."""
        return self.state_bits + self.num_outputs


def compute_stats(fsm: FSM) -> FsmStats:
    """Compute :class:`FsmStats` for ``fsm``."""
    state_bits = max(1, math.ceil(math.log2(fsm.num_states))) if fsm.num_states > 1 else 1
    total_positions = len(fsm.transitions) * fsm.num_inputs
    dc_positions = 0
    for t in fsm.transitions:
        dc_positions += fsm.num_inputs - t.inputs.num_literals()
    density = dc_positions / total_positions if total_positions else 0.0

    max_state_inputs = 0
    for state in fsm.states:
        used_mask = 0
        for t in fsm.transitions_from(state):
            used_mask |= t.inputs.care_mask()
        max_state_inputs = max(max_state_inputs, bin(used_mask).count("1"))

    return FsmStats(
        name=fsm.name,
        num_inputs=fsm.num_inputs,
        num_outputs=fsm.num_outputs,
        num_states=fsm.num_states,
        num_transitions=len(fsm.transitions),
        state_bits=state_bits,
        dont_care_density=density,
        max_state_inputs=max_state_inputs,
        is_moore=fsm.is_moore(),
        is_complete=fsm.is_complete(),
    )
