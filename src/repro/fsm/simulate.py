"""Cycle-accurate FSM simulation and stimulus generation.

This module plays the role of the ModelSim simulation in the paper's
flow (Fig. 6): it drives the machine with input vectors and records the
per-cycle trace from which switching activities (the ``.vcd`` file fed
to XPower) are later extracted by :mod:`repro.power.activity`.

Two stimulus generators are provided:

* :func:`random_stimulus` — uniform random input vectors, the paper's
  "large number of random inputs".
* :func:`idle_biased_stimulus` — steers a target fraction of cycles into
  *idle* steps (no state or output change), used to reproduce Table 3's
  "average case (with 50% idle states)".
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.fsm.machine import FSM

__all__ = [
    "SimulationTrace",
    "FsmSimulator",
    "derive_stream_seed",
    "divergence",
    "random_stimulus",
    "idle_biased_stimulus",
    "toggle_counts",
]


def derive_stream_seed(seed: int, stream: str) -> int:
    """Derive an independent RNG seed for a named stream of one run.

    Hashes ``(seed, stream)`` so every consumer that needs its own
    random stream (a benchmark, a chunk, a retry) gets a reproducible,
    decorrelated seed from the single run-level seed — instead of
    re-using the run seed directly and silently coupling streams, or
    seeding from position so that a change in chunking/word width
    shifts every subsequent draw.  The derivation is stable across
    Python versions and platforms (SHA-256, not ``hash()``).
    """
    digest = hashlib.sha256(f"{seed}:{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def divergence(fsm: FSM, label: str, cycle: int) -> AssertionError:
    """The error an implementation that disagrees with its STG raises.

    ``label`` names the implementation ("FF", "ROM", ...) and ``cycle``
    is the first cycle on which it diverged from the reference machine.
    """
    return AssertionError(
        f"{fsm.name}: {label} implementation diverged from the reference "
        f"FSM at cycle {cycle}"
    )


@dataclass
class SimulationTrace:
    """Per-cycle record of an FSM run.

    ``states[k]`` is the state *during* cycle ``k`` (before the clock
    edge), ``inputs[k]`` the input vector applied in that cycle, and
    ``outputs[k]`` the (Mealy) output produced in it.  All vectors pack
    bit ``i`` of the signal into integer bit ``i``.
    """

    num_inputs: int
    num_outputs: int
    states: List[str] = field(default_factory=list)
    inputs: List[int] = field(default_factory=list)
    outputs: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def num_cycles(self) -> int:
        return len(self.inputs)

    def idle_cycles(self) -> int:
        """Cycles where neither the state nor the output changes.

        Cycle ``k`` is idle when the machine re-enters the same state
        (``states[k+1] == states[k]``) and the output it produces equals
        the previous cycle's output.  This matches the paper's section 6
        definition of an idle state: "no state and output change", i.e.
        clocking the BRAM in that cycle is wasted energy.
        """
        idle = 0
        for k in range(len(self.inputs)):
            next_state = self.states[k + 1] if k + 1 < len(self.states) else None
            same_state = next_state == self.states[k]
            same_output = k > 0 and self.outputs[k] == self.outputs[k - 1]
            if same_state and (same_output or k == 0 and self.outputs[k] == 0):
                idle += 1
        return idle

    def idle_fraction(self) -> float:
        return self.idle_cycles() / len(self.inputs) if self.inputs else 0.0

    def input_bit_column(self, bit: int) -> List[int]:
        return [(v >> bit) & 1 for v in self.inputs]

    def output_bit_column(self, bit: int) -> List[int]:
        return [(v >> bit) & 1 for v in self.outputs]


class FsmSimulator:
    """Steps an FSM cycle by cycle, recording a :class:`SimulationTrace`.

    Unspecified (state, input) pairs follow the hold convention: the
    state is retained and the output is all zeros — the same resolution
    every downstream implementation applies, so reference-vs-netlist
    equivalence checks are exact.
    """

    def __init__(self, fsm: FSM):
        self.fsm = fsm
        self.state = fsm.reset_state

    def reset(self) -> None:
        self.state = self.fsm.reset_state

    def step(self, input_bits: int) -> Tuple[str, int]:
        """Apply one input vector; returns (next_state, output_bits)."""
        next_state, output = self.fsm.step(self.state, input_bits)
        self.state = next_state
        return next_state, output

    def run(self, stimulus: Iterable[int]) -> SimulationTrace:
        """Run from reset over ``stimulus``; returns the full trace.

        ``trace.states`` has one extra trailing entry: the state after
        the final cycle, so state toggles of the last edge are counted.
        """
        self.reset()
        trace = SimulationTrace(self.fsm.num_inputs, self.fsm.num_outputs)
        trace.states.append(self.state)
        limit = 1 << self.fsm.num_inputs
        for input_bits in stimulus:
            if not 0 <= input_bits < limit:
                raise ValueError(
                    f"input vector {input_bits:#x} out of range for "
                    f"{self.fsm.num_inputs} inputs"
                )
            next_state, output = self.step(input_bits)
            trace.inputs.append(input_bits)
            trace.outputs.append(output)
            trace.states.append(next_state)
        return trace


def random_stimulus(
    num_inputs: int, num_cycles: int, seed: int = 0
) -> List[int]:
    """Uniform random input vectors (the paper's power-measurement drive).

    Reproducibility contract: the stream is a pure function of
    ``(num_inputs, seed)`` with one draw per cycle, so a longer run is
    a bitwise extension of a shorter one (``random_stimulus(n, a)`` is a
    prefix of ``random_stimulus(n, b)`` for ``a <= b``).  Simulators may
    therefore chunk or word-pack the stimulus however they like without
    changing the trace.  Consumers needing several independent streams
    should derive per-stream seeds with :func:`derive_stream_seed`.
    """
    rng = random.Random(seed)
    limit = 1 << num_inputs
    return [rng.randrange(limit) for _ in range(num_cycles)]


def idle_biased_stimulus(
    fsm: FSM,
    num_cycles: int,
    idle_fraction: float = 0.5,
    seed: int = 0,
    max_probes: int = 96,
) -> List[int]:
    """Stimulus steering ~``idle_fraction`` of cycles into idle steps.

    A feedback controller compares the achieved idle fraction so far
    with the target and picks the intent of the next cycle accordingly:
    *idle intent* searches ``max_probes`` random inputs for one that
    keeps the state and output unchanged (falling back to a self-loop,
    which sets up an idle run on the next cycle of a Moore machine);
    *active intent* searches for an input that changes state or output.
    The achieved fraction still saturates below the target when the
    machine simply lacks idle opportunities; Table 3's experiment
    reports the achieved fraction alongside the power.
    """
    if not 0.0 <= idle_fraction <= 1.0:
        raise ValueError(f"idle_fraction must be in [0, 1], got {idle_fraction}")
    rng = random.Random(seed)
    limit = 1 << fsm.num_inputs
    stimulus: List[int] = []
    state = fsm.reset_state
    prev_output: Optional[int] = None
    idle_count = 0

    def is_idle(nxt: str, out: int) -> bool:
        """Whether stepping to ``(nxt, out)`` leaves state and output unchanged."""
        same_out = prev_output is None and out == 0 or out == prev_output
        return nxt == state and same_out

    for cycle in range(num_cycles):
        want_idle = idle_count < idle_fraction * (cycle + 1)
        # Picks are (input, next state, output): the probe's own step is
        # reused, so each candidate is stepped once.
        chosen: Optional[Tuple[int, str, int]] = None
        fallback: Optional[Tuple[int, str, int]] = None
        for _probe in range(max_probes):
            candidate = rng.randrange(limit)
            nxt, out = fsm.step(state, candidate)
            if is_idle(nxt, out) == want_idle:
                chosen = (candidate, nxt, out)
                break
            if want_idle and nxt == state and fallback is None:
                fallback = (candidate, nxt, out)  # sets up an idle run next cycle
        if chosen is None:
            chosen = fallback
        if chosen is None:
            candidate = rng.randrange(limit)
            chosen = (candidate, *fsm.step(state, candidate))
        candidate, nxt, out = chosen
        if is_idle(nxt, out):
            idle_count += 1
        stimulus.append(candidate)
        state, prev_output = nxt, out
    return stimulus


def toggle_counts(column: Sequence[int]) -> int:
    """Number of 0<->1 transitions along a sampled signal column."""
    toggles = 0
    for prev, cur in zip(column, column[1:]):
        if prev != cur:
            toggles += 1
    return toggles
