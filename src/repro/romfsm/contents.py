"""ROM content generation — the paper's "C program to automatically
generate the VHDL initialization string" (section 5), generalized.

The memory word layout follows the paper's Fig. 2b worked example:

* **address** = compacted (or raw) FSM inputs in the low bits, latched
  state bits above them (Fig. 2b: ``A0`` is the FSM input, ``A2-A1`` the
  next-state feedback);
* **data** = FSM outputs in the low bits, next-state code above them
  (Fig. 2b: ``D0`` is the output, ``D2-D1`` the next state) — unless the
  outputs are realized externally (Moore/Fig. 3), in which case the word
  holds only the next-state code.

Unspecified (state, input) addresses are programmed with the *hold*
word — same state, all-zero outputs — matching the reference simulation
semantics, so the ROM is a total function.  Addresses whose state field
is no encoded state hold word 0; they are unreachable because the state
feedback only ever carries real codes (the latch resets to code 0 = the
reset state, paper §4.2).

Like the paper's program, :func:`generate_contents` writes the table by
transition, not by address: each state's block is written cube by cube
with :func:`repro.fsm.machine.write_block` (the writer of the machine's
next-state image, :meth:`repro.fsm.machine.FSM.image`) from the state's
step rows, their cubes projected onto the input columns its address
carries, and each distinct word is packed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.fsm.encoding import StateEncoding
from repro.fsm.machine import FSM, FsmError, write_block
from repro.romfsm.compaction import ColumnCompaction

__all__ = ["RomLayout", "generate_contents"]


@dataclass(frozen=True)
class RomLayout:
    """Bit placement of the FSM word inside the memory.

    Attributes
    ----------
    input_bits:
        Address bits carrying the (possibly compacted) FSM inputs.
    state_bits:
        Address/data bits carrying the state code.
    output_bits:
        Data bits carrying the outputs (0 when outputs are external).
    """

    input_bits: int
    state_bits: int
    output_bits: int

    @property
    def addr_bits(self) -> int:
        return self.input_bits + self.state_bits

    @property
    def data_bits(self) -> int:
        return self.output_bits + self.state_bits

    @property
    def depth(self) -> int:
        return 1 << self.addr_bits

    def make_address(self, state_code: int, input_value: int) -> int:
        """Pack (state, input) into an address (inputs at the LSB)."""
        if input_value >> self.input_bits:
            raise ValueError(f"input value {input_value:#x} too wide")
        if state_code >> self.state_bits:
            raise ValueError(f"state code {state_code:#x} too wide")
        return (state_code << self.input_bits) | input_value

    def make_word(self, next_code: int, outputs: int) -> int:
        """Pack (next state, outputs) into a data word (outputs at the LSB)."""
        if outputs >> max(1, self.output_bits) and self.output_bits == 0:
            raise ValueError("layout has no output bits but outputs given")
        if self.output_bits and outputs >> self.output_bits:
            raise ValueError(f"outputs {outputs:#x} too wide")
        if next_code >> self.state_bits:
            raise ValueError(f"state code {next_code:#x} too wide")
        return (next_code << self.output_bits) | outputs

    def split_word(self, word: int) -> "tuple[int, int]":
        """Unpack a data word into (next_state_code, outputs)."""
        outputs = word & ((1 << self.output_bits) - 1) if self.output_bits else 0
        next_code = word >> self.output_bits
        return next_code, outputs

    def split_address(self, addr: int) -> "tuple[int, int]":
        """Unpack an address into (state_code, input_value)."""
        inputs = addr & ((1 << self.input_bits) - 1) if self.input_bits else 0
        state_code = addr >> self.input_bits
        return state_code, inputs


def generate_contents(
    fsm: FSM,
    encoding: StateEncoding,
    layout: RomLayout,
    compaction: Optional[ColumnCompaction] = None,
) -> List[int]:
    """Program the STG into a word list of length ``layout.depth``.

    Each state's block is written cube by cube
    (:func:`~repro.fsm.machine.write_block`) from its step rows
    (:meth:`FSM.rows`), first match winning: each distinct
    next-state/output word is packed once and stored at every address
    its cube covers.  With ``compaction`` given, those columns are the
    state's selected columns (sound because every cube of a state binds
    only that state's care columns), so a block has ``2**len(columns)``
    words whatever the machine's input width.  Compacted positions a
    state does not use replicate its block, so the multiplexer tie-off
    value is irrelevant.
    """
    if encoding.encode(fsm.reset_state) != 0:
        raise FsmError(
            "ROM mapping requires the reset state at code 0: the BRAM "
            "output latch clears to 0 and must address the initial state"
        )
    if compaction is not None and compaction.num_inputs != fsm.num_inputs:
        raise FsmError("compaction table built for a different input count")
    expected_inputs = compaction.width if compaction is not None else fsm.num_inputs
    if layout.input_bits != expected_inputs:
        raise FsmError(
            f"layout has {layout.input_bits} input bits, expected {expected_inputs}"
        )
    if encoding.width != layout.state_bits:
        raise FsmError("layout state width does not match the encoding")

    words = [0] * layout.depth
    for state in fsm.states:
        code = encoding.encode(state)
        width = fsm.num_inputs
        if compaction is not None:
            columns = compaction.columns_for(state)
            width = len(columns)
            selected = sum(1 << col for col in columns)
        packed: Dict[Tuple[str, int], int] = {}
        rows = []
        for care, value, dst, out in fsm.rows(state):
            if compaction is not None:
                # The block's address reads only the selected columns, the
                # others as 0: a row binding one of those to 1 matches
                # nothing here, and the rest lose the unselected literals.
                if value & ~selected:
                    continue
                care = compaction.compact_input(state, care)
                value = compaction.compact_input(state, value)
            word = packed.get((dst, out))
            if word is None:
                word = packed[dst, out] = layout.make_word(
                    encoding.encode(dst), out if layout.output_bits else 0
                )
            rows.append((care, value, word))
        block = write_block(rows, width, layout.make_word(code, 0))
        start = layout.make_address(code, 0)
        words[start:start + (1 << layout.input_bits)] = (
            block * (1 << (layout.input_bits - width))
        )
    return words
