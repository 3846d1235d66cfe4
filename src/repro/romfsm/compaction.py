"""Column compaction: per-state removal of don't-care input columns.

Paper section 4.2 / Fig. 4: "The input bits in the STG of some FSMs may
contain many don't-care bits.  If these don't-care bits are separated
from the input bits, fewer input bits will be required to determine the
state transition for each state. [...] Since the position of the don't
care bits can differ for different states, an input encoder is needed to
select the corresponding inputs for each state."

For each state we take the union of the *care* columns over its outgoing
cubes; the compacted width ``i`` is the maximum number of care columns
any state uses (Fig. 5 line 11).  A per-state selector table maps
compacted address position ``j`` to the original input index it carries
in that state; unused positions are tied to constant 0 (and the ROM
contents are additionally replicated across them, so the tie-off value
is not load-bearing).

:func:`ColumnCompaction.build_mux_network` synthesizes the input
multiplexer as LUT logic — the only LUTs the ROM implementation needs
besides Moore output functions (paper §5: "only those benchmark circuits
which need an input multiplexer require LUTs in addition to the
blockrams").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.fsm.encoding import StateEncoding
from repro.fsm.machine import FSM
from repro.logic.lutmap import LutMapping, map_network
from repro.logic.network import LogicNetwork, sop_to_network

__all__ = ["ColumnCompaction", "compact_columns"]


@dataclass(frozen=True)
class ColumnCompaction:
    """Result of per-state column compaction.

    Attributes
    ----------
    width:
        Compacted input width ``i`` (paper Fig. 5 line 11).
    state_columns:
        For every state, the ordered original input indices that occupy
        compacted positions ``0..len-1``; positions ``len..width-1`` are
        unused for that state (tied to 0).
    num_inputs:
        Original input count, kept for validation.
    """

    width: int
    state_columns: Dict[str, Tuple[int, ...]]
    num_inputs: int

    def columns_for(self, state: str) -> Tuple[int, ...]:
        try:
            return self.state_columns[state]
        except KeyError:
            raise KeyError(f"state {state!r} not in compaction table") from None

    def compact_input(self, state: str, input_bits: int) -> int:
        """Project a full input vector onto the compacted positions."""
        cols = self.columns_for(state)
        compacted = 0
        for j, col in enumerate(cols):
            if (input_bits >> col) & 1:
                compacted |= 1 << j
        return compacted

    def expansion_count(self, state: str) -> int:
        """Free compacted positions for ``state`` (content replication)."""
        return self.width - len(self.columns_for(state))

    @property
    def saves_bits(self) -> bool:
        return self.width < self.num_inputs

    def build_mux_network(
        self, encoding: StateEncoding, k: int = 4
    ) -> LutMapping:
        """Synthesize the per-state input multiplexer as mapped LUTs.

        For each compacted position ``j`` the hardware is a genuine
        multiplexer (paper Fig. 4, "an input encoder is needed to select
        the corresponding inputs for each state"), built in two stages:

        1. a *select encoder*: the distinct input columns used at
           position ``j`` are numbered, and ``ceil(log2 n)`` select
           functions of the state bits are synthesized (with unused
           state codes as don't-cares);
        2. a *mux tree* of 2:1 multiplexers over those columns, steered
           by the select bits.

        This is how a synthesis tool realizes a state-steered input
        selector, and it costs a handful of LUTs per position instead of
        a per-state decode network.
        """
        from repro.logic.cube import Cover, Cube
        from repro.logic.minimize import espresso

        net = LogicNetwork()
        state_ids = [net.add_input(encoding.bit_name(b)) for b in range(encoding.width)]
        input_ids = [net.add_input(f"in{i}") for i in range(self.num_inputs)]
        s = encoding.width

        # Don't-care cubes: unused state codes.
        used_codes = set(encoding.codes.values())
        dc_cubes = []
        for code in range(1 << s):
            if code in used_codes:
                continue
            cube = Cube.full(s)
            for b in range(s):
                bound = cube.restrict_var(b, (code >> b) & 1)
                assert bound is not None
                cube = bound
            dc_cubes.append(cube)

        def state_cube(code: int) -> Cube:
            cube = Cube.full(s)
            for b in range(s):
                bound = cube.restrict_var(b, (code >> b) & 1)
                assert bound is not None
                cube = bound
            return cube

        for j in range(self.width):
            # Distinct columns feeding position j (order-stable).
            columns: List[int] = []
            for state in self.state_columns:
                cols = self.state_columns[state]
                if j < len(cols) and cols[j] not in columns:
                    columns.append(cols[j])
            if not columns:
                net.set_output(f"mux{j}", net.const(0))
                continue
            if len(columns) == 1:
                # Every state reads the same column: plain wire (states
                # not using position j read a don't-care word anyway).
                net.set_output(f"mux{j}", input_ids[columns[0]])
                continue
            index_of = {col: idx for idx, col in enumerate(columns)}
            sel_bits = max(1, (len(columns) - 1).bit_length())
            # Select functions of the state bits, minimized with the
            # unused-code don't-cares.
            sel_ids: List[int] = []
            for bit in range(sel_bits):
                on = Cover(s)
                for state, cols in self.state_columns.items():
                    if j < len(cols):
                        idx = index_of[cols[j]]
                        if (idx >> bit) & 1:
                            on.append(state_cube(encoding.encode(state)))
                minimized = espresso(on, Cover(s, dc_cubes))
                sub = sop_to_network({f"_sel{j}_{bit}": minimized},
                                     encoding.bit_names, network=net)
                sel_ids.append(net.outputs[f"_sel{j}_{bit}"])
                net.remove_output(f"_sel{j}_{bit}")
            # Mux tree over the columns.
            lanes = [input_ids[col] for col in columns]
            for bit, sel in enumerate(sel_ids):
                nxt: List[int] = []
                for pos in range(0, len(lanes), 2):
                    if pos + 1 < len(lanes):
                        nxt.append(net.mux(sel, lanes[pos], lanes[pos + 1]))
                    else:
                        nxt.append(lanes[pos])
                lanes = nxt
            net.set_output(f"mux{j}", lanes[0])
        return map_network(net, k=k)


def compact_columns(fsm: FSM) -> ColumnCompaction:
    """Compute the per-state care columns and the compacted width.

    A column is kept for a state when *any* outgoing cube binds it
    (paper: all rows specific to a state must have the don't-care at the
    same position for it to be removable).
    """
    state_columns: Dict[str, Tuple[int, ...]] = {}
    width = 0
    for state in fsm.states:
        used_mask = 0
        for t in fsm.transitions_from(state):
            used_mask |= t.inputs.care_mask()
        cols = tuple(i for i in range(fsm.num_inputs) if (used_mask >> i) & 1)
        state_columns[state] = cols
        width = max(width, len(cols))
    return ColumnCompaction(
        width=width, state_columns=state_columns, num_inputs=fsm.num_inputs
    )
