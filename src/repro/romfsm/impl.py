"""The ROM-based FSM implementation object and its simulator.

:class:`RomFsmImplementation` bundles everything the paper's Fig. 1b/2b
structure contains: the configured block RAM(s) holding the STG, the
dense state encoding, the optional input multiplexer (column
compaction), the optional external Moore output LUTs, and the optional
idle-state enable logic.  :meth:`RomFsmImplementation.run` is the
cycle-accurate model used both for equivalence checking against the
reference FSM and for extracting the switching activities the power
estimator consumes.  It is the one simulator of this implementation:
it evaluates the whole stimulus as packed words and verifies itself
against the programmed ROM words and, when outputs are external, the
Moore output LUTs against the STG, raising on any disagreement.

Output timing note: outputs stored in the memory word are *registered*
(they appear in the BRAM output latch at the clock edge that consumes
the inputs), whereas the FF baseline's Mealy outputs are combinational.
Both produce the same output *sequence* for the same stimulus — cycle
``k`` of the returned stream is the output of transition ``k`` in both
cases — which is what the equivalence tests compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.arch.bram import BlockRam, BramConfig
from repro.arch.device import Utilization
from repro.arch.memblock import VIRTEX2_BRAM, Virtex2BramModel
from repro.fsm.encoding import StateEncoding
from repro.fsm.machine import FSM, FsmError
from repro.fsm.simulate import divergence
from repro.logic.lutmap import LutMapping
from repro.romfsm.clock_control import ClockControl
from repro.romfsm.compaction import ColumnCompaction
from repro.romfsm.contents import RomLayout, generate_contents
from repro.synth import codegen
from repro.synth.wordsim import (
    pack_bit_column,
    transpose_words,
    word_toggles,
)

__all__ = ["RomTrace", "RomFsmImplementation"]


@dataclass
class RomTrace:
    """Per-net switching statistics and streams from one ROM-FSM run."""

    num_cycles: int
    output_stream: List[int]
    state_stream: List[str]
    # Top-level signal toggle counts: address pins ("addr{i}"), data-out
    # pins ("q{i}"), primary inputs ("in{i}"), and "en".
    signal_toggles: Dict[str, int]
    # Internal LUT-net toggles of the three auxiliary mappings.
    mux_toggles: Dict[str, int]
    moore_toggles: Dict[str, int]
    control_toggles: Dict[str, int]
    enabled_edges: int

    @property
    def enable_duty(self) -> float:
        """Fraction of edges with EN asserted (1.0 without clock control)."""
        if self.num_cycles == 0:
            return 1.0
        return self.enabled_edges / self.num_cycles

    def activity(self, signal: str) -> float:
        if self.num_cycles == 0:
            return 0.0
        return self.signal_toggles.get(signal, 0) / self.num_cycles


@dataclass
class RomFsmImplementation:
    """A fully mapped ROM-based FSM.

    Attributes
    ----------
    fsm / encoding / layout:
        The machine, its dense state encoding (reset at code 0), and the
        address/data word layout.
    config:
        Aspect ratio of each physical BRAM used.
    parallel_brams / series_brams:
        Physical block counts from the Fig. 5 joining steps; the total
        block count is their product.
    contents:
        The programmed words (logical view across parallel blocks).
    compaction / mux_mapping:
        Column-compaction table and its mapped input multiplexer, when
        the Fig. 4 path was taken.
    moore_output_mapping:
        LUT logic computing the outputs from the state bits (Fig. 3),
        when outputs are external; the ROM word then has no output field.
    clock_control:
        The §6 enable logic, when requested.
    backend:
        The memory-block record (:data:`~repro.arch.memblock.VIRTEX2_BRAM`).
        It is a dataclass field only so that the artifact fingerprint
        keeps committing to the block's parameters.
    """

    fsm: FSM
    encoding: StateEncoding
    layout: RomLayout
    config: BramConfig
    contents: List[int]
    parallel_brams: int = 1
    series_brams: int = 1
    compaction: Optional[ColumnCompaction] = None
    mux_mapping: Optional[LutMapping] = None
    moore_output_mapping: Optional[LutMapping] = None
    clock_control: Optional[ClockControl] = None
    backend: Virtex2BramModel = VIRTEX2_BRAM

    def __post_init__(self) -> None:
        if len(self.contents) != self.layout.depth:
            raise FsmError(
                f"contents length {len(self.contents)} != layout depth "
                f"{self.layout.depth}"
            )
        self._rom = BlockRam(
            BramConfig(self.layout.depth, max(1, self.layout.data_bits)),
            self.contents,
        )

    # ------------------------------------------------------------------
    # Resource accounting
    # ------------------------------------------------------------------

    @property
    def num_brams(self) -> int:
        return self.parallel_brams * self.series_brams

    @property
    def num_luts(self) -> int:
        total = 0
        if self.mux_mapping is not None:
            total += self.mux_mapping.num_luts
        if self.moore_output_mapping is not None:
            total += self.moore_output_mapping.num_luts
        if self.clock_control is not None:
            total += self.clock_control.num_luts
        return total

    @property
    def utilization(self) -> Utilization:
        return Utilization(luts=self.num_luts, ffs=0, brams=self.num_brams)

    @property
    def outputs_in_rom(self) -> bool:
        return self.layout.output_bits > 0

    @property
    def mux_levels(self) -> int:
        return self.mux_mapping.depth if self.mux_mapping is not None else 0

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------

    def run(self, stimulus: List[int], collect_nets: bool = True) -> RomTrace:
        """Simulate from reset; counts per-signal toggles for the power model.

        Word-parallel: the state/output trajectory is first read from
        the machine's next-state table (:meth:`FSM.image`, one lookup
        per cycle), the mux/Moore/enable LUT mappings are then evaluated
        over the whole trace as packed big-int words
        (:mod:`repro.synth.codegen`), and the trajectory is verified
        against the actual ROM words and enable decisions, and the
        external Moore output LUTs against the trajectory's STG outputs.
        An implementation that disagrees with its STG raises
        :func:`~repro.fsm.simulate.divergence` at the first diverging
        cycle.  An out-of-range input vector raises ``ValueError``.
        Either error leaves the BRAM statistics untouched; a verified
        run commits the clock edges, enabled edges and latched word.
        """
        num_cycles = len(stimulus)
        fsm = self.fsm
        encoding = self.encoding
        layout = self.layout
        width = encoding.width

        limit = 1 << fsm.num_inputs
        for input_bits in stimulus:
            if not 0 <= input_bits < limit:
                raise ValueError(f"input vector {input_bits:#x} out of range")

        # Trajectory guess from the STG's next-state table; verified
        # below against the ROM words and the Moore output LUTs.
        image = fsm.image()
        state = fsm.reset_state
        codes: List[int] = [encoding.encode(state)]
        stg_outs: List[int] = []
        for input_bits in stimulus:
            state, out = image[state][input_bits]
            codes.append(encoding.encode(state))
            stg_outs.append(out)
        ref_outs = stg_outs if layout.output_bits else [0] * num_cycles

        current_codes = codes[:num_cycles]
        mask = (1 << num_cycles) - 1
        state_words = codegen.pack_bit_columns(current_codes, width)
        stim_words = codegen.pack_bit_columns(stimulus, fsm.num_inputs)

        def base_words() -> Dict[str, int]:
            words = {
                encoding.bit_name(b): state_words[b] for b in range(width)
            }
            for i in range(fsm.num_inputs):
                words[f"in{i}"] = stim_words[i]
            return words

        mux_nets: Optional[Dict[str, int]] = None
        if self.compaction is not None:
            assert self.mux_mapping is not None
            mux_nets = codegen.evaluate_words(
                self.mux_mapping, base_words(), mask
            )
            out_nets = self.mux_mapping.outputs
            compacted_list = transpose_words(
                [
                    mux_nets[out_nets[f"mux{j}"]]
                    for j in range(self.compaction.width)
                ],
                num_cycles,
            )
        else:
            compacted_list = list(stimulus)

        addrs = [
            layout.make_address(code, compacted)
            for code, compacted in zip(current_codes, compacted_list)
        ]

        ctl_nets: Optional[Dict[str, int]] = None
        if self.clock_control is not None:
            cc = self.clock_control
            words = base_words()
            if cc.compares_outputs:
                # fb_out sees the output latched *before* each cycle.
                fb = [0] + ref_outs[:-1]
                for o in range(fsm.num_outputs):
                    words[f"fb_out{o}"] = pack_bit_column(fb, o)
            ctl_nets = codegen.evaluate_words(cc.mapping, words, mask)
            en_word = ctl_nets[cc.mapping.outputs["en"]]
        else:
            en_word = mask

        moore_nets: Optional[Dict[str, int]] = None
        moore_at: Optional[int] = None
        if self.moore_output_mapping is not None:
            moore_nets = codegen.evaluate_words(
                self.moore_output_mapping, base_words(), mask
            )
            out_nets = self.moore_output_mapping.outputs
            observed_list = transpose_words(
                [
                    moore_nets[out_nets[f"out{o}"]]
                    for o in range(fsm.num_outputs)
                ],
                num_cycles,
            )
            # The output LUTs must compute the STG's outputs along the
            # trajectory.
            if observed_list != stg_outs:
                moore_at = next(
                    k for k, (seen, want) in enumerate(zip(observed_list, stg_outs))
                    if seen != want
                )
        else:
            observed_list = ref_outs

        # Replay the memory reads: verify the guessed trajectory against
        # the actual programmed words with the compiled replay for this
        # word layout.  By induction, a full match means a per-cycle
        # evaluation would compute exactly these states, outputs and net
        # values.
        clocked = self.clock_control is not None
        replay = codegen.compiled_replay(clocked, layout.output_bits)
        if clocked:
            full_state_words = codegen.pack_bit_columns(codes, width)
            out_bit_words = codegen.pack_bit_columns(
                ref_outs, layout.output_bits
            )
        else:
            full_state_words = out_bit_words = []
        enabled, last_read, diverged_at = replay(
            self._rom.words, addrs, codes, ref_outs,
            en_word, mask, full_state_words, out_bit_words,
        )
        label = "ROM+clock-control" if clocked else "ROM"
        if moore_at is not None and (diverged_at is None or moore_at < diverged_at):
            raise divergence(fsm, label, moore_at)
        if diverged_at is not None:
            raise divergence(fsm, label, diverged_at)

        signal_toggles: Dict[str, int] = {}

        def count_word(tag: str, bit_words: List[int]) -> None:
            for b, word in enumerate(bit_words):
                toggles = word_toggles(word, num_cycles)
                if toggles:
                    signal_toggles[f"{tag}{b}"] = toggles

        count_word("in", stim_words)
        count_word("addr", codegen.pack_bit_columns(addrs, layout.addr_bits))
        count_word("en", [en_word])
        q_list = [
            layout.make_word(codes[k + 1], ref_outs[k])
            for k in range(num_cycles)
        ]
        count_word("q", codegen.pack_bit_columns(q_list, layout.data_bits))

        def net_toggle_counts(nets: Optional[Dict[str, int]]) -> Dict[str, int]:
            counts: Dict[str, int] = {}
            if collect_nets and nets is not None:
                for name, word in nets.items():
                    toggles = word_toggles(word, num_cycles)
                    if toggles:
                        counts[name] = toggles
            return counts

        # Trajectory confirmed: commit the BRAM statistics that clocking
        # the block edge by edge would have accumulated.
        self._rom.total_edges += num_cycles
        self._rom.enabled_edges += enabled
        if last_read is not None:
            self._rom.output = last_read
        return RomTrace(
            num_cycles=num_cycles,
            output_stream=observed_list,
            state_stream=(
                [fsm.reset_state]
                + [encoding.decode(code) for code in codes[1:]]
            ),
            signal_toggles=signal_toggles,
            mux_toggles=net_toggle_counts(mux_nets),
            moore_toggles=net_toggle_counts(moore_nets),
            control_toggles=net_toggle_counts(ctl_nets),
            enabled_edges=enabled,
        )

    # ------------------------------------------------------------------
    # In-field functionality change (paper §4.2 / ECO path)
    # ------------------------------------------------------------------

    def rewrite_contents(self, new_fsm: FSM) -> None:
        """Reprogram the memory for ``new_fsm`` without re-synthesis.

        This is the paper's engineering-change path: "changes can be made
        quickly by re-writing the memory location ... much faster than
        going through the complete synthesis and placement and routing
        process."  The new machine must keep the interface and the
        structural envelope fixed (state set, inputs, outputs, and —
        when compaction is in use — each state's care-column set must
        stay within the existing multiplexer table), because only memory
        words change; the fabric is untouched.
        """
        if (
            new_fsm.num_inputs != self.fsm.num_inputs
            or new_fsm.num_outputs != self.fsm.num_outputs
        ):
            raise FsmError("ECO rewrite cannot change the FSM interface")
        if set(new_fsm.states) != set(self.fsm.states):
            raise FsmError("ECO rewrite cannot add or remove states")
        if new_fsm.reset_state != self.fsm.reset_state:
            raise FsmError("ECO rewrite cannot move the reset state")
        new_fsm.validate()
        if self.moore_output_mapping is not None:
            raise FsmError(
                "outputs are baked into fabric LUTs (Moore/Fig. 3); "
                "an ECO that changes outputs requires re-synthesis"
            )
        if self.clock_control is not None:
            raise FsmError(
                "the idle-detection logic is baked into fabric LUTs; "
                "rewrite the contents before adding clock control"
            )
        if self.compaction is not None:
            from repro.romfsm.compaction import compact_columns

            new_compaction = compact_columns(new_fsm)
            for state in new_fsm.states:
                old_cols = set(self.compaction.columns_for(state))
                if not set(new_compaction.columns_for(state)) <= old_cols:
                    raise FsmError(
                        f"state {state!r} now reads input columns outside "
                        f"the existing multiplexer table; re-synthesis needed"
                    )
            # Reuse the existing selector table: content generation only
            # needs each cube's care columns to be a subset of it.
            contents = generate_contents(
                new_fsm, self.encoding, self.layout, self.compaction
            )
        else:
            contents = generate_contents(new_fsm, self.encoding, self.layout)
        self.contents = contents
        self._rom.load(contents)
        self.fsm = new_fsm
