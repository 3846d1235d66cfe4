"""Cycle-accurate simulation of the mapped FF netlist with per-net
switching statistics.

This is the ModelSim + ``.vcd`` stage of the paper's flow applied to the
FF baseline: the netlist is clocked through a stimulus and every net's
toggle count is recorded.  :mod:`repro.power.activity` converts the
counts into the switching activities the XPower-style estimator needs.

The simulation is word-parallel: the state stream is derived first from
the STG (cheap table lookups), every combinational net is then evaluated
over the whole trace at once as one packed big-int word, and the derived
state stream is verified against the netlist's own next-state words.  A
netlist that disagrees with its STG raises
:func:`~repro.fsm.simulate.divergence` at the first diverging cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.fsm.simulate import divergence
from repro.synth import codegen
from repro.synth.ff_synth import FfImplementation
from repro.synth.wordsim import transpose_words, word_toggles

__all__ = ["NetlistTrace", "net_words", "simulate_ff_netlist"]


@dataclass
class NetlistTrace:
    """Result of simulating an FF netlist.

    Attributes
    ----------
    num_cycles:
        Clock cycles simulated.
    output_stream:
        Packed output bits per cycle (bit ``i`` = ``out{i}``).
    state_stream:
        Decoded state names (length ``num_cycles + 1``, reset first).
    net_toggles:
        Per-net 0<->1 transition counts over the run, covering every LUT
        output, every primary input, and the registered state bits.
    ff_output_toggles:
        Toggles of the state FF outputs only (clock-load accounting).
    """

    num_cycles: int
    output_stream: List[int]
    state_stream: List[str]
    net_toggles: Dict[str, int]
    ff_output_toggles: int

    def activity(self, net: str) -> float:
        """Average toggles per cycle for ``net`` (0.0 for unseen nets)."""
        if self.num_cycles == 0:
            return 0.0
        return self.net_toggles.get(net, 0) / self.num_cycles


def simulate_ff_netlist(
    impl: FfImplementation, stimulus: List[int]
) -> NetlistTrace:
    """Clock ``impl`` through ``stimulus`` from reset, counting toggles.

    The state register initializes to the reset state's code (the FPGA
    GSR behaviour); combinational nets settle once per cycle, which is
    the zero-delay model XPower's default (toggle-per-cycle) activity
    numbers correspond to.  The net values come from :func:`net_words`.
    """
    num_cycles = len(stimulus)
    fsm = impl.fsm
    encoding = impl.encoding
    codes, state_words, nets = net_words(impl, stimulus)

    out_nets = impl.mapping.outputs
    outputs = transpose_words(
        [nets[out_nets[f"out{i}"]] for i in range(fsm.num_outputs)],
        num_cycles,
    )

    net_toggles: Dict[str, int] = {}
    for name, word in nets.items():
        toggles = word_toggles(word, num_cycles)
        if toggles:
            net_toggles[name] = toggles

    ff_toggles = 0
    for word in state_words:
        ff_toggles += word_toggles(word, num_cycles + 1)

    decode = {encoding.encode(s): s for s in fsm.states}
    return NetlistTrace(
        num_cycles=num_cycles,
        output_stream=outputs,
        state_stream=[decode[code] for code in codes],
        net_toggles=net_toggles,
        ff_output_toggles=ff_toggles,
    )


def net_words(
    impl: FfImplementation, stimulus: List[int]
) -> Tuple[List[int], List[int], Dict[str, int]]:
    """Every net of ``impl`` over ``stimulus``, one packed word per net.

    Returns ``(codes, state_words, nets)``: the state codes of the
    ``len(stimulus) + 1`` samples from reset, their per-bit packed
    words, and the packed word of every net (bit ``k`` is cycle ``k``).
    The trajectory steps the STG (:meth:`repro.fsm.machine.FSM.step`)
    and the netlist is the compiled straight-line function of
    :mod:`repro.synth.codegen`.  The trajectory is then checked against
    the netlist's own next-state words; a mismatch raises
    :func:`~repro.fsm.simulate.divergence` at the first diverging cycle.
    """
    num_cycles = len(stimulus)
    fsm = impl.fsm
    encoding = impl.encoding
    width = encoding.width
    # The netlist truncates input vectors to the declared input count,
    # so the STG lookup must too.
    in_limit = (1 << fsm.num_inputs) - 1

    state = fsm.reset_state
    codes = [encoding.encode(state)]
    for input_bits in stimulus:
        state, _ = fsm.step(state, input_bits & in_limit)
        codes.append(encoding.encode(state))

    # One pack over all num_cycles + 1 samples per state bit: bits
    # 0..n-1 are the codes *during* each cycle (what the state input
    # nets see), the word shifted right by one gives the next-state
    # column the verification needs.
    state_words = codegen.pack_bit_columns(codes, width)
    stim_words = codegen.pack_bit_columns(stimulus, fsm.num_inputs)

    mask = (1 << num_cycles) - 1
    input_words: Dict[str, int] = {
        encoding.bit_name(b): state_words[b] & mask for b in range(width)
    }
    for i in range(fsm.num_inputs):
        input_words[f"in{i}"] = stim_words[i]

    nets = codegen.evaluate_words(impl.mapping, input_words, mask)

    # By induction, equality here means a per-cycle simulation would
    # visit exactly these states and compute exactly these net values.
    out_nets = impl.mapping.outputs
    bad = 0
    for b in range(width):
        bad |= (nets[out_nets[f"ns{b}"]] ^ (state_words[b] >> 1)) & mask
    if bad:
        raise divergence(fsm, "FF", (bad & -bad).bit_length() - 1)
    return codes, state_words, nets
