"""Per-cycle and per-address oracles for the fast paths.

:func:`repro.synth.netsim.simulate_ff_netlist` and
:meth:`repro.romfsm.impl.RomFsmImplementation.run` evaluate a whole
stimulus at once as packed words.  The evaluators here clock one cycle
per call, straight from the LUT truth tables and the block RAM model,
and are what the differential tests compare the word-parallel paths
against: streams, every toggle count, and the BRAM edge statistics.

:func:`generate_contents_reference` and
:func:`idle_biased_stimulus_reference` call :meth:`FSM.step` once per
memory address and once per stimulus probe; the ROM words and the
stimulus streams of :mod:`repro.romfsm.contents` and
:mod:`repro.fsm.simulate` must equal theirs exactly.
"""

import random
from typing import Dict, List, Optional, Tuple

from repro.fsm.machine import FsmError
from repro.romfsm.impl import RomTrace
from repro.synth.netsim import NetlistTrace

__all__ = [
    "combinational_inputs",
    "generate_contents_reference",
    "idle_biased_stimulus_reference",
    "run_reference",
    "simulate_ff_netlist_reference",
    "step",
]


# ----------------------------------------------------------------------
# ROM contents and idle-biased stimulus, one FSM.step per address/probe
# ----------------------------------------------------------------------


def generate_contents_reference(fsm, encoding, layout, compaction=None) -> List[int]:
    """The ROM words, stepping the machine at every memory address."""
    if encoding.encode(fsm.reset_state) != 0:
        raise FsmError("ROM mapping requires the reset state at code 0")
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
        if compaction is None:
            for input_bits in range(1 << fsm.num_inputs):
                dst, out = fsm.step(state, input_bits)
                addr = layout.make_address(code, input_bits)
                words[addr] = layout.make_word(
                    encoding.encode(dst), out if layout.output_bits else 0
                )
            continue
        cols = compaction.columns_for(state)
        used = len(cols)
        for compact_value in range(1 << layout.input_bits):
            base = compact_value & ((1 << used) - 1) if used else 0
            # Representative full input vector for this projection class.
            representative = 0
            for j, col in enumerate(cols):
                if (base >> j) & 1:
                    representative |= 1 << col
            dst, out = fsm.step(state, representative)
            addr = layout.make_address(code, compact_value)
            words[addr] = layout.make_word(
                encoding.encode(dst), out if layout.output_bits else 0
            )
    return words


def idle_biased_stimulus_reference(
    fsm,
    num_cycles: int,
    idle_fraction: float = 0.5,
    seed: int = 0,
    max_probes: int = 96,
) -> List[int]:
    """The idle-biased stimulus, one ``randrange`` and one step per probe."""
    rng = random.Random(seed)
    limit = 1 << fsm.num_inputs
    stimulus: List[int] = []
    state = fsm.reset_state
    prev_output: Optional[int] = None
    idle_count = 0

    def is_idle(nxt: str, out: int) -> bool:
        same_out = prev_output is None and out == 0 or out == prev_output
        return nxt == state and same_out

    for cycle in range(num_cycles):
        want_idle = idle_count < idle_fraction * (cycle + 1)
        chosen: Optional[Tuple[int, str, int]] = None
        fallback: Optional[Tuple[int, str, int]] = None
        for _probe in range(max_probes):
            candidate = rng.randrange(limit)
            nxt, out = fsm.step(state, candidate)
            if is_idle(nxt, out) == want_idle:
                chosen = (candidate, nxt, out)
                break
            if want_idle and nxt == state and fallback is None:
                fallback = (candidate, nxt, out)
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


# ----------------------------------------------------------------------
# FF netlist
# ----------------------------------------------------------------------


def combinational_inputs(impl, state_code: int, input_bits: int) -> Dict[str, int]:
    """Input-net values for one cycle of FF netlist evaluation."""
    values: Dict[str, int] = {}
    for i in range(impl.encoding.width):
        values[impl.encoding.bit_name(i)] = (state_code >> i) & 1
    for i in range(impl.fsm.num_inputs):
        values[f"in{i}"] = (input_bits >> i) & 1
    return values


def simulate_ff_netlist_reference(impl, stimulus: List[int]) -> NetlistTrace:
    """Per-cycle reference evaluator (the oracle for equivalence tests)."""
    fsm = impl.fsm
    encoding = impl.encoding
    code = encoding.encode(fsm.reset_state)

    net_toggles: Dict[str, int] = {}
    prev_nets: Dict[str, int] = {}
    ff_toggles = 0
    outputs: List[int] = []
    states: List[str] = [fsm.reset_state]

    for input_bits in stimulus:
        values = combinational_inputs(impl, code, input_bits)
        nets = impl.mapping.evaluate_all_nets(values)
        for name, value in nets.items():
            prev = prev_nets.get(name)
            if prev is not None and prev != value:
                net_toggles[name] = net_toggles.get(name, 0) + 1
        prev_nets = nets

        out_nets = impl.mapping.outputs
        next_code = 0
        for i in range(encoding.width):
            if nets[out_nets[f"ns{i}"]]:
                next_code |= 1 << i
        out = 0
        for i in range(fsm.num_outputs):
            if nets[out_nets[f"out{i}"]]:
                out |= 1 << i
        ff_toggles += bin(code ^ next_code).count("1")
        code = next_code
        outputs.append(out)
        states.append(encoding.decode(code))

    return NetlistTrace(
        num_cycles=len(stimulus),
        output_stream=outputs,
        state_stream=states,
        net_toggles=net_toggles,
        ff_output_toggles=ff_toggles,
    )


# ----------------------------------------------------------------------
# ROM implementation
# ----------------------------------------------------------------------


def _mux_values(
    impl, state_code: int, input_bits: int
) -> Tuple[int, Dict[str, int]]:
    """Compacted input value and all mux-net values for one cycle."""
    assert impl.mux_mapping is not None and impl.compaction is not None
    values: Dict[str, int] = {}
    for b in range(impl.encoding.width):
        values[impl.encoding.bit_name(b)] = (state_code >> b) & 1
    for i in range(impl.fsm.num_inputs):
        values[f"in{i}"] = (input_bits >> i) & 1
    nets = impl.mux_mapping.evaluate_all_nets(values)
    out_nets = impl.mux_mapping.outputs
    compacted = 0
    for j in range(impl.compaction.width):
        if nets[out_nets[f"mux{j}"]]:
            compacted |= 1 << j
    return compacted, nets


def _moore_values(impl, state_code: int) -> Tuple[int, Dict[str, int]]:
    assert impl.moore_output_mapping is not None
    values = {
        impl.encoding.bit_name(b): (state_code >> b) & 1
        for b in range(impl.encoding.width)
    }
    nets = impl.moore_output_mapping.evaluate_all_nets(values)
    out_nets = impl.moore_output_mapping.outputs
    out = 0
    for o in range(impl.fsm.num_outputs):
        if nets[out_nets[f"out{o}"]]:
            out |= 1 << o
    return out, nets


def _control_values(
    impl, state_code: int, input_bits: int, latched_out: int
) -> Tuple[int, Dict[str, int]]:
    assert impl.clock_control is not None
    cc = impl.clock_control
    values: Dict[str, int] = {}
    for b in range(impl.encoding.width):
        values[impl.encoding.bit_name(b)] = (state_code >> b) & 1
    for i in range(impl.fsm.num_inputs):
        values[f"in{i}"] = (input_bits >> i) & 1
    if cc.compares_outputs:
        for o in range(impl.fsm.num_outputs):
            values[f"fb_out{o}"] = (latched_out >> o) & 1
    nets = cc.mapping.evaluate_all_nets(values)
    return nets[cc.mapping.outputs["en"]], nets


def step(
    impl, state_code: int, latched_out: int, input_bits: int
) -> Tuple[int, int, int, int]:
    """One clock edge without statistics.

    Returns ``(next_state_code, next_latched_out, observed_output, en)``.
    """
    if impl.compaction is not None:
        compacted, _ = _mux_values(impl, state_code, input_bits)
    else:
        compacted = input_bits
    addr = impl.layout.make_address(state_code, compacted)
    en = 1
    if impl.clock_control is not None:
        en, _ = _control_values(impl, state_code, input_bits, latched_out)
    if impl.moore_output_mapping is not None:
        observed, _ = _moore_values(impl, state_code)
    if en:
        word = impl._rom.peek(addr)
        next_code, out_field = impl.layout.split_word(word)
    else:
        next_code, out_field = state_code, latched_out
    if impl.moore_output_mapping is None:
        observed = out_field
    return next_code, out_field, observed, en


def run_reference(
    impl, stimulus: List[int], collect_nets: bool = True
) -> RomTrace:
    """Per-cycle reference evaluator (the oracle for equivalence tests)."""
    state_code = impl.encoding.encode(impl.fsm.reset_state)
    latched_out = 0

    signal_toggles: Dict[str, int] = {}
    mux_toggles: Dict[str, int] = {}
    moore_toggles: Dict[str, int] = {}
    control_toggles: Dict[str, int] = {}
    prev: Dict[str, Dict[str, int]] = {}
    prev_bits: Dict[str, int] = {}

    def count_bits(tag: str, width: int, value: int) -> None:
        old = prev_bits.get(tag)
        if old is not None:
            changed = old ^ value
            for b in range(width):
                if (changed >> b) & 1:
                    key = f"{tag}{b}"
                    signal_toggles[key] = signal_toggles.get(key, 0) + 1
        prev_bits[tag] = value

    def count_nets(
        store: Dict[str, int], key: str, nets: Dict[str, int]
    ) -> None:
        old = prev.get(key)
        if old is not None:
            for name, value in nets.items():
                if old.get(name) != value:
                    store[name] = store.get(name, 0) + 1
        prev[key] = nets

    outputs: List[int] = []
    states: List[str] = [impl.fsm.reset_state]
    enabled = 0

    for input_bits in stimulus:
        limit = 1 << impl.fsm.num_inputs if impl.fsm.num_inputs else 1
        if not 0 <= input_bits < max(limit, 1):
            raise ValueError(f"input vector {input_bits:#x} out of range")
        if impl.compaction is not None:
            compacted, mux_nets = _mux_values(impl, state_code, input_bits)
            if collect_nets:
                count_nets(mux_toggles, "mux", mux_nets)
        else:
            compacted = input_bits
        addr = impl.layout.make_address(state_code, compacted)
        en = 1
        if impl.clock_control is not None:
            en, ctl_nets = _control_values(
                impl, state_code, input_bits, latched_out
            )
            if collect_nets:
                count_nets(control_toggles, "ctl", ctl_nets)
        observed: Optional[int] = None
        if impl.moore_output_mapping is not None:
            observed, moore_nets = _moore_values(impl, state_code)
            if collect_nets:
                count_nets(moore_toggles, "moore", moore_nets)

        count_bits("in", impl.fsm.num_inputs, input_bits)
        count_bits("addr", impl.layout.addr_bits, addr)
        count_bits("en", 1, en)

        word_after = impl._rom.clock(addr, bool(en))
        if en:
            enabled += 1
            next_code, out_field = impl.layout.split_word(word_after)
        else:
            next_code, out_field = state_code, latched_out
        count_bits(
            "q",
            impl.layout.data_bits,
            impl.layout.make_word(next_code, out_field if impl.layout.output_bits else 0),
        )

        if observed is None:
            observed = out_field
        outputs.append(observed)
        state_code = next_code
        latched_out = out_field
        states.append(impl.encoding.decode(state_code))

    return RomTrace(
        num_cycles=len(stimulus),
        output_stream=outputs,
        state_stream=states,
        signal_toggles=signal_toggles,
        mux_toggles=mux_toggles,
        moore_toggles=moore_toggles,
        control_toggles=control_toggles,
        enabled_edges=enabled,
    )
