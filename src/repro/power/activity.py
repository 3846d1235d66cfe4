"""Switching-activity extraction for both implementations.

This module converts the raw per-net toggle counts produced by the
netlist simulators (:mod:`repro.synth.netsim` for the FF baseline,
:meth:`repro.romfsm.impl.RomFsmImplementation.run` for the ROM design)
into the ``(capacitive load, toggles-per-cycle)`` pairs the estimator
sums.  This replaces, in process, the paper's ``.vcd``-to-XPower
hand-off.

Every *driver* net is accounted exactly once with its true fanout:

* FF baseline — primary inputs, FF outputs (the state bits) and every
  LUT output, with fanouts taken from the mapped netlist.
* ROM design — primary inputs, the BRAM data-out bits (output field and
  state feedback field), the input-multiplexer nets, the external Moore
  output nets, and the enable net; BRAM address pins are *loads* of
  those nets, not separate nets, so they add fanout rather than entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.romfsm.impl import RomFsmImplementation, RomTrace
from repro.synth.ff_synth import FfImplementation
from repro.synth.netsim import NetlistTrace

__all__ = ["NetActivity", "FfActivity", "RomActivity",
           "extract_ff_activity", "extract_rom_activity"]


@dataclass(frozen=True)
class NetActivity:
    """One routed net: its fanout and measured toggle rate."""

    name: str
    fanout: int
    toggles_per_cycle: float
    # True for BRAM-to-BRAM cascade hops on dedicated routing.
    dedicated: bool = False


@dataclass
class FfActivity:
    """Activity summary of the FF/LUT implementation."""

    nets: List[NetActivity]
    lut_output_activity: Dict[str, float]
    num_ffs: int
    num_luts: int
    num_cycles: int
    # Sum of toggles-per-cycle over the primary input and output pins;
    # the IOB (pad) power component, identical for both implementations
    # because they consume/produce the same bit streams.
    io_activity: float = 0.0

@dataclass
class RomActivity:
    """Activity summary of the ROM implementation."""

    nets: List[NetActivity]
    lut_output_activity: Dict[str, float]
    num_luts: int
    enable_duty: float
    addr_bits_used: int
    data_bits_used: int
    num_brams: int
    series_brams: int
    num_cycles: int
    io_activity: float = 0.0


def extract_ff_activity(
    impl: FfImplementation, trace: NetlistTrace
) -> FfActivity:
    """Per-net activity of the FF baseline from a simulated trace."""
    cycles = max(trace.num_cycles, 1)
    fanouts = impl.mapping.fanout_counts()
    nets: List[NetActivity] = []
    lut_activity: Dict[str, float] = {}
    lut_names = {lut.name for lut in impl.mapping.luts}
    for name, fanout in fanouts.items():
        if fanout <= 0:
            continue
        alpha = trace.net_toggles.get(name, 0) / cycles
        nets.append(NetActivity(name=name, fanout=fanout, toggles_per_cycle=alpha))
        if name in lut_names:
            lut_activity[name] = alpha
    io = 0.0
    for i in range(impl.fsm.num_inputs):
        io += trace.net_toggles.get(f"in{i}", 0) / cycles
    out_nets = impl.mapping.outputs
    for o in range(impl.fsm.num_outputs):
        io += trace.net_toggles.get(out_nets[f"out{o}"], 0) / cycles
    return FfActivity(
        nets=nets,
        lut_output_activity=lut_activity,
        num_ffs=impl.num_ffs,
        num_luts=impl.num_luts,
        num_cycles=trace.num_cycles,
        io_activity=io,
    )


def _fanouts(mapping) -> Dict[str, int]:
    return {} if mapping is None else mapping.fanout_counts()


def _aux_mapping_nets(
    mapping, fanouts: Dict[str, int], toggles: Dict[str, int], cycles: int,
    extra_loads: Dict[str, int], prefix: str,
) -> Tuple[List[NetActivity], Dict[str, float]]:
    """Nets and LUT activities for an auxiliary LUT mapping (mux/Moore/EN).

    ``fanouts`` is the mapping's :meth:`fanout_counts`, which the caller
    has already taken.  ``extra_loads`` adds loads for nets that leave
    the mapping (e.g. a mux output net also drives a BRAM address pin).
    Primary-input nets of the mapping are skipped — the caller accounts
    them at top level.
    """
    nets: List[NetActivity] = []
    lut_activity: Dict[str, float] = {}
    # Iterate the LUT list (topological emission order), not a set of
    # names: net order fixes the float accumulation order downstream,
    # and set order varies with the interpreter's hash seed — worker
    # processes would disagree with the driver in the last bits.
    for lut in mapping.luts:
        name = lut.name
        fanout = fanouts.get(name, 0) + extra_loads.get(name, 0)
        alpha = toggles.get(name, 0) / cycles
        nets.append(
            NetActivity(
                name=f"{prefix}:{name}", fanout=max(fanout, 1),
                toggles_per_cycle=alpha,
            )
        )
        lut_activity[f"{prefix}:{name}"] = alpha
    return nets, lut_activity


def extract_rom_activity(
    impl: RomFsmImplementation, trace: RomTrace
) -> RomActivity:
    """Per-net activity of the ROM implementation from a simulated trace."""
    cycles = max(trace.num_cycles, 1)
    fsm = impl.fsm
    layout = impl.layout
    nets: List[NetActivity] = []
    lut_activity: Dict[str, float] = {}

    cc = impl.clock_control
    # Each auxiliary mapping's fanout counts, taken once per call.
    mux_fanouts = _fanouts(impl.mux_mapping)
    moore_fanouts = _fanouts(impl.moore_output_mapping)
    cc_fanouts = _fanouts(cc.mapping if cc is not None else None)

    # Primary inputs.
    for i in range(fsm.num_inputs):
        name = f"in{i}"
        loads = 0
        if impl.compaction is not None:
            loads += mux_fanouts.get(name, 0)
        else:
            loads += 1  # direct BRAM address pin
        loads += cc_fanouts.get(name, 0)
        if loads:
            alpha = trace.signal_toggles.get(name, 0) / cycles
            nets.append(NetActivity(name=name, fanout=loads,
                                    toggles_per_cycle=alpha))

    # BRAM data-out bits: output field then state feedback field.
    for bit in range(layout.data_bits):
        name = f"q{bit}"
        alpha = trace.signal_toggles.get(name, 0) / cycles
        if bit < layout.output_bits:
            loads = 1  # leaves the FSM toward the rest of the design
            if cc is not None and cc.compares_outputs:
                loads += cc_fanouts.get(f"fb_out{bit}", 0)
        else:
            state_bit = bit - layout.output_bits
            bname = impl.encoding.bit_name(state_bit)
            loads = 1  # BRAM address pin (feedback)
            loads += mux_fanouts.get(bname, 0)
            loads += moore_fanouts.get(bname, 0)
            loads += cc_fanouts.get(bname, 0)
        nets.append(NetActivity(name=name, fanout=loads,
                                toggles_per_cycle=alpha))

    # Auxiliary LUT logic nets.
    if impl.mux_mapping is not None:
        mux_out_nets = {
            impl.mux_mapping.outputs[f"mux{j}"]: 1
            for j in range(impl.compaction.width)
        }
        extra, acts = _aux_mapping_nets(
            impl.mux_mapping, mux_fanouts, trace.mux_toggles, cycles,
            mux_out_nets, "mux",
        )
        nets.extend(extra)
        lut_activity.update(acts)
    if impl.moore_output_mapping is not None:
        out_nets = {
            impl.moore_output_mapping.outputs[f"out{o}"]: 1
            for o in range(fsm.num_outputs)
        }
        extra, acts = _aux_mapping_nets(
            impl.moore_output_mapping, moore_fanouts, trace.moore_toggles,
            cycles, out_nets, "moore",
        )
        nets.extend(extra)
        lut_activity.update(acts)
    if cc is not None:
        en_nets = {cc.mapping.outputs["en"]: 1}
        extra, acts = _aux_mapping_nets(
            cc.mapping, cc_fanouts, trace.control_toggles, cycles, en_nets,
            "ctl",
        )
        nets.extend(extra)
        lut_activity.update(acts)

    # Series-joined blocks talk over dedicated cascade routes.
    if impl.series_brams > 1:
        for hop in range(impl.series_brams - 1):
            nets.append(
                NetActivity(
                    name=f"cascade{hop}", fanout=1,
                    toggles_per_cycle=trace.enable_duty,
                    dedicated=True,
                )
            )

    # IO pad activity: primary inputs plus whichever nets carry the FSM
    # outputs off-block (ROM word field or external Moore LUT outputs).
    io = 0.0
    for i in range(fsm.num_inputs):
        io += trace.signal_toggles.get(f"in{i}", 0) / cycles
    if impl.moore_output_mapping is not None:
        out_nets = impl.moore_output_mapping.outputs
        for o in range(fsm.num_outputs):
            io += trace.moore_toggles.get(out_nets[f"out{o}"], 0) / cycles
    else:
        for bit in range(layout.output_bits):
            io += trace.signal_toggles.get(f"q{bit}", 0) / cycles

    return RomActivity(
        nets=nets,
        lut_output_activity=lut_activity,
        num_luts=impl.num_luts,
        enable_duty=trace.enable_duty,
        addr_bits_used=layout.addr_bits,
        data_bits_used=layout.data_bits,
        num_brams=impl.num_brams,
        series_brams=impl.series_brams,
        num_cycles=trace.num_cycles,
        io_activity=io,
    )
