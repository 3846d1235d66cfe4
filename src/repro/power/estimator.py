"""The XPower-equation estimator for both implementations.

For every accounted component the dynamic power is::

    P = 1/2 * C_eff * V^2 * alpha * f

summed into four buckets matching the paper's section 2 discussion:

* ``interconnect`` — every routed net, capacitance from the fanout/
  congestion model (the dominant bucket for FF designs, ~60%);
* ``logic``       — LUT internal switching;
* ``clock``       — clock tree trunk + per-leaf branches + FF clock pins;
* ``bram``        — embedded-memory clocking and read energy, scaled by
  the enable duty cycle (the section 6 mechanism).

Frequency enters linearly, reproducing the paper's Table 2 structure of
one power column per clock rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch.device import Device, get_device
from repro.power.activity import FfActivity, RomActivity
from repro.power.params import PowerParams, VIRTEX2_PARAMS
from repro.romfsm.impl import RomFsmImplementation
from repro.synth.ff_synth import FfImplementation

__all__ = ["PowerReport", "estimate_ff_power", "estimate_rom_power"]


@dataclass(frozen=True)
class PowerReport:
    """Dynamic power estimate with a per-bucket breakdown."""

    label: str
    frequency_mhz: float
    components_mw: Dict[str, float]

    @property
    def total_mw(self) -> float:
        return sum(self.components_mw.values())

    def component(self, name: str) -> float:
        return self.components_mw.get(name, 0.0)

    def fraction(self, name: str) -> float:
        total = self.total_mw
        return self.component(name) / total if total else 0.0

    def saving_vs(self, baseline: "PowerReport") -> float:
        """Fractional saving of this report against ``baseline``."""
        if baseline.total_mw == 0:
            return 0.0
        return 1.0 - self.total_mw / baseline.total_mw

    def __str__(self) -> str:
        parts = ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(self.components_mw.items())
        )
        return (
            f"PowerReport({self.label} @ {self.frequency_mhz:g} MHz: "
            f"{self.total_mw:.3f} mW [{parts}])"
        )


def _interconnect_mw(
    nets,
    params: PowerParams,
    frequency_mhz: float,
    utilization: float,
) -> float:
    energy = 0.0
    for net in nets:
        if net.dedicated:
            cap = params.c_bram_cascade_pf
        else:
            cap = params.interconnect.net_capacitance_pf(net.fanout, utilization)
        energy += params.energy_pj(cap, net.toggles_per_cycle)
    return params.power_mw(energy, frequency_mhz)


def _logic_mw(
    lut_activity: Dict[str, float], params: PowerParams, frequency_mhz: float
) -> float:
    energy = sum(
        params.energy_pj(params.c_lut_internal_pf, alpha)
        for alpha in lut_activity.values()
    )
    return params.power_mw(energy, frequency_mhz)


def estimate_ff_power(
    impl: FfImplementation,
    activity: FfActivity,
    frequency_mhz: float,
    device: Optional[Device] = None,
    params: PowerParams = VIRTEX2_PARAMS,
) -> PowerReport:
    """Dynamic power of the FF/LUT implementation at ``frequency_mhz``."""
    device = device or get_device()
    utilization = device.slice_utilization(impl.utilization)

    interconnect = _interconnect_mw(
        activity.nets, params, frequency_mhz, utilization
    )
    logic = _logic_mw(activity.lut_output_activity, params, frequency_mhz)
    io = params.power_mw(
        params.energy_pj(params.c_io_pad_pf, activity.io_activity),
        frequency_mhz,
    )

    # Clock: two edges per cycle on the tree and every FF clock pin.
    clock_cap = (
        params.c_clock_tree_base_pf
        + params.c_clock_tree_per_load_pf * impl.num_ffs
        + params.c_ff_clk_pf * impl.num_ffs
    )
    clock = params.power_mw(params.energy_pj(clock_cap, 2.0), frequency_mhz)

    return PowerReport(
        label=f"{impl.fsm.name}/ff-{impl.encoding.style}",
        frequency_mhz=frequency_mhz,
        components_mw={
            "interconnect": interconnect,
            "logic": logic,
            "clock": clock,
            "io": io,
        },
    )


def estimate_rom_power(
    impl: RomFsmImplementation,
    activity: RomActivity,
    frequency_mhz: float,
    device: Optional[Device] = None,
    params: PowerParams = VIRTEX2_PARAMS,
) -> PowerReport:
    """Dynamic power of the ROM implementation at ``frequency_mhz``."""
    device = device or get_device()
    utilization = device.slice_utilization(impl.utilization)

    interconnect = _interconnect_mw(
        activity.nets, params, frequency_mhz, utilization
    )
    logic = _logic_mw(activity.lut_output_activity, params, frequency_mhz)
    io = params.power_mw(
        params.energy_pj(params.c_io_pad_pf, activity.io_activity),
        frequency_mhz,
    )

    # Memory-block energy: per-block per-edge, split by the enable duty.
    # The per-block geometry divides the exercised address space across
    # series blocks and the word across parallel lanes.
    duty = activity.enable_duty
    lane_addr_bits = min(
        activity.addr_bits_used,
        impl.config.addr_bits,
    )
    lane_data_bits = -(-activity.data_bits_used // impl.parallel_brams)
    per_edge = params.bram_edge_energy_pj(
        lane_addr_bits, lane_data_bits, True
    )
    idle_edge = params.bram_edge_energy_pj(
        lane_addr_bits, lane_data_bits, False
    )
    bram_energy = impl.num_brams * (
        duty * per_edge + (1.0 - duty) * idle_edge
    )
    bram = params.power_mw(bram_energy, frequency_mhz)

    # Clock tree: trunk plus one leaf region per physical block.
    clock_cap = (
        params.c_clock_tree_base_pf
        + params.c_clock_tree_per_load_pf * impl.num_brams
    )
    clock = params.power_mw(params.energy_pj(clock_cap, 2.0), frequency_mhz)

    suffix = "+cc" if impl.clock_control is not None else ""
    return PowerReport(
        label=f"{impl.fsm.name}/rom{suffix}",
        frequency_mhz=frequency_mhz,
        components_mw={
            "interconnect": interconnect,
            "logic": logic,
            "clock": clock,
            "bram": bram,
            "io": io,
        },
    )
