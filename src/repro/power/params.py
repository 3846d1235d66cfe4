"""Calibrated power-model parameters for a Virtex-II-class device.

All switched capacitances are *effective* lumped values (they fold in
short-circuit current and driver internals), expressed in pF at the
Virtex-II core voltage of 1.5 V.  Per-event energy is ``1/2 C V^2``;
power is energy x event rate x clock frequency.

Calibration targets (checked by the test-suite and the E9 benchmark):

* FF baseline breakdown ~60% interconnect / ~16% logic / ~14% clock
  (Shang et al. FPGA'03, the paper's section 2 numbers);
* one enabled BRAM edge costs roughly an order of magnitude more than
  one FF clock edge (paper section 6: "more power is consumed in
  clocking a blockram than an FF in a Virtex-II device");
* BRAM read energy grows with the used word-line count and word width
  (paper section 5).

Absolute milliwatts are *not* a calibration target — the paper's were
measured by XPower on placed silicon — only the relative shape is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.interconnect import InterconnectModel

__all__ = ["PowerParams", "VIRTEX2_PARAMS"]


@dataclass(frozen=True)
class PowerParams:
    """Effective capacitances / energies of the power model."""

    voltage: float = 1.5

    # --- programmable logic -------------------------------------------
    # Internal switched capacitance of a LUT evaluating (per output
    # toggle); input-pin loading is part of the driving net's wire cap.
    c_lut_internal_pf: float = 0.30

    # --- clocking ------------------------------------------------------
    # Per-FF clock-pin capacitance, switched every cycle (two edges).
    c_ff_clk_pf: float = 0.22
    # Clock-tree trunk: charged every cycle regardless of load count.
    c_clock_tree_base_pf: float = 2.3
    # Clock-tree branch per clocked leaf (FF or BRAM clock pin region).
    c_clock_tree_per_load_pf: float = 0.11

    # --- embedded memory block ----------------------------------------
    # Clocking an *enabled* BRAM: sense amps, address latches, output
    # register.  Dominates the ROM implementation's power.
    c_bram_clk_enabled_pf: float = 4.4
    # Residual when EN is low: the clock still reaches the block's pin.
    c_bram_clk_disabled_pf: float = 0.5
    # Read energy scaling with the exercised geometry (per enabled edge):
    c_bram_read_base_pf: float = 1.8
    c_bram_read_per_addr_bit_pf: float = 0.10
    c_bram_read_per_data_bit_pf: float = 0.95
    # BRAM-to-BRAM dedicated cascade routing (series joining).
    c_bram_cascade_pf: float = 0.15

    # --- I/O ------------------------------------------------------------
    # Effective pad + IOB capacitance per primary input/output pin.
    # Identical bit streams drive the pins in both implementations, so
    # this is a pure common-mode term -- but XPower measures it, and the
    # paper's Table 2 totals include it.
    c_io_pad_pf: float = 20.0

    # --- interconnect ---------------------------------------------------
    interconnect: InterconnectModel = field(default_factory=InterconnectModel)

    # ------------------------------------------------------------------

    def energy_pj(self, capacitance_pf: float, toggles: float = 1.0) -> float:
        """Energy in pJ for ``toggles`` transitions of ``capacitance_pf``."""
        return 0.5 * capacitance_pf * self.voltage ** 2 * toggles

    def power_mw(self, energy_per_cycle_pj: float, frequency_mhz: float) -> float:
        """pJ/cycle x MHz -> mW (1 pJ * 1 MHz = 1 uW)."""
        return energy_per_cycle_pj * frequency_mhz * 1e-3

    def bram_edge_energy_pj(
        self, addr_bits_used: int, data_bits_used: int, enabled: bool
    ) -> float:
        """Energy of one BRAM clock edge.

        Captures the paper's section 5 observation: "an increase in the
        number of inputs and outputs and the number of states increases
        the power consumption of a blockram" — through the exercised
        address (word-line) and data (bit-line) geometry.
        """
        if not enabled:
            return self.energy_pj(self.c_bram_clk_disabled_pf)
        c = (
            self.c_bram_clk_enabled_pf
            + self.c_bram_read_base_pf
            + self.c_bram_read_per_addr_bit_pf * addr_bits_used
            + self.c_bram_read_per_data_bit_pf * data_bits_used
        )
        return self.energy_pj(c)


# The default parameter set used throughout the experiments.
VIRTEX2_PARAMS = PowerParams()
