"""The Virtex-II memory block as one constant parameter record.

The mapper only needs to know which depth×width aspect ratios a block
offers, how blocks join in series, and what the block's pin-to-pin
delays are.  :data:`VIRTEX2_BRAM` holds exactly that as data — legality
is a lookup over the offered shapes, as in a memory techmap rule — and
answers the mapper's queries:

* **legality queries** — the legal aspect ratios (widest first, the
  mapper's preference order), address/data-bit limits, shape validation,
  and the series-joining rule with its block-count ceiling;
* **timing parameters** — clock-to-out, address/enable setup, and the
  dedicated cascade-hop delay, exported as a ready
  :class:`~repro.arch.timing.TimingModel`.

Block energies live with the rest of the Virtex-II calibration in
:class:`~repro.power.params.PowerParams`.  Every mapped implementation
carries the record, so it participates in artifact fingerprints as
(class name, field map): the class name and every field value below
are part of the cache and frontier-artifact identity and must not
change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.arch.bram import BRAM_CONFIGS, BramConfig, VIRTEX2_BRAM_BITS
from repro.arch.interconnect import InterconnectModel
from repro.arch.timing import TimingModel

__all__ = ["Virtex2BramModel", "VIRTEX2_BRAM"]


@dataclass(frozen=True)
class Virtex2BramModel:
    """The Virtex-II 18-Kbit BlockRAM: what the mapper and the timing
    model consume.

    ``configs`` is ordered widest (shallowest) first — the mapper
    prefers wide configurations because fewer word lines toggle per read.
    """

    name: str = "virtex2-bram"
    description: str = (
        "Xilinx Virtex-II 18-Kbit BlockRAM (SRAM, registered output, "
        "EN port; the paper's fabric)"
    )
    configs: Tuple[BramConfig, ...] = BRAM_CONFIGS
    block_bits: int = VIRTEX2_BRAM_BITS
    # Series (depth) joining ceiling: beyond this many cascaded blocks
    # the mapping is rejected (Fig. 5 lines 16-18 cost note).
    max_series: int = 8
    # SRAM: contents are lost at power-off.
    volatile: bool = True
    # Timing (ns): registered read-out, setup of the sampled address and
    # enable pins, and the dedicated block-to-block cascade hop.
    clk_to_out_ns: float = 2.10
    addr_setup_ns: float = 0.50
    en_setup_ns: float = 0.70
    cascade_hop_ns: float = 0.25
    # The block draws no static power; kept as a field because the
    # record's fingerprint commits to it.
    static_mw_per_block: float = 0.0

    # -- legality queries ----------------------------------------------

    @property
    def max_addr_bits(self) -> int:
        return max(c.addr_bits for c in self.configs)

    @property
    def max_data_bits(self) -> int:
        return max(c.width for c in self.configs)

    def select_config(
        self, addr_bits: int, data_bits: int
    ) -> Optional[BramConfig]:
        """Widest single-block config fitting the address/data demand.

        ``None`` when no single aspect ratio offers both; the mapper
        then joins blocks in parallel or series per paper Fig. 5.
        """
        for config in self.configs:  # widest (shallowest) first
            if config.addr_bits >= addr_bits and config.width >= data_bits:
                return config
        return None

    def widest_config(self, addr_bits: int) -> Optional[BramConfig]:
        """Widest aspect ratio with at least ``addr_bits`` address lines."""
        candidates = [c for c in self.configs if c.addr_bits >= addr_bits]
        if not candidates:
            return None
        return max(candidates, key=lambda c: c.width)

    def validate_shape(self, depth: int, width: int) -> BramConfig:
        """The aspect ratio realizing ``depth`` × ``width``, or raise.

        Rejects non-positive and non-power-of-two depths (address
        decoders only come in power-of-two sizes), over-deep and
        over-wide shapes.
        """
        if depth <= 0 or width <= 0:
            raise ValueError(
                f"{self.name}: depth and width must be positive, "
                f"got {depth}x{width}"
            )
        if depth & (depth - 1):
            raise ValueError(
                f"{self.name}: depth {depth} must be a power of two"
            )
        addr_bits = depth.bit_length() - 1
        if addr_bits > self.max_addr_bits:
            raise ValueError(
                f"{self.name}: depth {depth} needs {addr_bits} address "
                f"lines, the deepest ratio offers {self.max_addr_bits}"
            )
        if width > self.max_data_bits:
            raise ValueError(
                f"{self.name}: width {width} exceeds the widest data "
                f"port ({self.max_data_bits} bits)"
            )
        config = self.select_config(addr_bits, width)
        if config is None:
            raise ValueError(
                f"{self.name}: no aspect ratio offers {depth}x{width}"
            )
        return config

    def series_for(self, addr_bits: int) -> Tuple[int, int]:
        """``(series_blocks, lane_addr_bits)`` for an address demand.

        Fig. 5 lines 16-18: every address bit beyond the deepest ratio
        doubles the cascaded block count.  Legality of the result is a
        separate question — check :meth:`legal_series`.
        """
        if addr_bits <= self.max_addr_bits:
            return 1, addr_bits
        return 1 << (addr_bits - self.max_addr_bits), self.max_addr_bits

    def legal_series(self, series: int) -> bool:
        return 1 <= series <= self.max_series

    # -- timing --------------------------------------------------------

    def timing_model(
        self, interconnect: Optional[InterconnectModel] = None
    ) -> TimingModel:
        """A :class:`TimingModel` carrying this block's delays."""
        kwargs = {} if interconnect is None else {"interconnect": interconnect}
        return TimingModel(
            bram_clk_to_out_ns=self.clk_to_out_ns,
            bram_addr_setup_ns=self.addr_setup_ns,
            bram_en_setup_ns=self.en_setup_ns,
            cascade_hop_ns=self.cascade_hop_ns,
            **kwargs,
        )


VIRTEX2_BRAM = Virtex2BramModel()
