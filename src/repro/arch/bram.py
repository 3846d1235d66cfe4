"""Virtex-II embedded memory block (BlockRAM) model.

Each Virtex-II BlockRAM is an 18-Kbit synchronous SRAM configurable in
six aspect ratios (16K×1 down to 512×36; widths of 9/18/36 include the
parity bits, which the FSM mapping is free to use as data).  The model
captures the properties the paper's technique depends on:

* **latched outputs** — the data output is registered; after
  configuration or reset the latch holds a programmable value (we use 0,
  so the all-zero address must hold the reset state's word, paper §4.2);
* **enable port** — deasserting EN skips the read, freezing the output
  latch *and* suppressing the internal clocking energy (the §6 clock-
  stopping mechanism, glitch-free because no clock gating is inserted);
* **synchronous read** — the address is sampled on the rising edge, so
  the FSM's critical path is out-through-address-back, fixed regardless
  of STG complexity.

:class:`BlockRam` is a functional simulator of one such block; the power
model charges energy per *enabled* clock edge, scaled by the used word
depth and width (paper §5: "Power consumed by the blockram is dependent
upon the number of word-lines used, and number of bits in a word-line").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = ["BramConfig", "BlockRam", "BRAM_CONFIGS", "VIRTEX2_BRAM_BITS"]

# Total data bits per Virtex-II block RAM (16K data + 2K parity).
VIRTEX2_BRAM_BITS = 18 * 1024


@dataclass(frozen=True)
class BramConfig:
    """One aspect ratio of the 18-Kbit block: ``depth`` words × ``width`` bits."""

    depth: int
    width: int

    def __post_init__(self) -> None:
        if self.depth <= 0 or self.width <= 0:
            raise ValueError("depth and width must be positive")
        if self.depth & (self.depth - 1):
            raise ValueError(f"depth {self.depth} must be a power of two")

    @property
    def addr_bits(self) -> int:
        return self.depth.bit_length() - 1

    @property
    def total_bits(self) -> int:
        return self.depth * self.width

    @property
    def name(self) -> str:
        if self.depth % 1024 == 0:
            return f"{self.depth // 1024}Kx{self.width}"
        return f"{self.depth}x{self.width}"

    def __str__(self) -> str:
        return self.name


# The six Virtex-II aspect ratios, widest first (the mapper prefers wide
# shallow configurations: fewer word lines toggling => less read energy).
BRAM_CONFIGS: Tuple[BramConfig, ...] = (
    BramConfig(512, 36),
    BramConfig(1024, 18),
    BramConfig(2048, 9),
    BramConfig(4096, 4),
    BramConfig(8192, 2),
    BramConfig(16384, 1),
)


class BlockRam:
    """Functional model of one configured block RAM used as a ROM.

    Parameters
    ----------
    config:
        The aspect ratio.
    contents:
        Initial words (missing addresses read as 0); this is the INIT
        bitstream content, rewritable in-field via :meth:`write` (the
        paper's no-recompilation ECO path).
    init_output:
        Value the output latch presents after configuration/reset
        (Virtex-II ``SRVAL``/``INIT`` attribute); the FSM mapping uses 0
        so the reset state must live at a zero-addressed word.
    """

    def __init__(
        self,
        config: BramConfig,
        contents: Optional[Sequence[int]] = None,
        init_output: int = 0,
    ):
        self.config = config
        self._words: List[int] = [0] * config.depth
        if contents is not None:
            if len(contents) > config.depth:
                raise ValueError(
                    f"{len(contents)} words exceed depth {config.depth}"
                )
            for addr, word in enumerate(contents):
                self._check_word(word)
                self._words[addr] = word
        self._check_word(init_output)
        self.init_output = init_output
        self.output = init_output
        # Statistics for the power model.
        self.enabled_edges = 0
        self.total_edges = 0

    def _check_word(self, word: int) -> None:
        if not 0 <= word < (1 << self.config.width):
            raise ValueError(
                f"word {word:#x} wider than {self.config.width} bits"
            )

    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self.config.depth:
            raise ValueError(
                f"address {addr:#x} out of range for depth {self.config.depth}"
            )

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Assert the synchronous reset: the output latch returns to INIT."""
        self.output = self.init_output

    def clock(self, addr: int, enable: bool = True) -> int:
        """One rising clock edge.

        With ``enable`` high the word at ``addr`` is read into the output
        latch; with it low the latch (and the internal word lines) stay
        frozen.  Returns the latched output after the edge.
        """
        self._check_addr(addr)
        self.total_edges += 1
        if enable:
            self.enabled_edges += 1
            self.output = self._words[addr]
        return self.output

    def peek(self, addr: int) -> int:
        """Combinational view of a stored word (no clocking, no stats)."""
        self._check_addr(addr)
        return self._words[addr]

    def write(self, addr: int, word: int) -> None:
        """Rewrite one word (the in-field functionality-change path)."""
        self._check_addr(addr)
        self._check_word(word)
        self._words[addr] = word

    def load(self, contents: Sequence[int]) -> None:
        """Replace the full contents (re-initialization)."""
        if len(contents) > self.config.depth:
            raise ValueError("contents longer than configured depth")
        for word in contents:
            self._check_word(word)
        self._words = list(contents) + [0] * (self.config.depth - len(contents))

    @property
    def words(self) -> List[int]:
        return list(self._words)

    def used_words(self) -> int:
        """Number of addresses holding a non-zero word (word-line usage)."""
        return sum(1 for w in self._words if w)

    def used_bits(self) -> int:
        """Width of the widest stored word (bit-line usage)."""
        top = max(self._words, default=0)
        return top.bit_length()

    def enable_duty(self) -> float:
        """Fraction of clock edges with EN asserted (for the power model)."""
        if self.total_edges == 0:
            return 1.0
        return self.enabled_edges / self.total_edges

    def __repr__(self) -> str:
        return f"BlockRam({self.config.name}, {self.used_words()} words used)"
