"""Word-parallel (bit-sliced) netlist evaluation primitives.

The paper's flow spends most of its simulation time clocking a mapped
netlist through thousands of stimulus cycles one Python call at a time.
The trick used here turns the time axis into bit positions: every net
holds one Python big-int *word* whose bit ``k`` is the net's value in
cycle ``k``.  A K-LUT output over the whole trace is then at most
``2**K`` big-int AND/OR/NOT operations
(:meth:`repro.logic.truthtable.TruthTable.evaluate_word`), and a net's
toggle count collapses to one XOR/shift/popcount.

The functions here are shared by the FF netlist simulator
(:mod:`repro.synth.netsim`) and the ROM implementation
(:mod:`repro.romfsm.impl`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.logic.lutmap import GND_NET, VCC_NET, LutMapping

__all__ = [
    "popcount",
    "pack_column",
    "pack_bit_column",
    "unpack_word",
    "transpose_words",
    "word_toggles",
    "evaluate_mapping_words",
]

try:  # int.bit_count needs 3.10; CI still exercises 3.9
    popcount = int.bit_count  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - version fallback
    def popcount(x: int) -> int:
        return bin(x).count("1")


def pack_column(values: Sequence[int]) -> int:
    """Pack a 0/1 sample column into one word (bit ``k`` = cycle ``k``)."""
    word = 0
    for k, v in enumerate(values):
        if v & 1:
            word |= 1 << k
    return word


def pack_bit_column(values: Sequence[int], bit: int) -> int:
    """Pack bit ``bit`` of each multi-bit sample into one word."""
    probe = 1 << bit
    word = 0
    for k, v in enumerate(values):
        if v & probe:
            word |= 1 << k
    return word


def unpack_word(word: int, num_cycles: int) -> List[int]:
    """Expand a packed word back into its per-cycle 0/1 column."""
    return [(word >> k) & 1 for k in range(num_cycles)]


def transpose_words(bit_words: Sequence[int], num_cycles: int) -> List[int]:
    """Turn per-bit packed words back into per-cycle integer samples.

    ``bit_words[i]`` is the packed stream of bit ``i``; the result lists
    one multi-bit sample per cycle.  When the samples fit a machine word
    the transpose runs through ``numpy.unpackbits`` (the sparse big-int
    walk is quadratic in trace length for dense streams); wider samples
    fall back to iterating set bits only, so sparse streams cost
    proportionally less.
    """
    n = len(bit_words)
    if 0 < n <= 64 and num_cycles:
        mask = (1 << num_cycles) - 1
        nbytes = (num_cycles + 7) // 8
        mat = np.empty((n, nbytes), dtype=np.uint8)
        for i, word in enumerate(bit_words):
            mat[i] = np.frombuffer(
                (word & mask).to_bytes(nbytes, "little"), dtype=np.uint8
            )
        bits = np.unpackbits(
            mat, axis=1, bitorder="little", count=num_cycles
        )
        rows = np.zeros(num_cycles, dtype=np.uint64)
        for i in range(n):
            rows |= bits[i].astype(np.uint64) << np.uint64(i)
        return [int(x) for x in rows]
    rows = [0] * num_cycles
    for i, word in enumerate(bit_words):
        probe = 1 << i
        while word:
            low = word & -word
            word ^= low
            rows[low.bit_length() - 1] |= probe
    return rows


def word_toggles(word: int, num_samples: int) -> int:
    """0<->1 transitions along a packed column of ``num_samples`` bits.

    Equivalent to comparing each consecutive sample pair; with the
    column packed this is ``popcount((w ^ (w >> 1)))`` restricted to the
    ``num_samples - 1`` adjacent pairs.
    """
    if num_samples <= 1:
        return 0
    return popcount((word ^ (word >> 1)) & ((1 << (num_samples - 1)) - 1))


def evaluate_mapping_words(
    mapping: LutMapping, input_words: Dict[str, int], mask: int
) -> Dict[str, int]:
    """Evaluate every net of ``mapping`` over a whole packed trace.

    ``input_words`` maps each primary input net to its packed value
    stream; ``mask`` has one bit per simulated cycle.  Returns the
    packed word of every net — the word-parallel analogue of
    :meth:`~repro.logic.lutmap.LutMapping.evaluate_all_nets`.
    """
    nets: Dict[str, int] = {GND_NET: 0, VCC_NET: mask}
    for name in mapping.input_nets:
        if name not in input_words:
            raise KeyError(f"missing word for input {name!r}")
        nets[name] = input_words[name] & mask
    # mapping.luts is emitted in topological order.
    for lut in mapping.luts:
        words = [nets[src] for src in lut.input_nets]
        nets[lut.name] = lut.table.evaluate_word(words, mask)
    return nets
