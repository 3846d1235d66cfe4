"""Packing combinational logic into spare memory blocks.

The paper's related work ([6] Cong et al., FPGA'98; [7] Wilton,
FPGA'00) maps *combinational* logic into unused embedded memory arrays
— the complementary technique to the paper's FSM mapping.  This module
implements a heterogeneous-mapping pass over our LUT netlists:

1. compute, for every primary output of a mapped netlist, its *cone*
   (transitive LUT fanin) and *support* (the primary inputs it reads);
2. greedily group outputs whose combined support fits a block's address
   port (≤ 9 bits for the 512×36 ratio) and whose count fits the data
   port, preferring groups that absorb the most LUTs;
3. LUTs whose every reader lies inside the packed group are deleted;
   the block's contents are the truth table of the packed outputs over
   the shared support.

The result is a :class:`PackedNetlist`: the residual LUT netlist plus
one or more ROM blocks, functionally identical to the input (verified
by the test-suite) with the LUT count reduced by the absorbed cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.arch.bram import BramConfig
from repro.arch.memblock import VIRTEX2_BRAM
from repro.logic.lutmap import GND_NET, VCC_NET, LutMapping

__all__ = ["LogicPack", "PackedNetlist", "pack_logic_into_brams"]


@dataclass
class LogicPack:
    """One memory block absorbing a group of output cones."""

    config: BramConfig
    input_nets: Tuple[str, ...]        # address pins, LSB first
    output_names: Tuple[str, ...]      # packed primary outputs, word LSB first
    contents: List[int]
    absorbed_luts: int

    def read(self, values: Dict[str, int]) -> Dict[str, int]:
        address = 0
        for bit, net in enumerate(self.input_nets):
            address |= (values[net] & 1) << bit
        word = self.contents[address]
        return {
            name: (word >> bit) & 1
            for bit, name in enumerate(self.output_names)
        }


@dataclass
class PackedNetlist:
    """Residual LUT netlist plus the logic packed into memory blocks."""

    mapping: LutMapping
    packs: List[LogicPack]
    original_luts: int

    @property
    def num_luts(self) -> int:
        return self.mapping.num_luts

    @property
    def num_brams(self) -> int:
        return len(self.packs)

    @property
    def luts_saved(self) -> int:
        return self.original_luts - self.num_luts

    def evaluate(self, input_values: Dict[str, int]) -> Dict[str, int]:
        """All primary outputs, combining residual LUTs and the blocks."""
        outputs = self.mapping.evaluate(input_values)
        for pack in self.packs:
            outputs.update(pack.read(input_values))
        return outputs


def _cone_and_support(
    mapping: LutMapping, root_net: str
) -> Tuple[Set[str], Set[str]]:
    """(cone LUT names, primary-input support) of ``root_net``."""
    by_name = {lut.name: lut for lut in mapping.luts}
    cone: Set[str] = set()
    support: Set[str] = set()
    stack = [root_net]
    while stack:
        net = stack.pop()
        lut = by_name.get(net)
        if lut is None:
            if net not in (GND_NET, VCC_NET):
                support.add(net)
            continue
        if net in cone:
            continue
        cone.add(net)
        stack.extend(lut.input_nets)
    return cone, support


def pack_logic_into_brams(
    mapping: LutMapping,
    max_brams: int = 1,
    min_luts_per_block: int = 4,
    exclude_outputs: Sequence[str] = (),
) -> PackedNetlist:
    """Absorb output cones of ``mapping`` into up to ``max_brams`` blocks.

    Parameters
    ----------
    mapping:
        Any mapped netlist (e.g. an FF baseline's combinational logic or
        a Moore output decoder).
    max_brams:
        Spare blocks available.
    min_luts_per_block:
        Skip groups that would absorb fewer LUTs than this — a block is
        not worth spending on a couple of LUTs (the paper's related-work
        point that memory mapping pays only for wide dense logic).
    exclude_outputs:
        Output names that must stay in LUTs (e.g. next-state bits whose
        nets also feed registers).
    """
    mem = VIRTEX2_BRAM
    select_config = mem.select_config
    max_addr = mem.max_addr_bits
    excluded = set(exclude_outputs)
    cones: Dict[str, Tuple[Set[str], Set[str]]] = {}
    for name, net in mapping.outputs.items():
        if name in excluded:
            continue
        cone, support = _cone_and_support(mapping, net)
        if not cone:
            continue  # passthrough / constant output: nothing to absorb
        if len(support) > max_addr:
            continue
        cones[name] = (cone, support)

    packs: List[LogicPack] = []
    remaining = dict(cones)
    kept_luts = list(mapping.luts)
    outputs = dict(mapping.outputs)

    for _ in range(max_brams):
        if not remaining:
            break
        # Greedy group growth from the largest-cone seed.
        seed = max(remaining, key=lambda n: len(remaining[n][0]))
        group = [seed]
        support = set(remaining[seed][1])
        widest = mem.max_data_bits
        for name, (cone, sup) in sorted(
            remaining.items(), key=lambda kv: len(kv[1][0]), reverse=True
        ):
            if name in group or len(group) >= widest:
                continue
            union = support | sup
            if select_config(len(union), len(group) + 1) is None:
                continue
            group.append(name)
            support = union

        config = select_config(max(len(support), 1), len(group))
        if config is None:
            remaining.pop(seed)
            continue

        # Only LUTs every reader of which lies inside the group may go.
        group_cones: Set[str] = set()
        for name in group:
            group_cones |= remaining[name][0]
        removable = set(group_cones)
        changed = True
        while changed:
            changed = False
            readers: Dict[str, Set[str]] = {}
            for lut in kept_luts:
                for src in lut.input_nets:
                    readers.setdefault(src, set()).add(lut.name)
            external_outputs = {
                net for name, net in outputs.items() if name not in group
            }
            for net in list(removable):
                outside = (readers.get(net, set()) - removable) or (
                    {net} & external_outputs
                )
                if outside:
                    removable.discard(net)
                    changed = True

        if len(removable) < min_luts_per_block:
            remaining.pop(seed)
            continue

        # Tabulate the group over its support.
        support_order = tuple(sorted(support))
        depth = 1 << len(support_order)
        contents = [0] * depth
        sample = {name: 0 for name in mapping.input_nets}
        for address in range(depth):
            values = dict(sample)
            for bit, net in enumerate(support_order):
                values[net] = (address >> bit) & 1
            result = mapping.evaluate(values)
            word = 0
            for bit, name in enumerate(group):
                if result[name]:
                    word |= 1 << bit
            contents[address] = word

        packs.append(
            LogicPack(
                config=config,
                input_nets=support_order,
                output_names=tuple(group),
                contents=contents,
                absorbed_luts=len(removable),
            )
        )
        kept_luts = [lut for lut in kept_luts if lut.name not in removable]
        for name in group:
            outputs.pop(name)
            remaining.pop(name, None)

    residual = LutMapping(
        k=mapping.k,
        luts=kept_luts,
        input_nets=list(mapping.input_nets),
        outputs=outputs,
    )
    return PackedNetlist(
        mapping=residual, packs=packs, original_luts=mapping.num_luts
    )
