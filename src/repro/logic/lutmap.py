"""K-LUT technology mapping via K-feasible cut enumeration.

This is a compact FlowMap-style mapper: it enumerates K-feasible cuts
bottom-up (each a leaf bitmask with its arrival depth), which labels
every node with its optimal mapped depth, then covers the network from
the primary outputs, emitting one LUT per selected cut, and finally
folds single-fanout LUTs into their readers.  Ties between equal-depth
cuts are broken toward fewer leaves, which is the usual area heuristic.

The mapper's output (:class:`LutMapping`) carries, for every LUT, its
input nets, its truth table (the LUT configuration bits) and its logic
level — exactly the quantities the area, timing and power models consume.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.logic.cube import _popcount
from repro.logic.network import LogicNetwork, NodeKind
from repro.logic.truthtable import TruthTable

__all__ = ["MappedLut", "LutMapping", "map_network"]

GND_NET = "GND"
VCC_NET = "VCC"

_LEAF_KINDS = (NodeKind.INPUT, NodeKind.CONST0, NodeKind.CONST1)


@dataclass(frozen=True)
class MappedLut:
    """One K-input LUT of the mapped netlist.

    Attributes
    ----------
    name:
        Net name driven by this LUT.
    input_nets:
        Ordered input net names; input ``i`` of :attr:`table` reads
        ``input_nets[i]``.
    table:
        LUT configuration bits.
    level:
        Logic level (LUTs on the path from any leaf), 1 for a LUT fed
        only by primary inputs.
    """

    name: str
    input_nets: Tuple[str, ...]
    table: TruthTable
    level: int

    def __post_init__(self) -> None:
        if len(self.input_nets) != self.table.n_inputs:
            raise ValueError("LUT input count does not match its truth table")


@dataclass
class LutMapping:
    """Result of mapping a :class:`~repro.logic.network.LogicNetwork`."""

    k: int
    luts: List[MappedLut]
    input_nets: List[str]
    # Primary output name -> driving net (a LUT name, an input name,
    # GND_NET or VCC_NET).
    outputs: Dict[str, str]

    @property
    def num_luts(self) -> int:
        return len(self.luts)

    @property
    def depth(self) -> int:
        """LUT levels on the longest path (0 for pass-through netlists)."""
        return max((lut.level for lut in self.luts), default=0)

    def lut_by_name(self, name: str) -> MappedLut:
        for lut in self.luts:
            if lut.name == name:
                return lut
        raise KeyError(f"no LUT drives net {name!r}")

    def evaluate(self, input_values: Dict[str, int]) -> Dict[str, int]:
        """Evaluate the mapped netlist for one input assignment."""
        nets = self.evaluate_all_nets(input_values)
        return {name: nets[src] for name, src in self.outputs.items()}

    def evaluate_all_nets(self, input_values: Dict[str, int]) -> Dict[str, int]:
        """Evaluate and return every net value (used by the activity model)."""
        nets: Dict[str, int] = {GND_NET: 0, VCC_NET: 1}
        for name in self.input_nets:
            if name not in input_values:
                raise KeyError(f"missing value for input {name!r}")
            nets[name] = input_values[name] & 1
        # self.luts is emitted in topological order by map_network.
        for lut in self.luts:
            assignment = 0
            for i, src in enumerate(lut.input_nets):
                assignment |= (nets[src] & 1) << i
            nets[lut.name] = lut.table.evaluate(assignment)
        return nets

    def fanout_counts(self) -> Dict[str, int]:
        """Net name -> number of LUT pins plus primary outputs reading it."""
        counts: Dict[str, int] = {name: 0 for name in self.input_nets}
        for lut in self.luts:
            counts.setdefault(lut.name, 0)
        for lut in self.luts:
            for src in lut.input_nets:
                counts[src] = counts.get(src, 0) + 1
        for src in self.outputs.values():
            if src in counts:
                counts[src] += 1
        return counts


# One K-feasible cut of a node: its leaves as a bitmask over node ids,
# the same leaves as a tuple, and its arrival (the largest mapped depth
# among the leaves; implementing the node with the cut puts it at depth
# arrival + 1).
Cut = Tuple[int, Tuple[int, ...], int]


def _enumerate_cuts(
    network: LogicNetwork, k: int, cut_limit: int
) -> Tuple[List[List[Cut]], List[int]]:
    """K-feasible cuts per node, pruned to ``cut_limit`` per node, and
    each node's optimal mapped depth.

    Pruning keeps the cuts with the best (mapped depth, size) first, so
    the depth-optimal cut of a node — e.g. the whole 4-input cone of a
    two-level tree — is never discarded in favour of many shallow small
    cuts.  A cut that contains an already kept cut is dominated (it is
    no shallower) and dropped.  Every list ends with the node's trivial
    cut, which only its fanouts use; the first entry is the node's
    depth-optimal cut.
    """
    cuts: List[List[Cut]] = []
    depth: List[int] = []
    for node in network.nodes:  # node ids are topologically ordered
        nid = node.id
        if node.kind in _LEAF_KINDS:
            cuts.append([(1 << nid, (nid,), 0)])
            depth.append(0)
            continue
        # Leaf mask -> (leaves, repeats allowed; arrival), in
        # first-occurrence order.
        merged: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        if len(node.fanins) == 1:
            for mask, leaves, arrival in cuts[node.fanins[0]]:
                merged[mask] = (leaves, arrival)
        else:
            a, b = node.fanins
            cuts_b = cuts[b]
            for mask_a, leaves_a, arrival_a in cuts[a]:
                for mask_b, leaves_b, arrival_b in cuts_b:
                    mask = mask_a | mask_b
                    if _popcount(mask) <= k and mask not in merged:
                        merged[mask] = (
                            leaves_a + leaves_b,
                            arrival_a if arrival_a > arrival_b else arrival_b,
                        )
        # Ties in (depth, size) keep the iteration order of a set of the
        # leaf frozensets built from a list in first-occurrence order;
        # the mappings depend on it.  (A set built from a dict presizes
        # its table and iterates in another order.)
        rank = {
            frozenset(leaves): (arrival, _popcount(mask), mask)
            for mask, (leaves, arrival) in merged.items()
        }
        kept: List[Cut] = []
        for leaves in sorted(set(list(rank)), key=lambda c: rank[c][:2]):
            arrival, _, mask = rank[leaves]
            for kept_mask, _, _ in kept:
                if kept_mask & mask == kept_mask:
                    break
            else:
                kept.append((mask, tuple(leaves), arrival))
            if len(kept) >= cut_limit:
                break
        depth.append(kept[0][2] + 1)
        kept.append((1 << nid, (nid,), depth[nid]))
        cuts.append(kept)
    return cuts, depth


@functools.lru_cache(maxsize=None)
def _projections(n: int) -> Tuple[int, ...]:
    """Truth tables of the ``n`` input variables over ``2**n`` rows."""
    full = (1 << (1 << n)) - 1
    return tuple(
        full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
        for i in range(n)
    )


def _cone_truth_table(
    network: LogicNetwork, root: int, leaves: Sequence[int]
) -> TruthTable:
    """Truth table of ``root`` as a function of the cut ``leaves``.

    The cone is evaluated once, on whole truth tables: each leaf starts
    as its projection and each gate is one big-int operation.
    """
    n = len(leaves)
    full = (1 << (1 << n)) - 1
    tables = dict(zip(leaves, _projections(n)))
    nodes = network.nodes

    def table(nid: int) -> int:
        bits = tables.get(nid)
        if bits is None:
            node = nodes[nid]
            kind = node.kind
            if kind is NodeKind.AND:
                bits = table(node.fanins[0]) & table(node.fanins[1])
            elif kind is NodeKind.OR:
                bits = table(node.fanins[0]) | table(node.fanins[1])
            elif kind is NodeKind.XOR:
                bits = table(node.fanins[0]) ^ table(node.fanins[1])
            elif kind is NodeKind.NOT:
                bits = table(node.fanins[0]) ^ full
            elif kind is NodeKind.CONST0:
                bits = 0
            elif kind is NodeKind.CONST1:
                bits = full
            else:
                raise ValueError(f"input node {nid} inside cut cone")
            tables[nid] = bits
        return bits

    return TruthTable(n, table(root))


def _absorb_single_fanout(
    luts: List[MappedLut], k: int, protected: set
) -> List[MappedLut]:
    """Fold single-fanout LUTs into their unique reader when supports fit.

    Cut-based covering over AND/OR trees leaves chains of partially
    filled LUTs; absorbing a LUT whose only reader can take over its
    inputs removes one LUT with no functional change.  Nets in
    ``protected`` (primary outputs) are kept as LUT boundaries.

    ``luts`` is in topological order.  Each step absorbs the earliest
    LUT that can be absorbed.  A merge changes only whether the reader
    and the nets it now reads can be absorbed, so those are queued for
    another look; every other LUT keeps the answer it had.  The reader
    keeps its place after the absorbed LUT and its inputs, so the order
    stays topological.
    """
    by_name: Dict[str, MappedLut] = {lut.name: lut for lut in luts}
    position = {lut.name: i for i, lut in enumerate(luts)}
    readers: Dict[str, List[str]] = {}
    for lut in luts:
        for src in lut.input_nets:
            readers.setdefault(src, []).append(lut.name)
    queue = list(range(len(luts)))  # a heap of positions to look at
    while queue:
        name = luts[heapq.heappop(queue)].name
        lut = by_name.get(name)
        if lut is None or name in protected:
            continue
        reading = readers.get(name, [])
        if len(reading) != 1:
            continue
        reader = by_name[reading[0]]
        merged_inputs: List[str] = []
        for src in reader.input_nets:
            if src == name:
                continue
            if src not in merged_inputs:
                merged_inputs.append(src)
        for src in lut.input_nets:
            if src not in merged_inputs:
                merged_inputs.append(src)
        if len(merged_inputs) > k:
            continue
        # Compose the two tables over the merged inputs' projections.
        full = (1 << (1 << len(merged_inputs))) - 1
        word = dict(zip(merged_inputs, _projections(len(merged_inputs))))
        word[name] = lut.table.evaluate_word(
            [word[src] for src in lut.input_nets], full
        )
        new_table = TruthTable(
            len(merged_inputs),
            reader.table.evaluate_word(
                [word[src] for src in reader.input_nets], full
            ),
        )
        by_name[reader.name] = MappedLut(
            name=reader.name,
            input_nets=tuple(merged_inputs),
            table=new_table,
            level=reader.level,
        )
        del by_name[name]
        del readers[name]
        for src in lut.input_nets:
            reading = readers[src]
            reading.remove(name)
            if reader.name not in reading:
                reading.append(reader.name)
        for net in [reader.name] + merged_inputs:
            if net in by_name:
                heapq.heappush(queue, position[net])
    return list(by_name.values())


def _recompute_levels(luts: List[MappedLut]) -> List[MappedLut]:
    """Set each LUT's level to one more than its deepest LUT input.

    ``luts`` is in topological order; a LUT fed only by primary inputs
    is level 1.  ``map_network`` calls this after absorption has merged
    LUTs, ``map_truth_tables`` on LUTs emitted at level 0.
    """
    level: Dict[str, int] = {}
    result: List[MappedLut] = []
    for lut in luts:
        lvl = 1 + max((level.get(src, 0) for src in lut.input_nets), default=0)
        level[lut.name] = lvl
        result.append(
            MappedLut(
                name=lut.name, input_nets=lut.input_nets,
                table=lut.table, level=lvl,
            )
        )
    return result


def _net_name(network: LogicNetwork, nid: int) -> str:
    node = network.node(nid)
    if node.kind == NodeKind.INPUT:
        assert node.name is not None
        return node.name
    if node.kind == NodeKind.CONST0:
        return GND_NET
    if node.kind == NodeKind.CONST1:
        return VCC_NET
    return f"n{nid}"


def map_truth_tables(
    functions: Dict[str, Tuple[Tuple[str, ...], TruthTable]],
    k: int = 4,
) -> LutMapping:
    """Map small explicit functions onto LUTs by Shannon decomposition.

    ``functions`` maps each output name to ``(input_net_names, table)``.
    Functions whose support exceeds ``k`` are split on their last
    support variable; cofactor cones are cached and shared across all
    outputs, which matters for wide Moore output functions where many
    outputs share state-bit cofactors.

    This path beats cut-based covering of an SOP tree for dense
    functions of few variables (a 6-input function costs at most 7
    4-LUTs here), which is exactly the Moore-output / Fig. 3 use case.
    """
    luts: List[MappedLut] = []
    cache: Dict[Tuple[Tuple[str, ...], int], str] = {}
    counter = [0]

    def build(input_names: Tuple[str, ...], table: TruthTable) -> str:
        shrunk, kept = table.shrink_to_support()
        names = tuple(input_names[v] for v in kept)
        if shrunk.n_inputs == 0:
            return VCC_NET if shrunk.bits else GND_NET
        if shrunk.n_inputs == 1 and shrunk.bits == 0b10:
            return names[0]  # plain wire
        key = (names, shrunk.bits)
        if key in cache:
            return cache[key]
        if shrunk.n_inputs <= k:
            net = f"f{counter[0]}"
            counter[0] += 1
            luts.append(MappedLut(net, names, shrunk, level=0))
        else:
            var = shrunk.n_inputs - 1
            lo = build(names, shrunk.cofactor(var, 0))
            hi = build(names, shrunk.cofactor(var, 1))
            if lo == hi:
                cache[key] = lo
                return lo
            # 2:1 mux LUT: inputs (lo, hi, select).
            mux_table = TruthTable.from_function(
                3, lambda a, b, s: (b if s else a)
            )
            net = f"f{counter[0]}"
            counter[0] += 1
            luts.append(
                MappedLut(net, (lo, hi, names[var]), mux_table, level=0)
            )
        cache[key] = net
        return net

    outputs: Dict[str, str] = {}
    all_inputs: List[str] = []
    for name, (input_names, table) in functions.items():
        if table.n_inputs != len(input_names):
            raise ValueError(f"arity mismatch for function {name!r}")
        for n in input_names:
            if n not in all_inputs:
                all_inputs.append(n)
        outputs[name] = build(tuple(input_names), table)

    # Drop GND/VCC placeholders from input bookkeeping and fix levels.
    mapping = LutMapping(
        k=k, luts=_recompute_levels(luts), input_nets=sorted(all_inputs),
        outputs=outputs,
    )
    return mapping


def map_network(
    network: LogicNetwork, k: int = 4, cut_limit: int = 12
) -> LutMapping:
    """Map ``network`` onto K-input LUTs.

    Parameters
    ----------
    network:
        The technology-independent network.
    k:
        LUT input count (4 for the paper's Virtex-II target).
    cut_limit:
        Maximum cuts retained per node; larger explores more mappings.

    Returns
    -------
    LutMapping
        LUT netlist with truth tables and logic levels, functionally
        equivalent to the network (property-tested in the suite).
    """
    if k < 2:
        raise ValueError(f"LUT size must be at least 2, got {k}")
    cuts, depth = _enumerate_cuts(network, k, cut_limit)
    gates = 0
    for node in network.nodes:
        if node.kind not in _LEAF_KINDS:
            gates |= 1 << node.id

    # Cover from the outputs, one gate at a time in decreasing id order,
    # so every reader of a gate picks its cut before the gate does.  A
    # gate may sit one level under its most demanding reader; among its
    # cuts that meet that required depth (its depth-optimal cut always
    # does), pick the fewest gate leaves (each becomes a LUT of its
    # own), then the fewest leaves, then the shallowest.
    required: Dict[int, int] = {
        nid: depth[nid]
        for nid in network.outputs.values() if gates >> nid & 1
    }
    chosen_cut: Dict[int, Tuple[int, ...]] = {}
    for nid in range(len(depth) - 1, -1, -1):
        allowed = required.get(nid)
        if allowed is None:
            continue
        _, leaves, _ = min(
            (cut for cut in cuts[nid][:-1] if cut[2] < allowed),
            key=lambda cut: (
                _popcount(cut[0] & gates), _popcount(cut[0]), cut[2]
            ),
        )
        chosen_cut[nid] = leaves
        for leaf in leaves:
            if gates >> leaf & 1:
                prev = required.get(leaf)
                required[leaf] = (
                    allowed - 1 if prev is None else min(prev, allowed - 1)
                )

    luts: List[MappedLut] = []
    for nid in sorted(chosen_cut):  # node ids are topologically ordered
        leaves = sorted(chosen_cut[nid])
        table = _cone_truth_table(network, nid, leaves)
        luts.append(
            MappedLut(
                name=_net_name(network, nid),
                input_nets=tuple(_net_name(network, leaf) for leaf in leaves),
                table=table,
                level=depth[nid],
            )
        )

    outputs = {
        name: _net_name(network, nid) for name, nid in network.outputs.items()
    }
    luts = _absorb_single_fanout(luts, k, set(outputs.values()))
    luts = _recompute_levels(luts)
    return LutMapping(
        k=k,
        luts=luts,
        input_nets=sorted(network.inputs),
        outputs=outputs,
    )
