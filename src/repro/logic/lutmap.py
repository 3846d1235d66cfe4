"""K-LUT technology mapping via K-feasible cut enumeration.

This is a compact FlowMap-style mapper: it enumerates K-feasible cuts
bottom-up, labels every node with its optimal mapped depth, then covers
the network from the primary outputs, emitting one LUT per selected cut.
Ties between equal-depth cuts are broken toward fewer leaves, which is
the usual area heuristic.

The mapper's output (:class:`LutMapping`) carries, for every LUT, its
input nets, its truth table (the LUT configuration bits) and its logic
level — exactly the quantities the area, timing and power models consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

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


Cut = FrozenSet[int]


def _enumerate_cuts(
    network: LogicNetwork, k: int, cut_limit: int
) -> Dict[int, List[Cut]]:
    """K-feasible cuts per node, pruned to ``cut_limit`` per node.

    Pruning keeps the cuts with the best (mapped depth, size) first, so
    the depth-optimal cut of a node — e.g. the whole 4-input cone of a
    two-level tree — is never discarded in favour of many shallow small
    cuts.
    """
    cuts: Dict[int, List[Cut]] = {}
    depth: Dict[int, int] = {}
    for nid in network.topological_order():
        node = network.node(nid)
        trivial: Cut = frozenset([nid])
        if node.kind in _LEAF_KINDS:
            cuts[nid] = [trivial]
            depth[nid] = 0
            continue
        merged: List[Cut] = []
        if len(node.fanins) == 1:
            candidates = [c for c in cuts[node.fanins[0]] if len(c) <= k]
            merged.extend(candidates)
        else:
            a, b = node.fanins
            for ca in cuts[a]:
                for cb in cuts[b]:
                    union = ca | cb
                    if len(union) <= k:
                        merged.append(union)
        # Drop the node's own trivial-cut leakage through unary merges.
        merged = [c for c in merged if c != trivial]
        if not merged:
            merged = [frozenset(node.fanins)]

        def cut_depth(cut: Cut) -> int:
            return 1 + max(depth[leaf] for leaf in cut)

        unique = sorted(set(merged), key=lambda c: (cut_depth(c), len(c)))
        kept: List[Cut] = []
        for cut in unique:
            if not any(
                existing < cut and cut_depth(existing) <= cut_depth(cut)
                for existing in kept
            ):
                kept.append(cut)
            if len(kept) >= cut_limit:
                break
        depth[nid] = cut_depth(kept[0])
        kept.append(trivial)
        cuts[nid] = kept
    return cuts


def _cone_truth_table(
    network: LogicNetwork, root: int, leaves: Sequence[int]
) -> TruthTable:
    """Truth table of ``root`` as a function of the cut ``leaves``."""
    leaf_pos = {nid: i for i, nid in enumerate(leaves)}
    n = len(leaves)
    bits = 0
    for assignment in range(1 << n):
        memo: Dict[int, int] = {}

        def eval_node(nid: int) -> int:
            if nid in memo:
                return memo[nid]
            if nid in leaf_pos:
                value = (assignment >> leaf_pos[nid]) & 1
            else:
                node = network.node(nid)
                if node.kind == NodeKind.CONST0:
                    value = 0
                elif node.kind == NodeKind.CONST1:
                    value = 1
                elif node.kind == NodeKind.NOT:
                    value = eval_node(node.fanins[0]) ^ 1
                elif node.kind == NodeKind.AND:
                    value = eval_node(node.fanins[0]) & eval_node(node.fanins[1])
                elif node.kind == NodeKind.OR:
                    value = eval_node(node.fanins[0]) | eval_node(node.fanins[1])
                elif node.kind == NodeKind.XOR:
                    value = eval_node(node.fanins[0]) ^ eval_node(node.fanins[1])
                else:
                    raise ValueError(f"input node {nid} inside cut cone")
            memo[nid] = value
            return value

        if eval_node(root):
            bits |= 1 << assignment
    return TruthTable(n, bits)


def _absorb_single_fanout(
    luts: List[MappedLut], k: int, protected: set
) -> List[MappedLut]:
    """Fold single-fanout LUTs into their unique reader when supports fit.

    Cut-based covering over AND/OR trees leaves chains of partially
    filled LUTs; absorbing a LUT whose only reader can take over its
    inputs removes one LUT with no functional change.  Nets in
    ``protected`` (primary outputs) are kept as LUT boundaries.
    """
    by_name: Dict[str, MappedLut] = {lut.name: lut for lut in luts}
    changed = True
    while changed:
        changed = False
        readers: Dict[str, List[str]] = {}
        for lut in by_name.values():
            for src in lut.input_nets:
                readers.setdefault(src, []).append(lut.name)
        for name, lut in list(by_name.items()):
            if name in protected:
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
            pos = {net: i for i, net in enumerate(merged_inputs)}
            child_positions = [pos[src] for src in lut.input_nets]
            reader_sources = list(reader.input_nets)

            def merged_fn(*args: int) -> int:
                child_assign = 0
                for i, p in enumerate(child_positions):
                    child_assign |= (args[p] & 1) << i
                child_val = lut.table.evaluate(child_assign)
                reader_assign = 0
                for i, src in enumerate(reader_sources):
                    bit = child_val if src == name else args[pos[src]]
                    reader_assign |= (bit & 1) << i
                return reader.table.evaluate(reader_assign)

            new_table = TruthTable.from_function(len(merged_inputs), merged_fn)
            by_name[reader.name] = MappedLut(
                name=reader.name,
                input_nets=tuple(merged_inputs),
                table=new_table,
                level=reader.level,
            )
            del by_name[name]
            changed = True
            break  # readers map is stale; rebuild
    # Preserve topological emission order (inputs before readers).
    ordered: List[MappedLut] = []
    emitted: set = set()
    remaining = dict(by_name)
    while remaining:
        progressed = False
        for name in list(remaining):
            lut = remaining[name]
            if all(src in emitted or src not in by_name
                   for src in lut.input_nets):
                ordered.append(lut)
                emitted.add(name)
                del remaining[name]
                progressed = True
        if not progressed:  # cycle cannot happen; guard anyway
            ordered.extend(remaining.values())
            break
    return ordered


def _recompute_levels(luts: List[MappedLut]) -> List[MappedLut]:
    """Re-derive logic levels after absorption (luts in topological order)."""
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
    cuts = _enumerate_cuts(network, k, cut_limit)

    # Depth labelling: best achievable mapped depth per node.
    depth: Dict[int, int] = {}
    best_cut: Dict[int, Cut] = {}
    for nid in network.topological_order():
        node = network.node(nid)
        if node.kind in _LEAF_KINDS:
            depth[nid] = 0
            best_cut[nid] = frozenset([nid])
            continue
        best: Optional[Tuple[int, int, Cut]] = None
        for cut in cuts[nid]:
            if cut == frozenset([nid]):
                continue  # a node cannot be implemented by itself
            d = 1 + max(depth[leaf] for leaf in cut)
            key = (d, len(cut))
            if best is None or key < best[:2]:
                best = (d, len(cut), cut)
        if best is None:
            raise RuntimeError(f"no feasible cut for node {nid}")
        depth[nid] = best[0]
        best_cut[nid] = best[2]

    # Covering from the outputs with area recovery: among cuts that do
    # not worsen the node's required arrival level, prefer the one whose
    # leaves add the fewest *new* LUTs (reuse already-demanded cones).
    required_depth: Dict[int, int] = {}
    for nid in network.outputs.values():
        if network.node(nid).kind not in _LEAF_KINDS:
            prev = required_depth.get(nid)
            required_depth[nid] = depth[nid] if prev is None else max(prev, depth[nid])
    chosen_cut: Dict[int, Cut] = {}
    # Process deepest-first so parents choose before children are fixed.
    worklist = list(required_depth)
    seen = set()
    while worklist:
        nid = max(worklist)
        worklist.remove(nid)
        if nid in seen:
            continue
        seen.add(nid)
        allowed = required_depth.get(nid, depth[nid])
        best: Optional[Tuple[int, int, int, Cut]] = None
        for cut in cuts[nid]:
            if cut == frozenset([nid]):
                continue
            d = 1 + max(depth[leaf] for leaf in cut)
            if d > allowed:
                continue
            new_gates = sum(
                1 for leaf in cut
                if network.node(leaf).kind not in _LEAF_KINDS
                and leaf not in seen
            )
            key = (new_gates, len(cut), d)
            if best is None or key < best[:3]:
                best = (*key, cut)
        if best is None:
            # Fall back to the depth-optimal cut (always feasible).
            chosen = best_cut[nid]
        else:
            chosen = best[3]
        chosen_cut[nid] = chosen
        for leaf in chosen:
            if network.node(leaf).kind in _LEAF_KINDS:
                continue
            slack_depth = required_depth.get(nid, depth[nid]) - 1
            prev = required_depth.get(leaf)
            required_depth[leaf] = (
                min(prev, slack_depth) if prev is not None else slack_depth
            )
            if leaf not in seen:
                worklist.append(leaf)

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
