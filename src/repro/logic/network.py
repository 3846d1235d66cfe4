"""Technology-independent Boolean networks.

A :class:`LogicNetwork` is a DAG of primitive gates (2-input AND/OR/XOR,
inverters, constants) between named primary inputs and named primary
outputs.  The FF-baseline synthesis flow builds one network holding every
next-state and output function of the FSM, then hands it to the K-LUT
mapper in :mod:`repro.logic.lutmap`.

SOP covers are turned into networks with balanced AND/OR trees so that
the mapped LUT depth reflects what a commercial synthesizer would get
from the same two-level form.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.cube import Cover

__all__ = ["NodeKind", "Node", "LogicNetwork", "sop_to_network"]


class NodeKind(enum.Enum):
    """Primitive node types of the technology-independent network."""

    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"


_ARITY = {
    NodeKind.INPUT: 0,
    NodeKind.CONST0: 0,
    NodeKind.CONST1: 0,
    NodeKind.NOT: 1,
    NodeKind.AND: 2,
    NodeKind.OR: 2,
    NodeKind.XOR: 2,
}


_CONST_VALUE = {NodeKind.CONST0: 0, NodeKind.CONST1: 1}

_FOLD = {
    NodeKind.AND: operator.and_,
    NodeKind.OR: operator.or_,
    NodeKind.XOR: operator.xor,
}


@dataclass(frozen=True)
class Node:
    """A single gate: ``kind`` applied to ``fanins`` (node ids)."""

    id: int
    kind: NodeKind
    fanins: Tuple[int, ...] = ()
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.fanins) != _ARITY[self.kind]:
            raise ValueError(
                f"{self.kind.value} node takes {_ARITY[self.kind]} fanins, "
                f"got {len(self.fanins)}"
            )


class LogicNetwork:
    """A combinational DAG with named primary inputs/outputs.

    Structural hashing (one node per unique ``(kind, fanins)``) keeps the
    network canonical enough that repeated literals and shared product
    terms across the FSM's output functions are built only once.
    """

    def __init__(self) -> None:
        self._nodes: List[Node] = []
        self._inputs: Dict[str, int] = {}
        self._outputs: Dict[str, int] = {}
        self._strash: Dict[Tuple[NodeKind, Tuple[int, ...]], int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_input(self, name: str) -> int:
        """Declare a primary input; returns its node id."""
        if name in self._inputs:
            return self._inputs[name]
        node = Node(len(self._nodes), NodeKind.INPUT, (), name)
        self._nodes.append(node)
        self._inputs[name] = node.id
        return node.id

    def set_output(self, name: str, node_id: int) -> None:
        """Bind primary output ``name`` to an existing node."""
        self._check_id(node_id)
        self._outputs[name] = node_id

    def remove_output(self, name: str) -> None:
        """Unbind a primary output (its logic stays until dead-code removal)."""
        self._outputs.pop(name, None)

    def const(self, value: int) -> int:
        kind = NodeKind.CONST1 if value else NodeKind.CONST0
        return self._get_or_add(kind, ())

    def not_(self, a: int) -> int:
        node = self._nodes[a]
        # Local simplifications keep the DAG small.
        if node.kind == NodeKind.NOT:
            return node.fanins[0]
        if node.kind == NodeKind.CONST0:
            return self.const(1)
        if node.kind == NodeKind.CONST1:
            return self.const(0)
        return self._get_or_add(NodeKind.NOT, (a,))

    def and_(self, a: int, b: int) -> int:
        return self._binary(NodeKind.AND, a, b)

    def or_(self, a: int, b: int) -> int:
        return self._binary(NodeKind.OR, a, b)

    def xor_(self, a: int, b: int) -> int:
        return self._binary(NodeKind.XOR, a, b)

    def and_tree(self, terms: Sequence[int]) -> int:
        """Balanced AND over ``terms`` (empty tree is constant 1)."""
        return self._tree(NodeKind.AND, terms, empty_value=1)

    def or_tree(self, terms: Sequence[int]) -> int:
        """Balanced OR over ``terms`` (empty tree is constant 0)."""
        return self._tree(NodeKind.OR, terms, empty_value=0)

    def mux(self, sel: int, if0: int, if1: int) -> int:
        """2:1 multiplexer built from primitive gates."""
        return self.or_(
            self.and_(self.not_(sel), if0),
            self.and_(sel, if1),
        )

    def _tree(self, kind: NodeKind, terms: Sequence[int], empty_value: int) -> int:
        terms = list(terms)
        if not terms:
            return self.const(empty_value)
        while len(terms) > 1:
            nxt: List[int] = []
            for i in range(0, len(terms) - 1, 2):
                nxt.append(self._binary(kind, terms[i], terms[i + 1]))
            if len(terms) % 2:
                nxt.append(terms[-1])
            terms = nxt
        return terms[0]

    def _binary(self, kind: NodeKind, a: int, b: int) -> int:
        self._check_id(a)
        self._check_id(b)
        ka = self._nodes[a].kind
        kb = self._nodes[b].kind
        # Constant folding.
        consts = _CONST_VALUE
        if ka in consts or kb in consts:
            if ka in consts and kb in consts:
                return self.const(_FOLD[kind](consts[ka], consts[kb]))
            const_val, other = (consts[ka], b) if ka in consts else (consts[kb], a)
            if kind == NodeKind.AND:
                return other if const_val else self.const(0)
            if kind == NodeKind.OR:
                return self.const(1) if const_val else other
            return self.not_(other) if const_val else other  # XOR
        if a == b:
            if kind == NodeKind.XOR:
                return self.const(0)
            return a  # idempotent AND/OR
        # Commutative canonical order for structural hashing.
        if a > b:
            a, b = b, a
        return self._get_or_add(kind, (a, b))

    def _get_or_add(self, kind: NodeKind, fanins: Tuple[int, ...]) -> int:
        key = (kind, fanins)
        existing = self._strash.get(key)
        if existing is not None:
            return existing
        node = Node(len(self._nodes), kind, fanins)
        self._nodes.append(node)
        self._strash[key] = node.id
        return node.id

    def _check_id(self, node_id: int) -> None:
        if not 0 <= node_id < len(self._nodes):
            raise ValueError(f"unknown node id {node_id}")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Sequence[Node]:
        return self._nodes

    @property
    def inputs(self) -> Dict[str, int]:
        return dict(self._inputs)

    @property
    def outputs(self) -> Dict[str, int]:
        return dict(self._outputs)

    def node(self, node_id: int) -> Node:
        self._check_id(node_id)
        return self._nodes[node_id]

    def fanout_counts(self) -> Dict[int, int]:
        """Map node id -> number of reading gate pins plus output bindings."""
        counts = {n.id: 0 for n in self._nodes}
        for n in self._nodes:
            for f in n.fanins:
                counts[f] += 1
        for node_id in self._outputs.values():
            counts[node_id] += 1
        return counts

    def topological_order(self) -> List[int]:
        """Node ids in dependency order (fanins before fanouts).

        Node ids are already assigned in creation order and fanins always
        precede their fanouts, so this is simply ``range(len(nodes))``,
        but the method name documents the guarantee for callers.
        """
        return list(range(len(self._nodes)))

    def reachable_from_outputs(self) -> List[int]:
        """Node ids in the transitive fanin of any primary output."""
        seen = set()
        stack = list(self._outputs.values())
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self._nodes[nid].fanins)
        return sorted(seen)

    def gate_count(self) -> int:
        """Number of live non-input, non-constant gates."""
        live = set(self.reachable_from_outputs())
        skip = (NodeKind.INPUT, NodeKind.CONST0, NodeKind.CONST1)
        return sum(1 for n in self._nodes if n.id in live and n.kind not in skip)

    def depth(self) -> int:
        """Longest gate path from any input to any output (inverters count)."""
        levels: Dict[int, int] = {}
        for nid in self.topological_order():
            node = self._nodes[nid]
            if not node.fanins:
                levels[nid] = 0
            else:
                levels[nid] = 1 + max(levels[f] for f in node.fanins)
        if not self._outputs:
            return 0
        return max(levels[o] for o in self._outputs.values())

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def evaluate(self, input_values: Dict[str, int]) -> Dict[str, int]:
        """Evaluate all outputs for one input assignment."""
        values: Dict[int, int] = {}
        for nid in self.topological_order():
            node = self._nodes[nid]
            if node.kind == NodeKind.INPUT:
                if node.name not in input_values:
                    raise KeyError(f"missing value for input {node.name!r}")
                values[nid] = input_values[node.name] & 1
            elif node.kind == NodeKind.CONST0:
                values[nid] = 0
            elif node.kind == NodeKind.CONST1:
                values[nid] = 1
            elif node.kind == NodeKind.NOT:
                values[nid] = values[node.fanins[0]] ^ 1
            elif node.kind == NodeKind.AND:
                values[nid] = values[node.fanins[0]] & values[node.fanins[1]]
            elif node.kind == NodeKind.OR:
                values[nid] = values[node.fanins[0]] | values[node.fanins[1]]
            else:  # XOR
                values[nid] = values[node.fanins[0]] ^ values[node.fanins[1]]
        return {name: values[nid] for name, nid in self._outputs.items()}


def sop_to_network(
    covers: Dict[str, Cover],
    input_names: Sequence[str],
    network: Optional[LogicNetwork] = None,
) -> LogicNetwork:
    """Build a gate network computing one SOP cover per output name.

    Parameters
    ----------
    covers:
        Map from output name to its :class:`~repro.logic.cube.Cover`; every
        cover must have arity ``len(input_names)``, with cover variable
        ``i`` reading ``input_names[i]``.
    input_names:
        Ordered primary-input names.
    network:
        Optional existing network to extend (used when stacking the FSM's
        next-state and output logic into a single netlist).
    """
    net = network if network is not None else LogicNetwork()
    literal_ids = [net.add_input(name) for name in input_names]
    for out_name, cover in covers.items():
        if cover.n_vars != len(input_names):
            raise ValueError(
                f"cover for {out_name!r} has arity {cover.n_vars}, "
                f"expected {len(input_names)}"
            )
        product_ids: List[int] = []
        for cube in cover:
            literals: List[int] = []
            care = cube.care_mask()
            one = cube.one_mask
            while care:  # bound variables, lowest first
                low = care & -care
                var = low.bit_length() - 1
                if one & low:
                    literals.append(literal_ids[var])
                else:
                    literals.append(net.not_(literal_ids[var]))
                care ^= low
            product_ids.append(net.and_tree(literals))
        net.set_output(out_name, net.or_tree(product_ids))
    return net
