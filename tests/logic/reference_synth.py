"""A frozen copy of the original two-level minimizer and K-LUT mapper.

The espresso loop (complement, tautology, EXPAND, IRREDUNDANT, REDUCE)
on :class:`~repro.logic.cube.Cover` objects, and the cut-based mapper
that re-evaluates each chosen cone once per leaf assignment.  The
production modules :mod:`repro.logic.minimize` and
:mod:`repro.logic.lutmap` must return the same covers (cube sequence
included) and the same LUT netlists; ``test_synth_differential.py``
checks that on seeded random covers and networks and on the paper's
machines.  The ``Cover`` methods the loop used (cofactor, single-cube
containment, cube containment) are copied in as functions so that this
file depends only on the cube and truth-table *data* types.  Do not
"fix" or speed up this file — it is the specification.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.logic.cube import Cover, Cube
from repro.logic.lutmap import GND_NET, VCC_NET, LutMapping, MappedLut
from repro.logic.network import LogicNetwork, NodeKind
from repro.logic.truthtable import TruthTable

_LEAF_KINDS = (NodeKind.INPUT, NodeKind.CONST0, NodeKind.CONST1)


# ----------------------------------------------------------------------
# Cover methods the espresso loop used
# ----------------------------------------------------------------------


def _scc(cover: Cover) -> Cover:
    """Drop cubes contained in some other single cube of the cover."""
    kept: List[Cube] = []
    # Sort large-to-small so containers are considered first.
    for cube in sorted(cover.cubes, key=Cube.num_literals):
        zero = cube.zero_mask
        one = cube.one_mask
        for k in kept:
            if zero & k.zero_mask == zero and one & k.one_mask == one:
                break
        else:
            kept.append(cube)
    return Cover._wrap(cover.n_vars, kept)


def _cofactor(cover: Cover, cube: Cube) -> Cover:
    """Cover cofactored against ``cube`` (drop non-intersecting cubes)."""
    full = (1 << cover.n_vars) - 1
    zero = cube.zero_mask
    one = cube.one_mask
    care = (zero ^ one) & full
    cubes = [
        Cube._raw(cover.n_vars, c.zero_mask | care, c.one_mask | care)
        for c in cover.cubes
        if ((zero & c.zero_mask) | (one & c.one_mask)) == full
    ]
    return Cover._wrap(cover.n_vars, cubes)


def _covers_cube(cover: Cover, cube: Cube) -> bool:
    """True when every minterm of ``cube`` is covered."""
    if cube.is_empty():
        return True
    return is_tautology(_cofactor(cover, cube))


# ----------------------------------------------------------------------
# Espresso
# ----------------------------------------------------------------------


def _most_binate_var(cover: Cover) -> Optional[int]:
    """Pick the best splitting variable for the unate recursive paradigm.

    Prefers the most *binate* variable (appears in both polarities in the
    most cubes); when the cover is unate, returns the most-bound variable;
    returns None when no cube binds any variable.
    """
    n = cover.n_vars
    count0 = [0] * n
    count1 = [0] * n
    for cube in cover.cubes:
        care = cube.care_mask()
        ones = cube.one_mask & care
        # Iterate only the bound variables (set bits), not all n.
        while care:
            low = care & -care
            care ^= low
            var = low.bit_length() - 1
            if ones & low:
                count1[var] += 1
            else:
                count0[var] += 1
    best_var = None
    best_key: Tuple[int, int] = (-1, -1)
    for var in range(n):
        c0 = count0[var]
        c1 = count1[var]
        if c0 == 0 and c1 == 0:
            continue
        # Binate vars first (min polarity count), then total occurrences.
        key = (c0 if c0 < c1 else c1, c0 + c1)
        if key > best_key:
            best_key = key
            best_var = var
    return best_var


def _unate_reduction_tautology(cover: Cover) -> Optional[bool]:
    """Fast tautology special cases; None when recursion is required."""
    if any(c.is_full() for c in cover):
        return True
    if not cover.cubes:
        return False
    # A unate cover is a tautology iff it contains the universal cube.
    # (Checked above.)  Detect unateness cheaply.
    n = cover.n_vars
    has0 = 0
    has1 = 0
    for cube in cover:
        care = cube.care_mask()
        has1 |= cube.one_mask & care
        has0 |= care & ~cube.one_mask
    if not (has0 & has1):  # unate in every variable
        return False
    # Quick necessary condition: minterm count must reach 2**n.
    total = sum(c.num_minterms() for c in cover)
    if total < (1 << n):
        return False
    return None


def _branch_cover(cover: Cover, var: int, value: int) -> Cover:
    """Cofactor of ``cover`` against ``var = value``, ``var`` raised."""
    bit = 1 << var
    cubes: List[Cube] = []
    if value:
        for cube in cover.cubes:
            if cube.one_mask & bit:
                cubes.append(
                    Cube._raw(cover.n_vars, cube.zero_mask | bit, cube.one_mask)
                )
    else:
        for cube in cover.cubes:
            if cube.zero_mask & bit:
                cubes.append(
                    Cube._raw(cover.n_vars, cube.zero_mask, cube.one_mask | bit)
                )
    return Cover._wrap(cover.n_vars, cubes)


def is_tautology(cover: Cover) -> bool:
    """True when the cover evaluates to 1 for every input assignment."""
    quick = _unate_reduction_tautology(cover)
    if quick is not None:
        return quick
    var = _most_binate_var(cover)
    if var is None:
        # No cube binds any variable: tautology iff any cube is non-empty.
        return bool(cover.cubes)
    for value in (0, 1):
        if not is_tautology(_branch_cover(cover, var, value)):
            return False
    return True


# Complement results memoized across calls: espresso's REDUCE step
# complements a near-identical "rest of the cover" for every cube, and
# successive EXPAND/IRREDUNDANT/REDUCE sweeps revisit the same covers.
# Keys commit to the exact cube *sequence* (not the set) so a memo hit
# returns bit-identical results to recomputation — cube order steers the
# heuristics downstream.  Cleared wholesale at the size cap.
_COMPLEMENT_MEMO: Dict[Tuple, Cover] = {}
_COMPLEMENT_MEMO_LIMIT = 4096


def _cover_memo_key(cover: Cover) -> Tuple:
    return (
        cover.n_vars,
        tuple((c.zero_mask, c.one_mask) for c in cover.cubes),
    )


def complement(cover: Cover) -> Cover:
    """Compute a cover of the complement of ``cover``.

    Uses the unate recursive paradigm: split on the most binate variable,
    complement each cofactor, and merge with the splitting literal.
    """
    key = _cover_memo_key(cover)
    cached = _COMPLEMENT_MEMO.get(key)
    if cached is not None:
        # Hand out a fresh wrapper so caller-side mutation (the cover is
        # public API) cannot poison the memo; cubes are immutable.
        return Cover._wrap(cover.n_vars, list(cached.cubes))
    result = _complement_uncached(cover)
    if len(_COMPLEMENT_MEMO) >= _COMPLEMENT_MEMO_LIMIT:
        _COMPLEMENT_MEMO.clear()
    _COMPLEMENT_MEMO[key] = Cover._wrap(cover.n_vars, list(result.cubes))
    return result


def _complement_uncached(cover: Cover) -> Cover:
    n = cover.n_vars
    if not cover.cubes:
        return Cover.universe(n)
    if any(c.is_full() for c in cover.cubes):
        return Cover.empty(n)
    if len(cover.cubes) == 1:
        return _complement_cube(cover.cubes[0])
    var = _most_binate_var(cover)
    if var is None:
        return Cover.empty(n)
    result: List[Cube] = []
    bit = 1 << var
    for value in (0, 1):
        comp = complement(_branch_cover(cover, var, value))
        # Re-bind the splitting literal on each complement cube.
        if value:
            for cube in comp.cubes:
                if cube.one_mask & bit:
                    result.append(
                        Cube._raw(n, cube.zero_mask & ~bit, cube.one_mask)
                    )
        else:
            for cube in comp.cubes:
                if cube.zero_mask & bit:
                    result.append(
                        Cube._raw(n, cube.zero_mask, cube.one_mask & ~bit)
                    )
    return _scc(Cover._wrap(n, result))


def _complement_cube(cube: Cube) -> Cover:
    """De Morgan complement of a single cube (one cube per bound literal)."""
    n = cube.n_vars
    result = Cover(n)
    for var in range(n):
        lit = cube.literal(var)
        if lit == "0":
            result.append(Cube.full(n).restrict_var(var, 1))  # type: ignore[arg-type]
        elif lit == "1":
            result.append(Cube.full(n).restrict_var(var, 0))  # type: ignore[arg-type]
    return result


# ----------------------------------------------------------------------
# Espresso loop
# ----------------------------------------------------------------------


def _expand(on: Cover, off: Cover) -> Cover:
    """EXPAND: grow each cube maximally without hitting the OFF-set.

    Literals are raised greedily in an order that prefers freeing the
    variables bound in the fewest OFF-set cubes; expanded cubes that
    swallow other ON-cubes let us drop the swallowed ones.
    """
    n = on.n_vars
    full = (1 << n) - 1
    off_cubes = off.cubes
    # Per-variable count of OFF cubes binding it, tabulated once; the old
    # per-literal _blocking_count rescanned the OFF cover each time.
    blocking = [0] * n
    for c in off_cubes:
        care = c.care_mask()
        while care:
            low = care & -care
            care ^= low
            blocking[low.bit_length() - 1] += 1
    cubes = sorted(on.cubes, key=Cube.num_literals, reverse=True)
    expanded: List[Cube] = []
    for cube in cubes:
        cz = cube.zero_mask
        co = cube.one_mask
        swallowed = False
        for e in expanded:
            if cz & e.zero_mask == cz and co & e.one_mask == co:
                swallowed = True
                break
        if swallowed:
            continue
        # Try raising literals one at a time, cheapest first.
        care = (cz ^ co) & full
        order = sorted(
            (v for v in range(n) if care >> v & 1),
            key=blocking.__getitem__,
        )
        for var in order:
            bit = 1 << var
            tz = cz | bit
            to = co | bit
            if blocking[var] == 0:
                # No OFF cube binds var: raising it cannot create an
                # intersection (the cube is disjoint from OFF on some
                # other variable, which raising var leaves bound).
                cz, co = tz, to
                continue
            for c in off_cubes:
                if ((tz & c.zero_mask) | (to & c.one_mask)) == full:
                    break
            else:
                cz, co = tz, to
        expanded.append(Cube._raw(n, cz, co))
    return _scc(Cover._wrap(n, expanded))


def _irredundant(on: Cover, dc: Cover) -> Cover:
    """IRREDUNDANT: drop cubes covered by the rest of the cover plus DC."""
    cubes = list(on.cubes)
    dc_cubes = dc.cubes
    # Visit smallest cubes first: they are the most likely to be redundant.
    for cube in sorted(cubes, key=Cube.num_literals, reverse=True):
        rest = Cover._wrap(
            on.n_vars, [c for c in cubes if c is not cube] + dc_cubes
        )
        if _covers_cube(rest, cube):
            cubes.remove(cube)
    return Cover._wrap(on.n_vars, cubes)


def _reduce(on: Cover, dc: Cover) -> Cover:
    """REDUCE: shrink each cube to the supercube of its essential part.

    The essential part of cube ``c`` is ``c`` minus what the rest of the
    cover (plus DC) covers; reducing opens room for the next EXPAND to
    find a different (hopefully smaller) local optimum.
    """
    n = on.n_vars
    cubes = list(on.cubes)
    dc_cubes = list(dc.cubes)
    reduced: List[Cube] = []
    for i, cube in enumerate(cubes):
        rest = Cover._wrap(
            n, [c for j, c in enumerate(cubes) if j != i] + dc_cubes
        )
        rest_cf = _cofactor(rest, cube)
        comp = complement(rest_cf)
        # supercube of (cube AND complement(rest cofactor cube))
        essential = [
            inter for inter in (cc.intersect(cube) for cc in comp.cubes)
            if inter is not None
        ]
        if not essential:
            # Fully covered by the rest; keep as-is, IRREDUNDANT removes it.
            reduced.append(cube)
            continue
        super_c = essential[0]
        for cc in essential[1:]:
            super_c = super_c.supercube(cc)
        reduced.append(super_c)
        cubes[i] = super_c
    return Cover._wrap(n, reduced)


def _cover_cost(cover: Cover) -> Tuple[int, int]:
    return (len(cover), cover.num_literals())


def espresso(on: Cover, dc: Optional[Cover] = None, max_iters: int = 8) -> Cover:
    """Espresso-style heuristic minimization.

    Parameters
    ----------
    on:
        Cover of the ON-set.
    dc:
        Optional cover of the don't-care set.
    max_iters:
        Upper bound on EXPAND/IRREDUNDANT/REDUCE sweeps (the loop exits
        as soon as the cost stops improving).

    Returns
    -------
    Cover
        A cover ``F`` with ON ⊆ F ⊆ ON ∪ DC.
    """
    n = on.n_vars
    if dc is None:
        dc = Cover.empty(n)
    on = _scc(on)
    if on.is_empty_function():
        return on
    off = complement(Cover(n, list(on.cubes) + list(dc.cubes)))
    best = _irredundant(_expand(on, off), dc)
    best_cost = _cover_cost(best)
    current = best
    for _ in range(max_iters):
        current = _reduce(current, dc)
        current = _expand(current, off)
        current = _irredundant(current, dc)
        cost = _cover_cost(current)
        if cost < best_cost:
            best, best_cost = current, cost
        else:
            break
    return best


# ----------------------------------------------------------------------
# K-LUT mapping
# ----------------------------------------------------------------------

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
