"""Two-level logic minimization in the style of espresso.

This module provides the classic unate-recursive-paradigm primitives
(tautology check and complement) plus an espresso-style
EXPAND / IRREDUNDANT / REDUCE loop.  It stands in for the espresso pass
that SIS applies to the FSM's combinational logic before technology
mapping in the paper's experimental flow (paper Fig. 6).

The loop runs on plain ``(zero_mask, one_mask)`` int pairs — the
positional-cube encoding of :mod:`repro.logic.cube` without the object
around it — and lists of them.  Only the public functions take and
return :class:`~repro.logic.cube.Cover` objects.

The minimizer is heuristic, as espresso is: it guarantees the result is a
cover of the ON-set that stays inside ON ∪ DC, and it is verified for
functional equivalence by the test-suite, but it does not guarantee
minimality.  The FF baselines of the nine paper machines make 119 calls
(up to 16 variables and a few hundred cubes), which take about half a
second together with Python 3.11 on one x86 core.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.cube import Cover, Cube, _popcount

__all__ = [
    "is_tautology",
    "complement",
    "espresso",
]

# One cube: (zero_mask, one_mask), bit i of each for variable i.
Pair = Tuple[int, int]


def _literals(cube: Pair) -> int:
    """Number of bound variables (``Cube.num_literals``)."""
    return _popcount(cube[0] ^ cube[1])


def _to_pairs(cover: Cover) -> List[Pair]:
    return [(c.zero_mask, c.one_mask) for c in cover.cubes]


def _to_cover(n: int, cubes: Sequence[Pair]) -> Cover:
    return Cover._wrap(n, [Cube._raw(n, z, o) for z, o in cubes])


def _scc(cubes: Sequence[Pair]) -> List[Pair]:
    """Drop cubes contained in some other single cube (largest first)."""
    kept: List[Pair] = []
    for cube in sorted(cubes, key=_literals):
        zero, one = cube
        for kz, ko in kept:
            if zero & kz == zero and one & ko == one:
                break
        else:
            kept.append(cube)
    return kept


def _cofactor(cubes: Sequence[Pair], cube: Pair, full: int) -> List[Pair]:
    """``cubes`` cofactored against ``cube`` (non-intersecting ones drop)."""
    zero, one = cube
    care = zero ^ one
    return [
        (z | care, o | care)
        for z, o in cubes
        if (zero & z) | (one & o) == full
    ]


def _most_binate_var(cubes: Sequence[Pair], n: int) -> Optional[int]:
    """Pick the best splitting variable for the unate recursive paradigm.

    Prefers the most *binate* variable (appears in both polarities in the
    most cubes); when the cover is unate, returns the most-bound variable;
    returns None when no cube binds any variable.
    """
    count0 = [0] * n
    count1 = [0] * n
    for z, o in cubes:
        care = z ^ o
        ones = o & care
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


def _branch(cubes: Sequence[Pair], bit: int, value: int) -> List[Pair]:
    """Cofactor against variable ``bit`` = ``value``, the variable raised."""
    if value:
        return [(z | bit, o) for z, o in cubes if o & bit]
    return [(z, o | bit) for z, o in cubes if z & bit]


def _tautology(cubes: Sequence[Pair], n: int) -> bool:
    full = (1 << n) - 1
    if (full, full) in cubes:
        return True
    if not cubes:
        return False
    # A unate cover is a tautology iff it contains the universal cube
    # (checked above).  Detect unateness cheaply.
    has0 = 0
    has1 = 0
    total = 0
    for z, o in cubes:
        care = z ^ o
        has1 |= o & care
        has0 |= z & care
        if z | o == full:
            total += 1 << (n - _popcount(care))
    if not (has0 & has1):  # unate in every variable
        return False
    # Quick necessary condition: minterm count must reach 2**n.
    if total < (1 << n):
        return False
    var = _most_binate_var(cubes, n)
    if var is None:
        # No cube binds any variable (and the cover is not empty).
        return True
    bit = 1 << var
    return _tautology(_branch(cubes, bit, 0), n) and _tautology(
        _branch(cubes, bit, 1), n
    )


def is_tautology(cover: Cover) -> bool:
    """True when the cover evaluates to 1 for every input assignment."""
    return _tautology(_to_pairs(cover), cover.n_vars)


# Complement results memoized across calls: espresso's REDUCE step
# complements a near-identical "rest of the cover" for every cube, and
# successive EXPAND/IRREDUNDANT/REDUCE sweeps revisit the same covers.
# Keys are the arity plus the exact cube *sequence* (not the set), so a
# memo hit returns what recomputation would — cube order steers the
# heuristics downstream.  Cleared wholesale at the size cap.
_COMPLEMENT_MEMO: Dict[Tuple[int, Tuple[Pair, ...]], Tuple[Pair, ...]] = {}
_COMPLEMENT_MEMO_LIMIT = 4096


def _complement(cubes: Sequence[Pair], n: int) -> Tuple[Pair, ...]:
    key = (n, tuple(cubes))
    cached = _COMPLEMENT_MEMO.get(key)
    if cached is not None:
        return cached
    result = tuple(_complement_uncached(key[1], n))
    if len(_COMPLEMENT_MEMO) >= _COMPLEMENT_MEMO_LIMIT:
        _COMPLEMENT_MEMO.clear()
    _COMPLEMENT_MEMO[key] = result
    return result


def _complement_uncached(cubes: Sequence[Pair], n: int) -> List[Pair]:
    full = (1 << n) - 1
    if not cubes:
        return [(full, full)]
    if (full, full) in cubes:
        return []
    if len(cubes) == 1:
        # De Morgan: one cube per bound literal, in variable order.
        z, o = cubes[0]
        care = z ^ o
        result = []
        while care:
            low = care & -care
            care ^= low
            if z & low:
                result.append((full ^ low, full))
            else:
                result.append((full, full ^ low))
        return result
    var = _most_binate_var(cubes, n)
    if var is None:
        return []
    bit = 1 << var
    # Both cofactors leave the split variable free in every cube, and so
    # do their complements; re-bind it to 0 in one half and to 1 in the
    # other.  A complement holds no cube inside another, and the halves
    # differ on the split variable, so single-cube containment of the
    # merge would drop nothing: it only sorts, largest cubes first.
    result = [(z, o & ~bit) for z, o in _complement(_branch(cubes, bit, 0), n)]
    result.extend(
        (z & ~bit, o) for z, o in _complement(_branch(cubes, bit, 1), n)
    )
    return sorted(result, key=_literals)


def complement(cover: Cover) -> Cover:
    """Compute a cover of the complement of ``cover``.

    Uses the unate recursive paradigm: split on the most binate variable,
    complement each cofactor, and merge with the splitting literal.
    """
    return _to_cover(cover.n_vars, _complement(_to_pairs(cover), cover.n_vars))


# ----------------------------------------------------------------------
# Espresso loop
# ----------------------------------------------------------------------


def _expand(on: Sequence[Pair], off: Sequence[Pair], n: int) -> List[Pair]:
    """EXPAND: grow each cube maximally without hitting the OFF-set.

    Literals are raised greedily in an order that prefers freeing the
    variables bound in the fewest OFF-set cubes; expanded cubes that
    swallow other ON-cubes let us drop the swallowed ones.
    """
    full = (1 << n) - 1
    # Per-variable count of OFF cubes binding it, tabulated once.
    blocking = [0] * n
    for z, o in off:
        care = (z ^ o) & full
        while care:
            low = care & -care
            care ^= low
            blocking[low.bit_length() - 1] += 1
    expanded: List[Pair] = []
    for cz, co in sorted(on, key=_literals, reverse=True):
        for ez, eo in expanded:
            if cz & ez == cz and co & eo == co:
                break  # swallowed by an earlier expansion
        else:
            # For each OFF cube, the variables on which it and the cube
            # conflict.  Raising ``var`` makes the cube meet an OFF cube
            # exactly when that set is {var}, or already empty ("stuck");
            # a raised variable leaves every set.  A variable no OFF cube
            # binds is in no set.
            conflicts = {full ^ ((cz & z) | (co & o)) for z, o in off}
            stuck = 0 in conflicts
            # Try raising literals one at a time, cheapest first.
            care = (cz ^ co) & full
            order = sorted(
                (v for v in range(n) if care >> v & 1),
                key=blocking.__getitem__,
            )
            for var in order:
                bit = 1 << var
                if blocking[var]:
                    if stuck or bit in conflicts:
                        continue
                    conflicts = {c & ~bit for c in conflicts}
                cz |= bit
                co |= bit
            expanded.append((cz, co))
    return _scc(expanded)


def _irredundant(on: Sequence[Pair], dc: Sequence[Pair], n: int) -> List[Pair]:
    """IRREDUNDANT: drop cubes covered by the rest of the cover plus DC."""
    full = (1 << n) - 1
    cubes = list(on)
    # Visit smallest cubes first: they are the most likely to be redundant.
    for cube in sorted(cubes, key=_literals, reverse=True):
        rest = [c for c in cubes if c is not cube]
        rest.extend(dc)
        if _tautology(_cofactor(rest, cube, full), n):
            cubes.remove(cube)
    return cubes


def _reduce(on: Sequence[Pair], dc: Sequence[Pair], n: int) -> List[Pair]:
    """REDUCE: shrink each cube to the supercube of its essential part.

    The essential part of cube ``c`` is ``c`` minus what the rest of the
    cover (plus DC) covers; reducing opens room for the next EXPAND to
    find a different (hopefully smaller) local optimum.
    """
    full = (1 << n) - 1
    cubes = list(on)
    reduced: List[Pair] = []
    for i, cube in enumerate(cubes):
        rest = cubes[:i] + cubes[i + 1:]
        rest.extend(dc)
        comp = _complement(_cofactor(rest, cube, full), n)
        # supercube of (cube AND complement(rest cofactor cube))
        cz, co = cube
        super_z = super_o = 0
        essential = False
        for z, o in comp:
            z &= cz
            o &= co
            if z | o == full:
                super_z |= z
                super_o |= o
                essential = True
        if not essential:
            # Fully covered by the rest; keep as-is, IRREDUNDANT removes it.
            reduced.append(cube)
            continue
        cubes[i] = (super_z, super_o)
        reduced.append(cubes[i])
    return reduced


def _cover_cost(cubes: Sequence[Pair]) -> Tuple[int, int]:
    return (len(cubes), sum(map(_literals, cubes)))


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
    on = on.single_cube_containment()
    if on.is_empty_function():
        return on
    off = _complement(_to_pairs(Cover(n, on.cubes + dc.cubes)), n)
    dc_cubes = _to_pairs(dc)
    best = _irredundant(_expand(_to_pairs(on), off, n), dc_cubes, n)
    best_cost = _cover_cost(best)
    current = best
    for _ in range(max_iters):
        current = _reduce(current, dc_cubes, n)
        current = _expand(current, off, n)
        current = _irredundant(current, dc_cubes, n)
        cost = _cover_cost(current)
        if cost < best_cost:
            best, best_cost = current, cost
        else:
            break
    return _to_cover(n, best)
