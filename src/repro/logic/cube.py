"""Ternary cubes and covers for two-level logic.

A *cube* over ``n`` Boolean variables assigns each variable one of three
literals: ``0``, ``1`` or ``-`` (don't care).  A *cover* is a set of cubes
whose union (OR of the product terms) represents a single-output Boolean
function.

The implementation uses the positional-cube encoding: two bitmasks,
``zero_mask`` and ``one_mask``.  Bit ``i`` of ``zero_mask`` is set when the
cube admits variable ``i`` taking value 0, and bit ``i`` of ``one_mask``
when it admits value 1.  The three legal per-variable states are::

    literal '0'  ->  zero bit set, one bit clear
    literal '1'  ->  zero bit clear, one bit set
    literal '-'  ->  both bits set

A variable with *neither* bit set makes the cube empty (it admits no
minterm); :meth:`Cube.is_empty` detects this.  The encoding makes
intersection a pair of ANDs and containment a pair of mask comparisons,
which keeps the espresso-style minimizer in :mod:`repro.logic.minimize`
fast enough for the MCNC-scale FSMs used in the paper.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

__all__ = ["Cube", "Cover"]

try:  # int.bit_count needs 3.10; CI still exercises 3.9
    _popcount = int.bit_count  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - version fallback
    def _popcount(x: int) -> int:
        return bin(x).count("1")


class Cube:
    """An immutable ternary cube over ``n_vars`` Boolean variables."""

    __slots__ = ("n_vars", "zero_mask", "one_mask")

    def __init__(self, n_vars: int, zero_mask: int, one_mask: int):
        if n_vars < 0:
            raise ValueError(f"n_vars must be non-negative, got {n_vars}")
        full = (1 << n_vars) - 1
        if zero_mask & ~full or one_mask & ~full:
            raise ValueError("mask has bits outside the variable range")
        self.n_vars = n_vars
        self.zero_mask = zero_mask
        self.one_mask = one_mask

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _raw(cls, n_vars: int, zero_mask: int, one_mask: int) -> "Cube":
        """Unchecked constructor for internal algebra.

        Callers guarantee the masks fit ``n_vars``; skipping the range
        validation matters because intersection/cofactoring allocate
        hundreds of thousands of cubes inside the minimizer.
        """
        cube = object.__new__(cls)
        cube.n_vars = n_vars
        cube.zero_mask = zero_mask
        cube.one_mask = one_mask
        return cube

    @classmethod
    def from_string(cls, pattern: str) -> "Cube":
        """Build a cube from a KISS/PLA-style pattern such as ``"10-1"``.

        Character ``i`` of the pattern corresponds to variable ``i``
        (variable 0 is the leftmost character, matching the column order
        of ``.kiss2``/``.pla`` files).  Accepted characters are ``0``,
        ``1``, ``-`` and ``~`` (a synonym for ``-`` seen in some MCNC
        files).
        """
        n = len(pattern)
        zero = 0
        one = 0
        for i, ch in enumerate(pattern):
            bit = 1 << i
            if ch == "0":
                zero |= bit
            elif ch == "1":
                one |= bit
            elif ch in "-~2":
                zero |= bit
                one |= bit
            else:
                raise ValueError(f"invalid cube character {ch!r} in {pattern!r}")
        return cls(n, zero, one)

    @classmethod
    def full(cls, n_vars: int) -> "Cube":
        """The universal cube (all variables don't-care)."""
        full = (1 << n_vars) - 1
        return cls(n_vars, full, full)

    @classmethod
    def from_minterm(cls, n_vars: int, minterm: int) -> "Cube":
        """Cube containing the single minterm whose bit ``i`` gives var ``i``."""
        if not 0 <= minterm < (1 << n_vars):
            raise ValueError(f"minterm {minterm} out of range for {n_vars} vars")
        full = (1 << n_vars) - 1
        return cls(n_vars, ~minterm & full, minterm)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def literal(self, var: int) -> str:
        """Return ``'0'``, ``'1'``, ``'-'`` or ``'!'`` (empty) for ``var``."""
        bit = 1 << var
        z = bool(self.zero_mask & bit)
        o = bool(self.one_mask & bit)
        if z and o:
            return "-"
        if z:
            return "0"
        if o:
            return "1"
        return "!"

    def is_empty(self) -> bool:
        """True when some variable admits neither value."""
        full = (1 << self.n_vars) - 1
        return (self.zero_mask | self.one_mask) != full

    def is_full(self) -> bool:
        """True when every variable is a don't-care (tautology cube)."""
        full = (1 << self.n_vars) - 1
        return self.zero_mask == full and self.one_mask == full

    def care_mask(self) -> int:
        """Bitmask of variables bound to a specific value (not ``-``)."""
        return (self.zero_mask ^ self.one_mask) & ((1 << self.n_vars) - 1)

    def num_literals(self) -> int:
        """Number of bound (non-don't-care) variables."""
        return _popcount(self.care_mask())

    def num_minterms(self) -> int:
        """Number of minterms the cube covers (2**free_vars)."""
        if self.is_empty():
            return 0
        return 1 << (self.n_vars - self.num_literals())

    def minterms(self) -> Iterator[int]:
        """Yield every minterm covered by the cube as an integer.

        Bit ``i`` of the yielded integer is the value of variable ``i``.
        """
        if self.is_empty():
            return
        free = [i for i in range(self.n_vars) if self.literal(i) == "-"]
        base = self.one_mask & self.care_mask()
        for combo in range(1 << len(free)):
            m = base
            for j, var in enumerate(free):
                if combo >> j & 1:
                    m |= 1 << var
            yield m

    def contains_minterm(self, minterm: int) -> bool:
        """True when the assignment ``minterm`` (bit i = var i) lies in the cube."""
        full = (1 << self.n_vars) - 1
        ok_ones = minterm & self.one_mask == minterm
        ok_zeros = (~minterm & full) & self.zero_mask == (~minterm & full)
        return ok_ones and ok_zeros

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def contains(self, other: "Cube") -> bool:
        """True when every minterm of ``other`` is covered by ``self``."""
        if other.is_empty():
            return True
        return (
            other.zero_mask & self.zero_mask == other.zero_mask
            and other.one_mask & self.one_mask == other.one_mask
        )

    def intersects(self, other: "Cube") -> bool:
        """Mask-only intersection predicate (no cube allocated).

        Equivalent to ``self.intersect(other) is not None`` but pure
        bit-math — the minimizer's inner loops ask this question far
        more often than they need the intersection itself.
        """
        self._check_compatible(other)
        return (
            (self.zero_mask & other.zero_mask)
            | (self.one_mask & other.one_mask)
        ) == (1 << self.n_vars) - 1

    def intersect(self, other: "Cube") -> Optional["Cube"]:
        """Cube covering minterms common to both, or None when disjoint."""
        self._check_compatible(other)
        z = self.zero_mask & other.zero_mask
        o = self.one_mask & other.one_mask
        if (z | o) != (1 << self.n_vars) - 1:
            return None
        return Cube._raw(self.n_vars, z, o)

    def distance(self, other: "Cube") -> int:
        """Number of variables where the cubes conflict (0 ↔ 1).

        Distance 0 means the cubes intersect; distance 1 means their
        consensus is non-empty.
        """
        self._check_compatible(other)
        z = self.zero_mask & other.zero_mask
        o = self.one_mask & other.one_mask
        full = (1 << self.n_vars) - 1
        empty_positions = ~(z | o) & full
        return bin(empty_positions).count("1")

    def consensus(self, other: "Cube") -> Optional["Cube"]:
        """The consensus cube, defined when distance is exactly 1."""
        self._check_compatible(other)
        z = self.zero_mask & other.zero_mask
        o = self.one_mask & other.one_mask
        full = (1 << self.n_vars) - 1
        empty_positions = ~(z | o) & full
        if bin(empty_positions).count("1") != 1:
            return None
        return Cube(self.n_vars, z | empty_positions, o | empty_positions)

    def supercube(self, other: "Cube") -> "Cube":
        """Smallest cube containing both cubes (bitwise OR of masks)."""
        self._check_compatible(other)
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return Cube._raw(
            self.n_vars,
            self.zero_mask | other.zero_mask,
            self.one_mask | other.one_mask,
        )

    def cofactor(self, other: "Cube") -> Optional["Cube"]:
        """The Shannon cofactor of ``self`` with respect to cube ``other``.

        Returns None when the cubes do not intersect.  Variables bound in
        ``other`` become don't-cares in the result (they are fixed by the
        cofactoring cube).
        """
        self._check_compatible(other)
        if not self.intersects(other):
            return None
        care = other.care_mask()
        return Cube._raw(
            self.n_vars,
            self.zero_mask | care,
            self.one_mask | care,
        )

    def expand_var(self, var: int) -> "Cube":
        """Raise variable ``var`` to a don't-care."""
        bit = 1 << var
        return Cube._raw(self.n_vars, self.zero_mask | bit, self.one_mask | bit)

    def restrict_var(self, var: int, value: int) -> Optional["Cube"]:
        """Bind variable ``var`` to ``value`` (0 or 1), or None if conflicting."""
        bit = 1 << var
        if value:
            if not self.one_mask & bit:
                return None
            return Cube._raw(self.n_vars, self.zero_mask & ~bit, self.one_mask)
        if not self.zero_mask & bit:
            return None
        return Cube._raw(self.n_vars, self.zero_mask, self.one_mask & ~bit)

    def _check_compatible(self, other: "Cube") -> None:
        if self.n_vars != other.n_vars:
            raise ValueError(
                f"cube arity mismatch: {self.n_vars} vs {other.n_vars}"
            )

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cube):
            return NotImplemented
        return (
            self.n_vars == other.n_vars
            and self.zero_mask == other.zero_mask
            and self.one_mask == other.one_mask
        )

    def __hash__(self) -> int:
        return hash((self.n_vars, self.zero_mask, self.one_mask))

    def __str__(self) -> str:
        return "".join(self.literal(i) for i in range(self.n_vars))

    def __repr__(self) -> str:
        return f"Cube({str(self)!r})"


class Cover:
    """A list of cubes representing a single-output SOP function."""

    __slots__ = ("n_vars", "cubes")

    def __init__(self, n_vars: int, cubes: Iterable[Cube] = ()):
        self.n_vars = n_vars
        self.cubes: List[Cube] = []
        for cube in cubes:
            self.append(cube)

    @classmethod
    def from_strings(cls, patterns: Sequence[str]) -> "Cover":
        """Build a cover from cube pattern strings (all the same length)."""
        if not patterns:
            raise ValueError("cannot infer arity from an empty pattern list")
        n = len(patterns[0])
        return cls(n, (Cube.from_string(p) for p in patterns))

    @classmethod
    def empty(cls, n_vars: int) -> "Cover":
        """The constant-0 function."""
        return cls(n_vars)

    @classmethod
    def _wrap(cls, n_vars: int, cubes: List[Cube]) -> "Cover":
        """Adopt ``cubes`` without per-cube arity/emptiness checks.

        Internal fast path for the minimizer, which builds covers from
        cubes it just produced (same arity, non-empty by construction).
        """
        cover = object.__new__(cls)
        cover.n_vars = n_vars
        cover.cubes = cubes
        return cover

    @classmethod
    def universe(cls, n_vars: int) -> "Cover":
        """The constant-1 function."""
        return cls(n_vars, [Cube.full(n_vars)])

    def append(self, cube: Cube) -> None:
        if cube.n_vars != self.n_vars:
            raise ValueError(
                f"cube arity {cube.n_vars} does not match cover arity {self.n_vars}"
            )
        if not cube.is_empty():
            self.cubes.append(cube)

    def copy(self) -> "Cover":
        return Cover(self.n_vars, self.cubes)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def evaluate(self, minterm: int) -> bool:
        """Evaluate the function on assignment ``minterm`` (bit i = var i)."""
        return any(c.contains_minterm(minterm) for c in self.cubes)

    def intersects_cube(self, cube: Cube) -> bool:
        """True when any cube of the cover intersects ``cube``.

        Allocation-free: the equivalent
        ``any(cube.intersect(c) is not None for c in cover)`` builds a
        generator frame plus a candidate cube per probe, which dominates
        the EXPAND inner loop of the minimizer.
        """
        if cube.n_vars != self.n_vars:
            raise ValueError(
                f"cube arity mismatch: {self.n_vars} vs {cube.n_vars}"
            )
        full = (1 << self.n_vars) - 1
        zero = cube.zero_mask
        one = cube.one_mask
        for c in self.cubes:
            if ((zero & c.zero_mask) | (one & c.one_mask)) == full:
                return True
        return False

    def covers_cube(self, cube: Cube) -> bool:
        """True when every minterm of ``cube`` is covered.

        Implemented by cofactoring the cover against the cube and testing
        tautology; falls back to minterm enumeration only for tiny cubes.
        """
        from repro.logic.minimize import is_tautology

        if cube.is_empty():
            return True
        cofactored = self.cofactor(cube)
        return is_tautology(cofactored)

    def cofactor(self, cube: Cube) -> "Cover":
        """Cover cofactored against ``cube`` (drop non-intersecting cubes)."""
        if cube.n_vars != self.n_vars:
            raise ValueError(
                f"cube arity mismatch: {self.n_vars} vs {cube.n_vars}"
            )
        full = (1 << self.n_vars) - 1
        zero = cube.zero_mask
        one = cube.one_mask
        care = (zero ^ one) & full
        cubes = [
            Cube._raw(self.n_vars, c.zero_mask | care, c.one_mask | care)
            for c in self.cubes
            if ((zero & c.zero_mask) | (one & c.one_mask)) == full
        ]
        return Cover._wrap(self.n_vars, cubes)

    def minterm_count(self) -> int:
        """Exact number of covered minterms (inclusion via iteration).

        Exponential in free variables; intended for testing on small
        functions only.
        """
        seen = set()
        for cube in self.cubes:
            seen.update(cube.minterms())
        return len(seen)

    def num_literals(self) -> int:
        """Total bound literals across all cubes (a cost metric)."""
        return sum(c.num_literals() for c in self.cubes)

    def is_empty_function(self) -> bool:
        return not self.cubes

    # ------------------------------------------------------------------
    # Structural clean-up
    # ------------------------------------------------------------------

    def single_cube_containment(self) -> "Cover":
        """Drop cubes contained in some other single cube of the cover."""
        kept: List[Cube] = []
        # Sort large-to-small so containers are considered first.
        for cube in sorted(self.cubes, key=Cube.num_literals):
            zero = cube.zero_mask
            one = cube.one_mask
            for k in kept:
                if zero & k.zero_mask == zero and one & k.one_mask == one:
                    break
            else:
                kept.append(cube)
        return Cover._wrap(self.n_vars, kept)

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return self.n_vars == other.n_vars and set(self.cubes) == set(other.cubes)

    def __hash__(self) -> int:
        return hash((self.n_vars, frozenset(self.cubes)))

    def __str__(self) -> str:
        return " + ".join(str(c) for c in self.cubes) or "0"

    def __repr__(self) -> str:
        return f"Cover({self.n_vars}, {len(self.cubes)} cubes)"
