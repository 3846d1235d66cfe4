"""Unit tests for tautology, complement and the espresso loop."""

import pytest

from repro.logic.cube import Cover, Cube
from repro.logic.minimize import complement, espresso, is_tautology


def same_function(a: Cover, b: Cover) -> bool:
    """Exhaustive functional equality of two covers."""
    return a.n_vars == b.n_vars and all(
        a.evaluate(m) == b.evaluate(m) for m in range(1 << a.n_vars)
    )


class TestTautology:
    def test_universe_is_tautology(self):
        assert is_tautology(Cover.universe(4))

    def test_empty_cover_is_not(self):
        assert not is_tautology(Cover.empty(4))

    def test_single_bound_cube_is_not(self):
        assert not is_tautology(Cover.from_strings(["1---"]))

    def test_split_pair_is_tautology(self):
        assert is_tautology(Cover.from_strings(["1--", "0--"]))

    def test_three_way_cover(self):
        # x0 + x0'x1 + x0'x1' = 1
        assert is_tautology(Cover.from_strings(["1--", "01-", "00-"]))

    def test_near_tautology_missing_one_minterm(self):
        cubes = [
            Cube.from_minterm(3, m) for m in range(8) if m != 5
        ]
        assert not is_tautology(Cover(3, cubes))

    def test_all_minterms_is_tautology(self):
        cubes = [Cube.from_minterm(3, m) for m in range(8)]
        assert is_tautology(Cover(3, cubes))

    def test_unate_cover_fast_path(self):
        # Positive unate in every var, no universal cube -> not tautology.
        assert not is_tautology(Cover.from_strings(["1--", "-1-", "--1"]))

    def test_zero_variable_cover(self):
        assert is_tautology(Cover(0, [Cube.full(0)]))
        assert not is_tautology(Cover(0))


class TestComplement:
    def exhaustive_check(self, cover):
        comp = complement(cover)
        for m in range(1 << cover.n_vars):
            assert comp.evaluate(m) == (not cover.evaluate(m))

    def test_complement_of_empty_is_universe(self):
        self.exhaustive_check(Cover.empty(3))

    def test_complement_of_universe_is_empty(self):
        comp = complement(Cover.universe(3))
        assert comp.is_empty_function()

    def test_complement_single_cube(self):
        self.exhaustive_check(Cover.from_strings(["10-"]))

    def test_complement_multi_cube(self):
        self.exhaustive_check(Cover.from_strings(["1--", "-11", "0-0"]))

    def test_complement_overlapping_cubes(self):
        self.exhaustive_check(Cover.from_strings(["11-", "1-1", "-11"]))

    def test_double_complement_preserves_function(self):
        cover = Cover.from_strings(["10-1", "0--0", "-11-"])
        assert same_function(complement(complement(cover)), cover)


class TestEspresso:
    def test_preserves_function(self):
        on = Cover.from_strings(["0-1", "011", "11-", "1-0"])
        assert same_function(espresso(on), on)

    def test_never_worse_than_input(self):
        on = Cover.from_strings(["111", "110", "101", "100"])
        result = espresso(on)
        assert len(result) <= len(on)

    def test_merges_adjacent_minterms(self):
        # 4 minterms forming x0=1 -> one cube.
        on = Cover.from_strings(["100", "110", "101", "111"])
        result = espresso(on)
        assert len(result) == 1
        assert result.cubes[0] == Cube.from_string("1--")

    def test_uses_dont_cares(self):
        # ON = {11}, DC = {10} -> minimizer may produce the cube 1-.
        on = Cover.from_strings(["11"])
        dc = Cover.from_strings(["10"])
        result = espresso(on, dc)
        assert result.evaluate(0b11)
        assert not result.evaluate(0b00)
        # Minterm 0b10 (var0=0, var1=1) is in the OFF-set.
        assert not result.evaluate(0b10)
        # The single cube should have expanded through the DC point.
        assert len(result) == 1
        assert result.num_literals() == 1

    def test_result_within_on_union_dc(self):
        on = Cover.from_strings(["0-1", "11-"])
        dc = Cover.from_strings(["10-"])
        result = espresso(on, dc)
        allowed = Cover(3, list(on.cubes) + list(dc.cubes))
        for m in range(8):
            if result.evaluate(m):
                assert allowed.evaluate(m)
            if on.evaluate(m):
                assert result.evaluate(m)

    def test_empty_on_set(self):
        assert espresso(Cover.empty(3)).is_empty_function()

    def test_tautological_on_set(self):
        result = espresso(Cover.from_strings(["1--", "0--"]))
        assert len(result) == 1
        assert result.cubes[0].is_full()

    def test_redundant_cube_removed(self):
        on = Cover.from_strings(["1--", "11-"])
        assert len(espresso(on)) == 1

    def test_classic_xor_not_collapsible(self):
        on = Cover.from_strings(["10", "01"])
        result = espresso(on)
        assert len(result) == 2
        assert same_function(result, on)

    def test_idempotent(self):
        on = Cover.from_strings(["0-1", "011", "11-", "1-0"])
        once = espresso(on)
        twice = espresso(once)
        assert len(twice) <= len(once)
        assert same_function(twice, on)

    def test_five_variable_function(self):
        on = Cover.from_strings(
            ["00000", "00001", "00010", "00011", "10-01", "1-111"]
        )
        result = espresso(on)
        assert same_function(result, on)
        assert len(result) <= len(on)
