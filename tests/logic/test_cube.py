"""Unit tests for the ternary cube and cover algebra."""

import pytest

from repro.logic.cube import Cover, Cube


class TestCubeConstruction:
    def test_from_string_binds_positions(self):
        cube = Cube.from_string("10-")
        assert cube.literal(0) == "1"
        assert cube.literal(1) == "0"
        assert cube.literal(2) == "-"

    def test_from_string_accepts_tilde_as_dont_care(self):
        assert Cube.from_string("1~0") == Cube.from_string("1-0")

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            Cube.from_string("1x0")

    def test_full_cube_is_all_dont_care(self):
        cube = Cube.full(4)
        assert str(cube) == "----"
        assert cube.is_full()

    def test_from_minterm(self):
        cube = Cube.from_minterm(3, 0b101)
        assert str(cube) == "101"
        assert cube.num_minterms() == 1

    def test_from_minterm_out_of_range(self):
        with pytest.raises(ValueError):
            Cube.from_minterm(2, 4)

    def test_negative_arity_rejected(self):
        with pytest.raises(ValueError):
            Cube(-1, 0, 0)

    def test_mask_outside_range_rejected(self):
        with pytest.raises(ValueError):
            Cube(2, 0b100, 0)

    def test_zero_arity_cube(self):
        cube = Cube.full(0)
        assert not cube.is_empty()
        assert cube.num_minterms() == 1


class TestCubeInspection:
    def test_care_mask(self):
        cube = Cube.from_string("1-0-")
        assert cube.care_mask() == 0b0101

    def test_num_literals(self):
        assert Cube.from_string("1-0-").num_literals() == 2
        assert Cube.full(5).num_literals() == 0

    def test_num_minterms(self):
        assert Cube.from_string("1--").num_minterms() == 4
        assert Cube.from_string("10-").num_minterms() == 2

    def test_minterms_enumeration(self):
        cube = Cube.from_string("1-0")
        minterms = sorted(cube.minterms())
        # var0=1, var2=0, var1 free -> 0b001 and 0b011.
        assert minterms == [0b001, 0b011]

    def test_contains_minterm(self):
        cube = Cube.from_string("1-0")
        assert cube.contains_minterm(0b001)
        assert cube.contains_minterm(0b011)
        assert not cube.contains_minterm(0b101)

    def test_empty_cube_detected(self):
        full = Cube.full(2)
        bound = full.restrict_var(0, 1)
        empty = Cube(2, bound.zero_mask & ~1, bound.one_mask & ~1)
        assert empty.is_empty()
        assert empty.num_minterms() == 0


class TestCubeAlgebra:
    def test_containment_basic(self):
        big = Cube.from_string("1--")
        small = Cube.from_string("10-")
        assert big.contains(small)
        assert not small.contains(big)

    def test_containment_reflexive(self):
        cube = Cube.from_string("-01")
        assert cube.contains(cube)

    def test_intersection_overlapping(self):
        a = Cube.from_string("1--")
        b = Cube.from_string("-0-")
        assert a.intersect(b) == Cube.from_string("10-")

    def test_intersection_disjoint_is_none(self):
        a = Cube.from_string("1--")
        b = Cube.from_string("0--")
        assert a.intersect(b) is None

    def test_distance_counts_conflicts(self):
        a = Cube.from_string("10-")
        b = Cube.from_string("01-")
        assert a.distance(b) == 2
        assert a.distance(Cube.from_string("11-")) == 1
        assert a.distance(Cube.from_string("1--")) == 0

    def test_consensus_exists_at_distance_one(self):
        a = Cube.from_string("1-1")
        b = Cube.from_string("0-1")
        consensus = a.consensus(b)
        assert consensus == Cube.from_string("--1")

    def test_consensus_none_at_distance_two(self):
        a = Cube.from_string("11-")
        b = Cube.from_string("00-")
        assert a.consensus(b) is None

    def test_consensus_none_at_distance_zero(self):
        a = Cube.from_string("1--")
        assert a.consensus(Cube.from_string("1-0")) is None

    def test_supercube(self):
        a = Cube.from_string("101")
        b = Cube.from_string("100")
        assert a.supercube(b) == Cube.from_string("10-")

    def test_cofactor_frees_bound_vars(self):
        f = Cube.from_string("1-0")
        c = Cube.from_string("1--")
        assert f.cofactor(c) == Cube.from_string("--0")

    def test_cofactor_disjoint_is_none(self):
        f = Cube.from_string("1--")
        c = Cube.from_string("0--")
        assert f.cofactor(c) is None

    def test_restrict_var(self):
        cube = Cube.full(3).restrict_var(1, 1)
        assert str(cube) == "-1-"

    def test_restrict_var_conflict_is_none(self):
        cube = Cube.from_string("0--")
        assert cube.restrict_var(0, 1) is None

    def test_expand_var(self):
        cube = Cube.from_string("01-")
        assert cube.expand_var(0) == Cube.from_string("-1-")

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            Cube.from_string("1-").intersect(Cube.from_string("1--"))

    def test_hash_and_equality(self):
        assert Cube.from_string("1-0") == Cube.from_string("1-0")
        assert hash(Cube.from_string("1-0")) == hash(Cube.from_string("1-0"))
        assert Cube.from_string("1-0") != Cube.from_string("1-1")


class TestCover:
    def test_from_strings(self):
        cover = Cover.from_strings(["1--", "-01"])
        assert len(cover) == 2
        assert cover.n_vars == 3

    def test_from_strings_empty_rejected(self):
        with pytest.raises(ValueError):
            Cover.from_strings([])

    def test_empty_function(self):
        cover = Cover.empty(3)
        assert cover.is_empty_function()
        assert not cover.evaluate(0)

    def test_universe(self):
        cover = Cover.universe(3)
        assert all(cover.evaluate(m) for m in range(8))

    def test_evaluate_or_semantics(self):
        cover = Cover.from_strings(["11-", "--1"])
        assert cover.evaluate(0b011)   # matches 11-
        assert cover.evaluate(0b100)   # matches --1
        assert not cover.evaluate(0b000)

    def test_append_arity_checked(self):
        cover = Cover(3)
        with pytest.raises(ValueError):
            cover.append(Cube.from_string("1-"))

    def test_append_drops_empty_cubes(self):
        cover = Cover(2)
        cover.append(Cube(2, 0b00, 0b01))  # var1 admits nothing
        assert len(cover) == 0

    def test_covers_cube(self):
        cover = Cover.from_strings(["1--", "0--"])
        assert cover.covers_cube(Cube.from_string("-01"))

    def test_covers_cube_negative(self):
        cover = Cover.from_strings(["11-"])
        assert not cover.covers_cube(Cube.from_string("1--"))

    def test_cofactor_drops_disjoint(self):
        cover = Cover.from_strings(["1--", "0-1"])
        cf = cover.cofactor(Cube.from_string("1--"))
        assert len(cf) == 1

    def test_minterm_count_deduplicates(self):
        cover = Cover.from_strings(["1--", "1-0"])
        assert cover.minterm_count() == 4

    def test_single_cube_containment(self):
        cover = Cover.from_strings(["1--", "10-", "101"])
        cleaned = cover.single_cube_containment()
        assert len(cleaned) == 1
        assert cleaned.cubes[0] == Cube.from_string("1--")

    def test_copy_is_independent(self):
        cover = Cover.from_strings(["1--"])
        clone = cover.copy()
        clone.append(Cube.from_string("0--"))
        assert len(cover) == 1

    def test_num_literals(self):
        cover = Cover.from_strings(["10-", "--1"])
        assert cover.num_literals() == 3

