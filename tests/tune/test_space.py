"""Unit tests for the tuner's candidate space and fingerprints."""

import pytest

from repro.arch.memblock import VIRTEX2_BRAM
from repro.bench.suite import load_benchmark
from repro.fsm.kiss import parse_kiss
from repro.tune.space import (
    TuneCandidate,
    TuneSpace,
    baseline_candidate,
    default_space,
)

MOORE = """
.i 1
.o 2
.r S0
0 S0 S0 00
1 S0 S1 00
0 S1 S1 01
1 S1 S2 01
- S2 S0 11
"""


class TestCandidate:
    def test_fingerprint_stable_for_equal_configs(self):
        a = TuneCandidate(encoding="gray", clock_control=True)
        b = TuneCandidate(encoding="gray", clock_control=True)
        assert a == b
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_commits_to_every_knob(self):
        base = TuneCandidate()
        variants = [
            TuneCandidate(encoding="gray"),
            TuneCandidate(moore_outputs="internal"),
            TuneCandidate(force_compaction=True),
            TuneCandidate(clock_control=True),
            TuneCandidate(aspect="512x36"),
            TuneCandidate(lut_k=5),
        ]
        prints = {base.fingerprint} | {v.fingerprint for v in variants}
        assert len(prints) == len(variants) + 1

    def test_bad_moore_mode_rejected(self):
        with pytest.raises(ValueError):
            TuneCandidate(moore_outputs="sideways")

    def test_dict_round_trip(self):
        c = TuneCandidate(encoding="annealed@7", aspect="2Kx9",
                          clock_control=True)
        assert TuneCandidate.from_dict(c.as_dict()) == c

    def test_baseline_is_the_mapper_default(self):
        base = baseline_candidate()
        assert base == TuneCandidate()
        kwargs = base.mapper_kwargs()
        assert kwargs["encoding"] == "binary"
        assert kwargs["moore_outputs"] == "auto"
        assert not kwargs["force_compaction"]
        assert not kwargs["clock_control"]
        assert kwargs["aspect"] is None
        assert kwargs["k"] == 4


class TestSpace:
    def test_enumeration_is_canonical_and_sized(self):
        space = TuneSpace()
        first = space.enumerate()
        second = space.enumerate()
        assert first == second
        assert len(first) == space.size

    def test_encoding_axis_is_outermost(self):
        space = TuneSpace(encodings=("binary", "gray"),
                          clock_control=(False, True))
        grid = space.enumerate()
        half = len(grid) // 2
        assert all(c.encoding == "binary" for c in grid[:half])
        assert all(c.encoding == "gray" for c in grid[half:])

    def test_default_space_mealy_has_no_external_mode(self):
        fsm = load_benchmark("dk14")
        assert not fsm.is_moore()
        space = default_space(fsm)
        assert "external" not in space.moore_modes

    def test_default_space_moore_explores_external(self):
        fsm = parse_kiss(MOORE, "moore3")
        assert fsm.is_moore()
        space = default_space(fsm)
        assert "external" in space.moore_modes

    def test_default_space_covers_backend_aspects(self):
        fsm = load_benchmark("dk14")
        space = default_space(fsm)
        assert space.aspects[0] is None
        assert set(space.aspects[1:]) == {c.name for c in VIRTEX2_BRAM.configs}

    def test_default_space_seeds_annealed_encodings(self):
        space = default_space(load_benchmark("dk14"), anneal_seeds=(0, 3))
        assert "annealed@0" in space.encodings
        assert "annealed@3" in space.encodings
