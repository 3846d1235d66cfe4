"""Unit tests for canonical artifact fingerprinting."""

from dataclasses import dataclass

import pytest

from repro.bench.suite import load_benchmark
from repro.fsm.kiss import parse_kiss
from repro.pipeline.artifact import Artifact, FingerprintError, fingerprint

KISS = """
.i 1
.o 1
.r A
0 A B 0
1 A A 0
0 B A 1
1 B B 0
"""


@dataclass
class Point:
    x: int
    y: int


class Plain:
    def __init__(self, a, b):
        self.a = a
        self.b = b


class TestScalars:
    def test_stable_for_equal_values(self):
        assert fingerprint(42) == fingerprint(42)
        assert fingerprint("ab") == fingerprint("ab")
        assert fingerprint(1.5) == fingerprint(1.5)

    def test_type_distinctions(self):
        # bool is an int subclass; 1 and True must not collide.
        assert fingerprint(True) != fingerprint(1)
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint(b"ab") != fingerprint("ab")
        assert fingerprint(None) != fingerprint(0)

    def test_framing_resists_concatenation_aliasing(self):
        assert fingerprint(["ab", "c"]) != fingerprint(["a", "bc"])


class TestContainers:
    def test_dict_insertion_order_irrelevant(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert fingerprint(a) == fingerprint(b)

    def test_set_fingerprint_is_order_free(self):
        assert fingerprint({"a", "b", "c"}) == fingerprint({"c", "b", "a"})
        assert fingerprint(frozenset({1, 2})) == fingerprint({1, 2})

    def test_sequences_canonicalize_together(self):
        assert fingerprint([1, 2]) == fingerprint((1, 2))
        assert fingerprint([1, 2]) != fingerprint([2, 1])

    def test_nested_structures(self):
        v1 = {"k": [1, {2, 3}], "m": (None, "s")}
        v2 = {"m": (None, "s"), "k": [1, {3, 2}]}
        assert fingerprint(v1) == fingerprint(v2)


class TestObjects:
    def test_dataclass_by_fields(self):
        assert fingerprint(Point(1, 2)) == fingerprint(Point(1, 2))
        assert fingerprint(Point(1, 2)) != fingerprint(Point(2, 1))

    def test_plain_object_by_dict(self):
        assert fingerprint(Plain(1, "x")) == fingerprint(Plain(1, "x"))
        assert fingerprint(Plain(1, "x")) != fingerprint(Plain(1, "y"))

    def test_unfingerprintable_raises(self):
        with pytest.raises(FingerprintError):
            fingerprint(object())


class TestFsm:
    def test_same_text_same_fingerprint(self):
        a = parse_kiss(KISS, "m")
        b = parse_kiss(KISS, "m")
        assert fingerprint(a) == fingerprint(b)

    def test_name_is_part_of_identity(self):
        a = parse_kiss(KISS, "m1")
        b = parse_kiss(KISS, "m2")
        assert fingerprint(a) != fingerprint(b)

    def test_benchmark_fingerprint_reproducible(self):
        assert fingerprint(load_benchmark("dk14")) == \
            fingerprint(load_benchmark("dk14"))

    def test_evaluation_result_is_fingerprintable(self):
        from repro.flows.flow import evaluate_benchmark

        result = evaluate_benchmark("dk14", num_cycles=80, seed=3)
        assert len(fingerprint(result)) == 64


class TestArtifact:
    def test_of_wraps_value_with_fingerprint(self):
        art = Artifact.of([1, 2, 3])
        assert art.value == [1, 2, 3]
        assert art.fingerprint == fingerprint([1, 2, 3])

    def test_deferred_artifact_pickles_as_its_value(self):
        import pickle

        art = Artifact.deferred("fp", lambda: [1, 2, 3])
        copy = pickle.loads(pickle.dumps(art))
        assert (copy.fingerprint, copy.value) == ("fp", [1, 2, 3])
