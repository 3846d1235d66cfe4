"""The fingerprint walker against its frozen reference copy.

The production walker (:mod:`repro.pipeline.artifact`) dispatches on
exact types and memoises leaf digests; the reference
(``reference_walker.py``) is the plain ``isinstance`` chain the format
was defined by.  Every value must digest to the same bytes under both,
whatever was fingerprinted before it.
"""

import collections
import dataclasses
import enum
import math
import random

import pytest

from repro.fsm.machine import FSM
from repro.pipeline import artifact
from repro.pipeline.artifact import FingerprintError, fingerprint
from tests.pipeline.reference_walker import reference_digest


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


class Colour(enum.Enum):
    RED = "red"
    BLUE = 2


class Name(str):
    pass


class Count(int):
    pass


Point = collections.namedtuple("Point", "x y")


@dataclasses.dataclass
class Node:
    label: str
    value: object
    children: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass(frozen=True)
class Leaf:
    weight: float
    tag: object = None


class Slotted:
    __slots__ = ("left", "right", "unset")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Plain:
    def __init__(self, **attrs):
        self.__dict__.update(attrs)


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, 1e-300]


def random_fsm(rng: random.Random) -> FSM:
    num_inputs = rng.randint(0, 3)
    states = [f"s{i}" for i in range(rng.randint(1, 4))]
    fsm = FSM(f"m{rng.randint(0, 9)}", num_inputs, 2, states, states[0])
    for src in states:
        for _ in range(rng.randint(0, 2)):
            cube = "".join(rng.choice("01-") for _ in range(num_inputs))
            fsm.add(src, cube, rng.choice(states), rng.choice(["01", "1-", "00"]))
    return fsm


def random_key(rng: random.Random):
    """A hashable value: a leaf, a tuple of leaves or a frozenset."""
    pick = rng.randrange(10)
    if pick > 1:
        return random_leaf(rng, hashable=True)
    items = [random_leaf(rng, hashable=True) for _ in range(rng.randint(0, 3))]
    return tuple(items) if pick == 0 else frozenset(items)


def random_leaf(rng: random.Random, hashable: bool = False):
    pick = rng.randrange(16)
    if pick == 0:
        return None
    if pick == 1:
        return rng.choice([True, False])
    if pick == 2:
        return rng.choice([0, 1, -1, 2 ** 63 - 1, 2 ** 63, -(2 ** 63) - 1, 2 ** 90])
    if pick == 3:
        return rng.randint(-1000, 1000)
    if pick == 4:
        return rng.choice(SPECIAL_FLOATS)
    if pick == 5:
        return rng.uniform(-5, 5)
    if pick == 6:
        return rng.choice(["", "a", "in0", "ünïcode", "x" * 300])
    if pick == 7:
        return Name(rng.choice(["", "a", "in0"]))
    if pick == 8:
        return Count(rng.choice([0, 1, 7]))
    if pick == 9:
        return rng.choice(list(Level))
    if pick == 10:
        return rng.choice(list(Colour))
    if pick == 11:
        return bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 6)))
    if pick == 12 and not hashable:
        return bytearray(b"ab")
    if pick == 13 and not hashable:
        return random_fsm(rng)
    return f"s{rng.randint(0, 20)}"


def random_graph(rng: random.Random, depth: int = 0):
    if depth >= 4 or rng.random() < 0.3:
        return random_leaf(rng)
    width = rng.randint(0, 4)
    below = depth + 1
    pick = rng.randrange(10)
    if pick == 0:
        return [random_graph(rng, below) for _ in range(width)]
    if pick == 1:
        return tuple(random_graph(rng, below) for _ in range(width))
    if pick == 2:
        return {random_key(rng): random_graph(rng, below) for _ in range(width)}
    if pick == 3:
        return {random_key(rng) for _ in range(width)}
    if pick == 4:
        return frozenset(random_key(rng) for _ in range(width))
    if pick == 5:
        return Node(
            label=str(random_leaf(rng)),
            value=random_graph(rng, below),
            children=[random_graph(rng, below) for _ in range(width)],
        )
    if pick == 6:
        return Leaf(weight=rng.choice(SPECIAL_FLOATS), tag=random_graph(rng, below))
    if pick == 7:
        return Slotted(random_graph(rng, below), random_graph(rng, below))
    if pick == 8:
        return Plain(a=random_graph(rng, below), b=random_leaf(rng))
    return Point(random_graph(rng, below), random_leaf(rng))


def graphs(seed: int, count: int = 60):
    rng = random.Random(seed)
    return [random_graph(rng) for _ in range(count)]


def assert_same(values):
    for value in values:
        assert fingerprint(value) == reference_digest(value).hex(), value


@pytest.mark.parametrize("seed", range(12))
def test_random_graphs_match_the_reference(seed):
    assert_same(graphs(seed))


@pytest.mark.parametrize("seed", range(4))
def test_order_of_evaluation_does_not_matter(seed):
    # The leaf memo is process-wide: digesting in the other order, and
    # again from an empty memo, must give the same bytes.
    values = graphs(1000 + seed)
    forward = [fingerprint(v) for v in values]
    backward = [fingerprint(v) for v in reversed(values)][::-1]
    artifact._INT_DIGESTS.clear()
    artifact._STR_DIGESTS.clear()
    fresh = [fingerprint(v) for v in values]
    assert forward == backward == fresh
    assert forward == [reference_digest(v).hex() for v in values]


@pytest.mark.parametrize("first, second", [
    (0.0, -0.0),
    (1, True),
    (0, False),
    (1, 1.0),
    (1, Level.HIGH),
    (1, Count(1)),
    ("a", Name("a")),
    ("RED", Colour.RED),
    (b"ab", bytearray(b"ab")),
    ((1, 2), Point(1, 2)),
    ({1: "x"}, {True: "x"}),
])
def test_equal_looking_values_in_either_order(first, second):
    for pair in ((first, second), (second, first)):
        assert_same(pair)
    assert_same([[first, second], {"k": first, "j": second}])


def test_memo_overflow_keeps_digests(monkeypatch):
    monkeypatch.setattr(artifact, "_LEAF_MEMO_MAX", 8)
    values = [list(range(50)), [f"s{i}" for i in range(50)], graphs(7, 10)]
    assert_same(values)
    assert len(artifact._INT_DIGESTS) <= 8
    assert len(artifact._STR_DIGESTS) <= 8


def test_fsm_digest_follows_added_transitions():
    fsm = FSM("m", 1, 1, ["a", "b"], "a")
    fsm.add("a", "1", "b", "1")
    assert_same([fsm])
    fsm.add("b", "-", "a", "0")
    assert_same([fsm])


@pytest.mark.parametrize("depth", [62, 63, 64, 65, 66])
def test_depth_limit_matches_the_reference(depth):
    for leaf in (1, "s", 0.5, None):
        nested = leaf
        for _ in range(depth):
            nested = [nested]
        wrapped = Node("n", nested)
        for value in (nested, wrapped, {"k": nested}):
            try:
                expected = reference_digest(value).hex()
            except FingerprintError:
                with pytest.raises(FingerprintError):
                    fingerprint(value)
            else:
                assert fingerprint(value) == expected


def test_unsupported_type_raises_like_the_reference():
    for value in (object(), [1, object()]):
        with pytest.raises(FingerprintError):
            reference_digest(value)
        with pytest.raises(FingerprintError):
            fingerprint(value)
