"""The mapper's two steps: ``plan_rom_mapping`` decides, ``build_rom_mapping``
builds.

Over every default tuner candidate of the nine paper benchmarks and of
seeded generated machines:

* ``build(plan)`` is the implementation ``map_fsm_to_rom`` returns;
* equal plan keys build implementations with equal fingerprints, and
  distinct keys distinct ones (the tuner builds once per key and counts
  one structure per fingerprint);
* an infeasible candidate raises from the plan, with the message
  ``map_fsm_to_rom`` gives.

Plus the per-machine facts the plan reads (``FSM.fact``).
"""

import pickle

import pytest

from repro.bench.generator import GeneratorSpec, generate_fsm
from repro.bench.suite import PAPER_BENCHMARKS, load_benchmark
from repro.fsm.kiss import format_kiss
from repro.fsm.machine import FSM, FsmError
from repro.fsm.markov import stg_fingerprint
from repro.pipeline.artifact import fingerprint
from repro.romfsm.mapper import (
    MappingError,
    build_rom_mapping,
    map_fsm_to_rom,
    plan_rom_mapping,
)
from repro.tune.space import default_space

GENERATED = [
    GeneratorSpec("g-small", 5, 3, 2, (1, 3), seed=11),
    GeneratorSpec("g-moore", 9, 4, 6, (1, 3), moore=True, seed=12),
    GeneratorSpec("g-sparse", 12, 9, 3, (1, 3), column_locality=0.5, seed=13),
    GeneratorSpec("g-single", 1, 2, 1, (0, 2), seed=15),
]
# Wide machines: some (24 of 168) or all candidates have no legal
# mapping.  Their feasible memories are 8k words and more, so only the
# plan is checked here.
WIDE = [
    GeneratorSpec("g-mid", 4, 11, 2, (10, 11), seed=16),
    GeneratorSpec("g-wide", 40, 15, 4, (10, 15), seed=14),
]


def _machine(name_or_spec):
    if isinstance(name_or_spec, str):
        return load_benchmark(name_or_spec)
    return generate_fsm(name_or_spec)


def _failure(call):
    try:
        call()
    except (MappingError, FsmError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "machine", PAPER_BENCHMARKS + GENERATED,
    ids=lambda m: m if isinstance(m, str) else m.name,
)
def test_plan_then_build_is_the_mapping(machine):
    fsm = _machine(machine)
    by_key = {}
    for candidate in default_space(fsm).enumerate():
        kwargs = candidate.mapper_kwargs()
        try:
            plan = plan_rom_mapping(fsm, **kwargs)
        except (MappingError, FsmError) as exc:
            assert _failure(lambda: map_fsm_to_rom(fsm, **kwargs)) == (
                type(exc), str(exc)
            ), candidate
            continue
        built = fingerprint(build_rom_mapping(fsm, plan))
        known = by_key.setdefault(plan.key, (built, kwargs))
        assert built == known[0], (candidate, known[1])
        if known[1] is kwargs:
            # First candidate of its key: the one-call mapper agrees.
            assert fingerprint(map_fsm_to_rom(fsm, **kwargs)) == built
    fingerprints = [fp for fp, _ in by_key.values()]
    assert len(set(fingerprints)) == len(fingerprints)


@pytest.mark.parametrize("spec", WIDE, ids=lambda spec: spec.name)
def test_infeasible_candidates_raise_from_the_plan(spec):
    fsm = generate_fsm(spec)
    infeasible = 0
    for candidate in default_space(fsm).enumerate():
        kwargs = candidate.mapper_kwargs()
        failure = _failure(lambda: plan_rom_mapping(fsm, **kwargs))
        if failure is not None:
            infeasible += 1
            assert failure[0] is MappingError
            assert _failure(lambda: map_fsm_to_rom(fsm, **kwargs)) == failure
    assert infeasible > 0


def test_nondeterministic_machine_fails_in_the_plan():
    fsm = FSM("bad", 1, 1, ["a", "b"], "a")
    fsm.add("a", "-", "a", "0")
    fsm.add("a", "1", "b", "1")
    with pytest.raises(FsmError, match="non-deterministic"):
        plan_rom_mapping(fsm)


def test_plan_is_bound_to_its_machine():
    plan = plan_rom_mapping(load_benchmark("dk14"))
    with pytest.raises(ValueError, match="another machine"):
        build_rom_mapping(load_benchmark("sand"), plan)


def test_plan_key_tracks_the_lut_size_only_where_luts_are_built():
    fsm = load_benchmark("dk14")
    plain = [plan_rom_mapping(fsm, k=k).key for k in (4, 5)]
    controlled = [
        plan_rom_mapping(fsm, k=k, clock_control=True).key for k in (4, 5)
    ]
    assert plain[0] == plain[1]
    assert controlled[0] != controlled[1]


class TestMachineFacts:
    def _fsm(self):
        fsm = FSM("m", 1, 1, ["a", "b"], "a")
        fsm.add("a", "1", "b", "1")
        return fsm

    def test_facts_are_computed_once(self):
        fsm = self._fsm()
        calls = []

        def compute(machine):
            calls.append(machine)
            return len(machine.transitions)

        assert fsm.fact("probe", compute) == 1
        assert fsm.fact("probe", compute) == 1
        assert calls == [fsm]

    def test_add_transition_recomputes_every_fact(self):
        fsm = self._fsm()
        before = (
            format_kiss(fsm), stg_fingerprint(fsm), fsm.is_complete(),
            fingerprint(fsm),
        )
        assert before[2] is False
        fsm.add("a", "0", "a", "0")
        fsm.add("b", "-", "a", "0")
        after = (
            format_kiss(fsm), stg_fingerprint(fsm), fsm.is_complete(),
            fingerprint(fsm),
        )
        assert after[2] is True
        for old, new in zip(before[:2] + before[3:], after[:2] + after[3:]):
            assert old != new
        # A transition that breaks determinism is seen by validate().
        fsm.validate()
        fsm.add("b", "1", "b", "1")
        with pytest.raises(FsmError, match="non-deterministic"):
            fsm.validate()

    def test_facts_are_never_pickled(self):
        fsm = self._fsm()
        fresh = pickle.dumps(fsm)
        fsm.validate()
        fsm.is_complete()
        stg_fingerprint(fsm)
        format_kiss(fsm)
        assert fsm._facts
        assert pickle.dumps(fsm) == fresh
        loaded = pickle.loads(pickle.dumps(fsm))
        assert loaded._facts is None
        assert stg_fingerprint(loaded) == stg_fingerprint(fsm)
