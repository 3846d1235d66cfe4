"""Unit tests for Markov-chain STG analysis, cross-checked against
simulation."""

import numpy as np
import pytest

from repro.bench.suite import load_benchmark
from repro.fsm.encoding import binary_encoding, gray_encoding
from repro.fsm.kiss import parse_kiss
from repro.fsm.machine import FSM
from repro.fsm.markov import (
    expected_idle_fraction,
    expected_state_bit_activity,
    stationary_distribution,
    transition_matrix,
)
from repro.fsm.simulate import FsmSimulator, random_stimulus

DETECTOR = """
.i 1
.o 1
.r A
0 A B 0
1 A A 0
0 B B 0
1 B C 0
0 C D 0
1 C A 0
0 D B 0
1 D C 1
"""


class TestTransitionMatrix:
    def test_rows_are_stochastic(self):
        for name in ("dk14", "keyb", "planet"):
            matrix = transition_matrix(load_benchmark(name))
            assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_detector_probabilities(self):
        fsm = parse_kiss(DETECTOR, "det")
        matrix = transition_matrix(fsm)
        i = {s: k for k, s in enumerate(fsm.states)}
        assert matrix[i["A"], i["B"]] == pytest.approx(0.5)
        assert matrix[i["A"], i["A"]] == pytest.approx(0.5)
        assert matrix[i["D"], i["B"]] == pytest.approx(0.5)

    def test_hold_mass_on_diagonal(self):
        fsm = FSM("inc", 2, 1, ["A", "B"], "A")
        fsm.add("A", "11", "B", "1")   # 1/4 of the input space
        fsm.add("B", "--", "A", "0")
        matrix = transition_matrix(fsm)
        assert matrix[0, 0] == pytest.approx(0.75)
        assert matrix[0, 1] == pytest.approx(0.25)


class TestStationary:
    def test_sums_to_one(self):
        pi = stationary_distribution(transition_matrix(load_benchmark("keyb")))
        assert pi.sum() == pytest.approx(1.0)
        assert (pi >= 0).all()

    def test_two_state_symmetric_chain(self):
        matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
        pi = stationary_distribution(matrix)
        assert pi == pytest.approx([0.5, 0.5])

    def test_matches_empirical_occupancy(self):
        fsm = parse_kiss(DETECTOR, "det")
        pi = stationary_distribution(transition_matrix(fsm))
        trace = FsmSimulator(fsm).run(random_stimulus(1, 40_000, seed=1))
        counts = {s: 0 for s in fsm.states}
        for state in trace.states[:-1]:
            counts[state] += 1
        for i, state in enumerate(fsm.states):
            empirical = counts[state] / 40_000
            assert empirical == pytest.approx(pi[i], abs=0.02), state

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            stationary_distribution(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            stationary_distribution(np.ones((2, 3)))


class TestPredictions:
    @pytest.mark.parametrize("name", ["dk14", "keyb", "donfile"])
    def test_idle_prediction_tracks_simulation(self, name):
        fsm = load_benchmark(name)
        predicted = expected_idle_fraction(fsm)
        trace = FsmSimulator(fsm).run(
            random_stimulus(fsm.num_inputs, 20_000, seed=4)
        )
        assert predicted == pytest.approx(trace.idle_fraction(), abs=0.02)

    def test_state_activity_prediction_tracks_simulation(self):
        fsm = load_benchmark("keyb")
        encoding = binary_encoding(fsm)
        predicted = expected_state_bit_activity(fsm, encoding)
        # Empirical toggles of the encoded state sequence.
        trace = FsmSimulator(fsm).run(
            random_stimulus(fsm.num_inputs, 20_000, seed=5)
        )
        toggles = 0
        for a, b in zip(trace.states, trace.states[1:]):
            toggles += bin(encoding.encode(a) ^ encoding.encode(b)).count("1")
        empirical = toggles / 20_000
        assert predicted == pytest.approx(empirical, rel=0.15)

    def test_activity_ranks_encodings_like_annealer(self):
        """The Markov activity agrees with the annealer's cost ranking."""
        from repro.fsm.assign import anneal_encoding

        fsm = load_benchmark("keyb")
        binary = expected_state_bit_activity(fsm, binary_encoding(fsm))
        annealed = expected_state_bit_activity(
            fsm, anneal_encoding(fsm, seed=1)
        )
        assert annealed < binary

    def test_idle_machine_predicts_high_idleness(self):
        fsm = FSM("sleepy", 2, 1, ["A", "B"], "A")
        fsm.add("A", "11", "B", "1")   # leaves rarely
        fsm.add("A", "0-", "A", "0")
        fsm.add("A", "10", "A", "0")
        fsm.add("B", "--", "A", "0")
        assert expected_idle_fraction(fsm) > 0.4


class TestStationaryCache:
    def test_cached_result_matches_direct_computation(self):
        from repro.fsm.markov import clear_stationary_cache, stationary_for

        clear_stationary_cache()
        fsm = load_benchmark("keyb")
        direct = stationary_distribution(transition_matrix(fsm))
        cached = stationary_for(fsm)
        assert np.allclose(cached, direct)

    def test_second_call_returns_the_same_object(self):
        from repro.fsm.markov import clear_stationary_cache, stationary_for

        clear_stationary_cache()
        fsm = load_benchmark("dk14")
        assert stationary_for(fsm) is stationary_for(fsm)

    def test_cached_array_is_read_only(self):
        from repro.fsm.markov import clear_stationary_cache, stationary_for

        clear_stationary_cache()
        pi = stationary_for(load_benchmark("dk14"))
        with pytest.raises(ValueError):
            pi[0] = 0.5

    def test_keyed_by_stg_not_by_name(self):
        from repro.fsm.markov import (
            clear_stationary_cache,
            stationary_for,
            stg_fingerprint,
        )

        clear_stationary_cache()
        a = parse_kiss(DETECTOR, "det")
        b = parse_kiss(DETECTOR.replace("1 D C 1", "1 D A 1"), "det")
        assert stg_fingerprint(a) != stg_fingerprint(b)
        # Same name, different STG: distinct cache entries.
        assert stationary_for(a) is not stationary_for(b)

    def test_clear_forgets_entries(self):
        from repro.fsm.markov import clear_stationary_cache, stationary_for

        clear_stationary_cache()
        fsm = load_benchmark("dk14")
        first = stationary_for(fsm)
        clear_stationary_cache()
        assert stationary_for(fsm) is not first
