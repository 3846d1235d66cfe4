"""The compiled netlist evaluator must be invisible except for speed.

:mod:`repro.synth.codegen` compiles each LUT netlist into a
straight-line big-int function and memoizes it in process;
:func:`simulate_ff_netlist` evaluates every netlist through it.  These
tests pin the contract: the compiled function equals the reference
interpreter :func:`~repro.synth.wordsim.evaluate_mapping_words`, every
trace equals the per-cycle oracle's, compilation happens once per
netlist, the memo stays bounded, and the fallback counter stays at
zero.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import generate_fsm
from repro.fsm.simulate import random_stimulus
from repro.logic.lutmap import LutMapping, MappedLut
from repro.logic.truthtable import TruthTable
from repro.synth import codegen
from repro.synth.ff_synth import synthesize_ff
from repro.synth.netsim import simulate_ff_netlist
from repro.synth.wordsim import evaluate_mapping_words, pack_column
from tests.reference_sim import simulate_ff_netlist_reference
from tests.romfsm.test_equivalence_properties import _make_spec, spec_strategy

SETTINGS = settings(max_examples=10, deadline=None)


@pytest.fixture(autouse=True)
def fresh_codegen_state():
    codegen.clear_compilation_cache()
    codegen.reset_stats()
    yield
    codegen.clear_compilation_cache()
    codegen.reset_stats()


def assert_traces_equal(fast, ref):
    assert fast.num_cycles == ref.num_cycles
    assert fast.output_stream == ref.output_stream
    assert fast.state_stream == ref.state_stream
    assert fast.ff_output_toggles == ref.ff_output_toggles
    assert fast.net_toggles == ref.net_toggles


class TestCompiledMappingEquivalence:
    """compile_mapping(m)(W, mask) == evaluate_mapping_words(m, W, mask)."""

    @given(spec=spec_strategy(), seed=st.integers(0, 999),
           cycles=st.integers(0, 200))
    @SETTINGS
    def test_matches_interpreter_on_random_netlists(self, spec, seed, cycles):
        fsm = generate_fsm(spec)
        mapping = synthesize_ff(fsm).mapping
        rng_stim = random_stimulus(
            max(1, len(mapping.input_nets)), cycles, seed=seed
        )
        mask = (1 << cycles) - 1
        words = {
            net: pack_column([(s >> i) & 1 for s in rng_stim])
            for i, net in enumerate(mapping.input_nets)
        }
        compiled = codegen.compile_mapping(mapping)
        assert compiled(words, mask) == evaluate_mapping_words(
            mapping, words, mask
        )

    def test_source_is_deterministic(self):
        fsm = generate_fsm(_make_spec(6, 2, 2, 0, 2, 0.5, 0.3, False, seed=3))
        mapping = synthesize_ff(fsm).mapping
        assert codegen.generate_source(mapping) == codegen.generate_source(
            mapping
        )
        assert codegen.mapping_fingerprint(
            mapping
        ) == codegen.mapping_fingerprint(mapping)

    def test_missing_input_word_raises_like_interpreter(self):
        fsm = generate_fsm(_make_spec(5, 2, 2, 0, 2, 0.5, 0.3, False, seed=4))
        mapping = synthesize_ff(fsm).mapping
        compiled = codegen.compile_mapping(mapping)
        with pytest.raises(KeyError):
            compiled({}, 1)
        with pytest.raises(KeyError):
            evaluate_mapping_words(mapping, {}, 1)


class TestEngineDispatch:
    @pytest.mark.parametrize("cycles", [0, 1, 2, 3, 17, 64, 65, 200])
    def test_codegen_trace_equals_reference_across_widths(self, cycles):
        fsm = generate_fsm(_make_spec(7, 3, 2, 0, 2, 0.5, 0.3, False, seed=7))
        impl = synthesize_ff(fsm)
        stim = random_stimulus(fsm.num_inputs, cycles, seed=cycles)
        fast = simulate_ff_netlist(impl, stim)
        assert_traces_equal(fast, simulate_ff_netlist_reference(impl, stim))
        assert codegen.stats().fallbacks == 0

    @pytest.mark.parametrize("encoding", ["binary", "one-hot"])
    def test_codegen_trace_equals_reference_across_encodings(self, encoding):
        fsm = generate_fsm(_make_spec(8, 3, 3, 0, 2, 0.5, 0.35, True, seed=11))
        impl = synthesize_ff(fsm, encoding_style=encoding)
        stim = random_stimulus(fsm.num_inputs, 150, seed=1)
        fast = simulate_ff_netlist(impl, stim)
        assert_traces_equal(fast, simulate_ff_netlist_reference(impl, stim))
        assert codegen.stats().fallbacks == 0

    def test_compiles_once_then_memoises(self):
        fsm = generate_fsm(_make_spec(6, 2, 2, 0, 2, 0.5, 0.3, False, seed=9))
        impl = synthesize_ff(fsm)
        stim = random_stimulus(fsm.num_inputs, 80, seed=0)
        simulate_ff_netlist(impl, stim)
        first = codegen.stats()
        simulate_ff_netlist(impl, stim)
        second = codegen.stats()
        assert first.compiles >= 1
        assert second.compiles == first.compiles
        assert second.memo_hits > first.memo_hits
        assert second.fallbacks == 0


def _tiny_mapping(n: int) -> LutMapping:
    """A distinct one-LUT netlist per ``n``: net ``n<n>`` over two inputs."""
    net = f"n{n}"
    return LutMapping(
        k=4,
        luts=[MappedLut(net, ("a", "b"), TruthTable(2, n % 16), 1)],
        input_nets=["a", "b"],
        outputs={"y": net},
    )


class TestMemoBound:
    WORDS = {"a": 0b1100, "b": 0b1010}

    def test_fingerprint_memo_is_capped(self):
        cap = codegen.MEMO_MAX_ENTRIES
        mappings = [_tiny_mapping(n) for n in range(cap + 8)]
        for m in mappings:
            codegen.compile_mapping(m)
        assert codegen.stats().compiles == cap + 8
        assert len(codegen._by_fingerprint) <= cap

    def test_evicted_mapping_recompiles_to_the_same_nets(self):
        nets = codegen.compile_mapping(_tiny_mapping(6))(self.WORDS, 0b1111)
        for n in range(1000, 1000 + codegen.MEMO_MAX_ENTRIES):
            codegen.compile_mapping(_tiny_mapping(n))
        fresh = _tiny_mapping(6)
        assert codegen.mapping_fingerprint(fresh) not in codegen._by_fingerprint
        compiles = codegen.stats().compiles
        assert codegen.compile_mapping(fresh)(self.WORDS, 0b1111) == nets
        assert codegen.stats().compiles == compiles + 1
        assert nets == evaluate_mapping_words(fresh, self.WORDS, 0b1111)
