"""The reported facts in ``power`` and the on-demand implementations.

Tables 1 and 4 and the evaluate reply read the :class:`ReportedFacts`
record that the ``power`` stage stores; an :class:`EvaluationResult`
hands out the machine and its implementations only when asked.  These
tests hold the record to the implementation objects it summarizes, and
a warm result's on-demand values to the cold ones.
"""

import types

import pytest

from repro.bench.generator import GeneratorSpec, generate_fsm
from repro.bench.suite import PAPER_BENCHMARKS
from repro.flows import tables
from repro.flows.flow import (
    evaluate_benchmark,
    evaluate_benchmark_detailed,
    evaluate_many,
)
from repro.pipeline.artifact import fingerprint
from repro.pipeline.cache import ArtifactCache, CacheLoadError
from repro.service.jobs import evaluate_payload

KW = dict(num_cycles=64, seed=3)
LAZY_FIELDS = ("fsm", "ff_impl", "rom_impl", "rom_cc_impl")


def _generated(seed: int):
    num_inputs = 1 + seed % 5
    return generate_fsm(GeneratorSpec(
        name=f"facts{seed}",
        num_states=2 + (3 * seed) % 9,
        num_inputs=num_inputs,
        num_outputs=1 + seed % 4,
        care_inputs=(0, min(num_inputs, 3)),
        branch_probability=0.3 + 0.1 * (seed % 5),
        self_loop_bias=0.15 * (seed % 4),
        moore=seed % 2 == 1,
        seed=2000 + seed,
    ))


# What the evaluate reply and Tables 1 and 4 read before the record
# existed: the same facts, taken from the implementation objects.
def _reply_from_implementations(result):
    fsm, ff, rom = result.fsm, result.ff_impl, result.rom_impl
    return {
        "name": fsm.name,
        "fsm": {
            "states": fsm.num_states,
            "inputs": fsm.num_inputs,
            "outputs": fsm.num_outputs,
        },
        "ff": {
            "luts": ff.num_luts,
            "ffs": ff.num_ffs,
            "encoding": ff.encoding.style,
        },
        "rom": {
            "bram_config": rom.config.name,
            "brams": rom.num_brams,
            "addr_bits": rom.layout.addr_bits,
            "data_bits": rom.layout.data_bits,
            "lut_overhead": rom.utilization.luts,
        },
    }


def _table1_row_from_implementations(name, result):
    ff = result.ff_impl.utilization
    rom = result.rom_impl.utilization
    return [name, ff.luts, ff.ffs, ff.slices, rom.luts, rom.slices, rom.brams]


def _table4_row_from_implementations(name, result):
    extra_luts = result.rom_cc_impl.clock_control.num_luts
    return [name, extra_luts, -(-extra_luts // 2)]


def _assert_reports_match(results, monkeypatch):
    names = list(results)
    for result in results.values():
        reply = evaluate_payload(result)
        want = _reply_from_implementations(result)
        assert {key: reply[key] for key in want} == want
    monkeypatch.setattr(tables, "PAPER_BENCHMARKS", names)
    assert tables.table1(results).rows == [
        _table1_row_from_implementations(n, results[n]) for n in names
    ]
    assert tables.table4(results).rows == [
        _table4_row_from_implementations(n, results[n]) for n in names
    ]


class TestRecordMatchesImplementations:
    def test_paper_benchmarks(self, monkeypatch):
        results, _ = evaluate_many(PAPER_BENCHMARKS, cache=False, **KW)
        _assert_reports_match(results, monkeypatch)

    def test_generated_machines(self, monkeypatch):
        machines = [_generated(seed) for seed in range(8)]
        results, _ = evaluate_many(machines, cache=False, **KW)
        assert len(results) == len(machines)
        _assert_reports_match(results, monkeypatch)

    def test_without_clock_control(self):
        result = evaluate_benchmark(
            "dk14", with_clock_control=False, cache=False, **KW
        )
        assert result.facts.cc_luts is None
        assert result.rom_cc_impl is None
        want = _reply_from_implementations(result)
        reply = evaluate_payload(result)
        assert {key: reply[key] for key in want} == want


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


class TestOnDemandImplementations:
    def test_warm_fields_fingerprint_as_cold(self, cache):
        cold = evaluate_benchmark("dk14", cache=cache, **KW)
        warm = evaluate_benchmark("dk14", cache=cache, **KW)
        for field in LAZY_FIELDS:
            assert fingerprint(getattr(warm, field)) == \
                fingerprint(getattr(cold, field)), field

    def test_warm_fields_fingerprint_as_cold_from_a_pool(self, cache):
        names = ["dk14", "donfile"]
        cold, _ = evaluate_many(names, jobs=1, cache=cache, **KW)
        warm, manifest = evaluate_many(names, jobs=2, cache=cache, **KW)
        assert manifest.cache_misses == 0
        for name in names:
            for field in LAZY_FIELDS:
                assert fingerprint(getattr(warm[name], field)) == \
                    fingerprint(getattr(cold[name], field)), (name, field)
            assert warm[name] == cold[name]

    def test_result_fingerprint_sees_reported_values_only(self, cache):
        cold = evaluate_benchmark("dk14", cache=cache, **KW)
        warm = evaluate_benchmark("dk14", cache=cache, **KW)
        assert fingerprint(warm) == fingerprint(cold)
        assert warm == cold
        other = evaluate_benchmark("dk14", cache=cache, num_cycles=65, seed=3)
        assert fingerprint(other) != fingerprint(cold)

    def test_entry_that_will_not_unpickle(self, cache, monkeypatch):
        _, cold = evaluate_benchmark_detailed("dk14", cache=cache, **KW)
        key = next(r.key for r in cold.records if r.stage == "rom-map")
        path = cache.objects_dir / key[:2] / f"{key}.pkl"
        warm = evaluate_benchmark("dk14", cache=cache, **KW)
        assert path.exists()

        def renamed(data):
            raise AttributeError("class was renamed")

        # The bytes pass the CRC but no longer unpickle, as after a
        # class rename without a stage version bump.
        monkeypatch.setattr(
            "repro.pipeline.cache.pickle", types.SimpleNamespace(loads=renamed)
        )
        with pytest.raises(CacheLoadError) as info:
            warm.rom_impl
        monkeypatch.undo()
        assert info.value.key == key
        assert not path.exists()
        # The next run recomputes the dropped stage.
        _, again = evaluate_benchmark_detailed("dk14", cache=cache, **KW)
        assert [r.stage for r in again.records if not r.cache_hit] == ["rom-map"]
