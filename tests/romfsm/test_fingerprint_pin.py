"""Pinned content fingerprints of the memory-block record, mappings and
evaluate-flow stage artifacts.

The tuner's frontier artifacts commit to ``impl_fingerprint`` values,
and an implementation's fingerprint hashes its memory-block record as
(class qualname, field map).  A refactor of the block model, the mapper
or the fingerprint walker that moves any of these digests changes every
stored frontier and every cache key downstream; these pins make such a
change fail here first.  CI runs this file under two ``PYTHONHASHSEED``
values, since set and dict order must never reach a digest.
"""

import pytest

from repro.arch.memblock import VIRTEX2_BRAM
from repro.bench.suite import load_benchmark
from repro.pipeline.artifact import Artifact, fingerprint
from repro.romfsm.mapper import map_fsm_to_rom
from repro.tune.space import baseline_candidate


def test_virtex2_bram_record_fingerprint():
    assert fingerprint(VIRTEX2_BRAM) == (
        "1447fe59150fec9267df14aad949f3a8a23b831bfdad6d47d3547bad0310cccb"
    )


@pytest.mark.parametrize("name, expected", [
    ("dk14", "124daac290a6b1449b9645b9b92cf131d92548cd69007c4c24e6147d4af3a5ce"),
    ("sand", "82f05c0a656248bf303ee8296d61e1eed8633b348953c90665b0d835c425a90b"),
    ("ex1", "e306d338f87f355e61f3ba728ae43f87d701f31d0cf409abdfb4169931317586"),
])
def test_baseline_mapping_fingerprint(name, expected):
    impl = map_fsm_to_rom(
        load_benchmark(name), **baseline_candidate().mapper_kwargs()
    )
    assert Artifact.of(impl).fingerprint == expected


# Every stage artifact of dk14's default evaluate flow (the Tables 1-4
# settings).  Stage cache keys are built from these digests, so a moved
# pin here moves every cache key downstream of that stage.
DK14_STAGE_FINGERPRINTS = {
    "parse": "7c7163a4fa2dbeabf234a4c388500a8b69e1642121b689fa054f69d61d63eb74",
    "complete-encode": "21a24788b32ad7c498fbf8a9d2280635911d461a25cdd157844cabb7cfaa74e6",
    "ff-synth": "69687a06121f86070a1513ace81580394f2a9609f7fca6d71ee3c54c981cda85",
    "rom-map": "124daac290a6b1449b9645b9b92cf131d92548cd69007c4c24e6147d4af3a5ce",
    "rom-cc": "d7200df4314e37a7556b70c0c76cf0b1ee0b4dc9c3e4012ff52e67675290bca5",
    "simulate": "fa64ead5d70d67a2575f4605a707d2b1befacf9291ad1b770eaa5a1a99af1b96",
    "activity": "cf17fa99a2e56ceff533300cc188b7cd5a253964515ea41bb389469ff85718a2",
    "power": "f79b39a8437a16780afb1c90cb770b1cdc72ac5a39cf79c00bd690e111f1914c",
}


def test_dk14_evaluate_stage_fingerprints():
    from repro.flows.flow import evaluate_benchmark_detailed

    _, report = evaluate_benchmark_detailed("dk14", cache=False)
    got = {record.stage: record.fingerprint for record in report.records}
    assert got == DK14_STAGE_FINGERPRINTS
