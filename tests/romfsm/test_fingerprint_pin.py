"""Pinned content fingerprints of the memory-block record and mappings.

The tuner's frontier artifacts commit to ``impl_fingerprint`` values,
and an implementation's fingerprint hashes its memory-block record as
(class qualname, field map).  A refactor of the block model or the
mapper that moves any of these digests changes every stored frontier
and every cache key downstream of ``rom-map``; these pins make such a
change fail here first.
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
