"""The mapper's content-keyed memo of the auxiliary LUT networks.

The Fig. 4 input multiplexer and the §6 enable logic are memoised by
content in :mod:`repro.romfsm.mapper`.  A memo hit must be
indistinguishable from a fresh build, the keys must separate every
input the networks depend on, the memo must stay bounded, and the
shared objects must come out of simulation, activity extraction and
VHDL emission untouched.
"""

import pytest

from repro.bench.suite import PAPER_BENCHMARKS, load_benchmark
from repro.fsm.encoding import StateEncoding, binary_encoding
from repro.fsm.kiss import parse_kiss
from repro.fsm.simulate import random_stimulus
from repro.pipeline.artifact import fingerprint
from repro.power.activity import extract_rom_activity
from repro.romfsm import mapper
from repro.romfsm.mapper import clear_aux_logic_cache, map_fsm_to_rom
from repro.romfsm.vhdl import rom_fsm_vhdl

# Compaction and clock control on: both auxiliary networks are built.
BOTH = dict(force_compaction=True, clock_control=True)

# A self-loop on state A under input 1 is left unspecified, so adding it
# keeps the machine deterministic and changes its idle condition.
PARTIAL = """
.i 2
.o 1
.r A
0- A B 0
-0 B A 1
-1 B C 0
1- C A 0
0- C C 1
"""


@pytest.fixture(autouse=True)
def empty_memo():
    clear_aux_logic_cache()
    yield
    clear_aux_logic_cache()


def aux_networks(impl):
    return impl.mux_mapping, impl.clock_control


@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_memo_hit_equals_fresh_build(name):
    fsm = load_benchmark(name)
    first = map_fsm_to_rom(fsm, **BOTH)
    hit = map_fsm_to_rom(fsm, **BOTH)
    assert hit.mux_mapping is not None and hit.clock_control is not None
    assert hit.mux_mapping is first.mux_mapping
    assert hit.clock_control is first.clock_control

    clear_aux_logic_cache()
    fresh = map_fsm_to_rom(fsm, **BOTH)
    assert fresh.mux_mapping is not hit.mux_mapping
    assert fresh.clock_control is not hit.clock_control
    assert fingerprint(hit.mux_mapping) == fingerprint(fresh.mux_mapping)
    assert fingerprint(hit.clock_control) == fingerprint(fresh.clock_control)
    assert fingerprint(hit) == fingerprint(fresh)


def test_options_the_networks_ignore_share_one_entry():
    fsm = load_benchmark("dk14")
    plain = map_fsm_to_rom(fsm, **BOTH)
    pinned = map_fsm_to_rom(fsm, aspect="1Kx18", **BOTH)
    assert pinned.config.name == "1Kx18"
    assert pinned.mux_mapping is plain.mux_mapping
    assert pinned.clock_control is plain.clock_control
    assert len(mapper._MUX_CACHE) == 1
    assert len(mapper._CLOCK_CONTROL_CACHE) == 1


def test_changed_machine_misses_the_memo():
    fsm = parse_kiss(PARTIAL, "partial")
    before = map_fsm_to_rom(fsm, clock_control=True)
    fsm.add("A", "1-", "A", "0")
    after = map_fsm_to_rom(fsm, clock_control=True)
    assert after.clock_control is not before.clock_control
    assert len(mapper._CLOCK_CONTROL_CACHE) == 2
    clear_aux_logic_cache()
    fresh = map_fsm_to_rom(fsm, clock_control=True)
    assert fingerprint(after.clock_control) == fingerprint(fresh.clock_control)


def test_encoding_style_separates_entries():
    fsm = load_benchmark("dk14")
    binary = binary_encoding(fsm, reset_code=0)
    renamed = StateEncoding("relabelled", binary.width, dict(binary.codes))
    a = map_fsm_to_rom(fsm, encoding=binary, **BOTH)
    b = map_fsm_to_rom(fsm, encoding=renamed, **BOTH)
    assert a.clock_control is not b.clock_control
    assert a.clock_control.encoding.style == "binary"
    assert b.clock_control.encoding.style == "relabelled"
    assert a.mux_mapping is not b.mux_mapping
    assert len(mapper._MUX_CACHE) == 2
    assert len(mapper._CLOCK_CONTROL_CACHE) == 2


def test_memo_is_bounded_with_insertion_order_eviction(monkeypatch):
    monkeypatch.setattr(mapper, "_AUX_LOGIC_CACHE_MAX", 2)
    fsm = load_benchmark("dk14")
    impls = [map_fsm_to_rom(fsm, k=k, **BOTH) for k in (3, 4, 5, 6)]
    assert len(mapper._MUX_CACHE) == 2
    assert len(mapper._CLOCK_CONTROL_CACHE) == 2
    # The two newest entries still hit; the oldest were evicted.
    newest = map_fsm_to_rom(fsm, k=6, **BOTH)
    assert newest.mux_mapping is impls[3].mux_mapping
    assert newest.clock_control is impls[3].clock_control
    oldest = map_fsm_to_rom(fsm, k=3, **BOTH)
    assert oldest.mux_mapping is not impls[0].mux_mapping
    assert oldest.clock_control is not impls[0].clock_control
    assert len(mapper._MUX_CACHE) == 2
    assert len(mapper._CLOCK_CONTROL_CACHE) == 2


@pytest.mark.parametrize("name", ["dk14", "sand"])
def test_shared_networks_are_read_only_downstream(name):
    fsm = load_benchmark(name)
    impl = map_fsm_to_rom(fsm, **BOTH)
    shared = aux_networks(impl)
    before = [fingerprint(net) for net in shared]

    trace = impl.run(random_stimulus(fsm.num_inputs, 200, seed=3))
    extract_rom_activity(impl, trace)
    rom_fsm_vhdl(impl)

    assert [fingerprint(net) for net in shared] == before
    again = map_fsm_to_rom(fsm, **BOTH)
    assert all(a is b for a, b in zip(aux_networks(again), shared))
