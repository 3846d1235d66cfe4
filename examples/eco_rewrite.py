"""In-field functionality change: rewrite the memory, skip the tools.

Run:  python examples/eco_rewrite.py

Paper section 4.2: "The functionality of an EMB based FSM can be
changed by changing the contents of the EMB ... much faster than going
through the complete synthesis and placement and routing process.  This
is helpful for last moment engineering change orders (ECOs)."

Scenario: a deployed vending-machine controller must change its pricing
policy (accept a new coin sequence) after manufacturing.  The FF
implementation would need a new bitstream through synthesis + P&R; the
ROM implementation just rewrites its words.  This example drives the
change through the same incremental path as ``romfsm eco`` —
:func:`repro.flows.eco.eco_evaluate` — against a warm artifact cache,
so the parse and rom-map stages of the deployed machine are reused
and only the patch/re-simulate/power stages run.
"""

import tempfile

from repro import FsmSimulator, map_fsm_to_rom, random_stimulus
from repro.flows.eco import EcoError, eco_evaluate
from repro.flows.flow import evaluate_benchmark_detailed
from repro.fsm.machine import FSM

# Inputs : in0 = nickel inserted, in1 = dime inserted
# Outputs: out0 = dispense, out1 = refund excess
IDLE, N5, N10, N15 = "Idle", "C5", "C10", "C15"


def vending_v1() -> FSM:
    """Version 1: item costs 20 cents, exact change only."""
    fsm = FSM("vendor", 2, 2, [IDLE, N5, N10, N15], IDLE)
    fsm.add(IDLE, "00", IDLE, "00")
    fsm.add(IDLE, "10", N5, "00")
    fsm.add(IDLE, "01", N10, "00")
    fsm.add(IDLE, "11", N15, "00")     # both slots in one cycle
    fsm.add(N5, "00", N5, "00")
    fsm.add(N5, "10", N10, "00")
    fsm.add(N5, "01", N15, "00")
    fsm.add(N5, "11", IDLE, "10")      # 5+15 = 20: dispense
    fsm.add(N10, "00", N10, "00")
    fsm.add(N10, "10", N15, "00")
    fsm.add(N10, "01", IDLE, "10")     # 20: dispense
    fsm.add(N10, "11", IDLE, "11")     # 25: dispense + refund
    fsm.add(N15, "00", N15, "00")
    fsm.add(N15, "10", IDLE, "10")     # 20: dispense
    fsm.add(N15, "01", IDLE, "11")     # 25: dispense + refund
    fsm.add(N15, "11", IDLE, "11")     # 30: dispense + refund
    return fsm


# The ECO as a declarative edit script (the `romfsm eco --edits` format):
# price drops to 15 cents, so every path that reaches 15 dispenses.
# N15 becomes unreachable but stays in the state set — the ECO may not
# add or remove states, only re-route transitions and change outputs.
PRICE_DROP_EDITS = [
    {"state": IDLE, "input": "11", "next": IDLE, "outputs": "10"},
    {"state": N5, "input": "01", "next": IDLE, "outputs": "10"},
    {"state": N5, "input": "11", "next": IDLE, "outputs": "11"},
    {"state": N10, "input": "10", "next": IDLE, "outputs": "10"},
    {"state": N10, "input": "01", "next": IDLE, "outputs": "11"},
    {"state": N10, "input": "11", "next": IDLE, "outputs": "11"},
    {"state": N15, "input": "00", "next": IDLE, "outputs": "00"},
    {"state": N15, "input": "10", "next": IDLE, "outputs": "00"},
    {"state": N15, "input": "01", "next": IDLE, "outputs": "00"},
    {"state": N15, "input": "11", "next": IDLE, "outputs": "00"},
]


def main() -> None:
    v1 = vending_v1()

    with tempfile.TemporaryDirectory() as cache:
        # Deploy: the ordinary evaluation fills the artifact cache.
        deployed, _ = evaluate_benchmark_detailed(
            v1, cache=cache, num_cycles=2000, frequencies_mhz=(100.0,)
        )
        impl = deployed.rom_impl
        print(f"Deployed controller: {impl.config.name}, "
              f"{impl.layout.depth} words, 0 fabric LUTs")

        # ECO: same entry point as `romfsm eco`.  The
        # parse and rom-map artifacts are cache hits; only the words
        # are patched and re-verified.
        result, report = eco_evaluate(
            v1, edits=PRICE_DROP_EDITS, cache=cache,
            num_cycles=2000, frequencies_mhz=(100.0,),
        )
        hits = {r.stage: r.cache_hit for r in report.records}
        assert hits["parse"] and hits["rom-map"], hits
        print(f"\nECO applied: rewrote {result.changed_words} of "
              f"{result.total_words} memory words — no synthesis, no "
              f"place & route, same fabric")
        print(f"  diff: {result.diff.summary()}")
        print(f"  image: {result.old_rom_fingerprint[:16]} -> "
              f"{result.new_rom_fingerprint[:16]}")

        # The patched tables must be *exactly* what mapping the edited
        # machine from scratch produces — the ECO is a shortcut, not an
        # approximation.
        fresh = map_fsm_to_rom(result.new_fsm)
        assert result.impl.contents == fresh.contents
        print("  patched tables == from-scratch mapping of v2 (verified)")

        # And the machine behaves like v2.
        stim = random_stimulus(2, 2000, seed=42)
        v2_sim = FsmSimulator(result.new_fsm).run(stim)
        assert result.impl.run(stim).output_stream == v2_sim.outputs
        v1_dispenses = sum(o & 1 for o in FsmSimulator(v1).run(stim).outputs)
        v2_dispenses = sum(o & 1 for o in v2_sim.outputs)
        print(f"  behaviour verified: {v1_dispenses} dispenses before, "
              f"{v2_dispenses} after on the same tape — cheaper items "
              f"sell more")
        assert v2_dispenses > v1_dispenses

        # Guard rails: edits outside the ROM-rewrite envelope are
        # rejected with a typed error and need a full re-evaluation.
        wide = FSM("vendor", 3, 2, [IDLE, N5, N10, N15], IDLE)
        wide.add(IDLE, "---", IDLE, "00")
        try:
            eco_evaluate(v1, new=wide, cache=cache, num_cycles=2000,
                         frequencies_mhz=(100.0,))
        except EcoError as exc:
            print(f"\nInterface change correctly rejected: {exc}")


if __name__ == "__main__":
    main()
