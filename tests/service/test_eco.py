"""``POST /v1/eco``: validation, payload shape, coalescing, metrics.

The eco job follows the service's general contract — malformed bodies
are 400s with stable error slugs *before* an executor slot is spent,
identical requests share one content-addressed key, and the endpoint
appears in the metrics whitelist alongside the codegen counters the CI
fallback guard scrapes.
"""

import pytest

from repro.bench.suite import load_benchmark
from repro.fsm.kiss import format_kiss
from repro.service.jobs import JobError, eco_payload, parse_job, run_job

from tests.service.conftest import http_request, run_async, serving

BENCH = "dk14"


def one_edit():
    fsm = load_benchmark(BENCH)
    t = fsm.transitions[0]
    new_dst = next(s for s in fsm.states if s != t.dst)
    return [{"state": t.src, "input": str(t.inputs),
             "next": new_dst, "outputs": t.outputs}]


SMALL_BODY = dict(
    benchmark=BENCH, edits=one_edit(),
    num_cycles=150, frequencies_mhz=[100.0], seed=11,
)


class TestParseEco:
    def test_benchmark_plus_edits(self):
        job = parse_job(dict(SMALL_BODY, kind="eco"))
        assert job.kind == "eco"
        assert len(job.key) == 64

    def test_identical_requests_share_a_key(self):
        a = parse_job(dict(SMALL_BODY, kind="eco"))
        b = parse_job(dict(SMALL_BODY, kind="eco"))
        assert a.key == b.key

    def test_edit_and_kiss_forms_of_same_machine_differ_in_key_only_safely(
        self,
    ):
        # Same edited machine via script or full KISS2: both parse, and
        # the *edited machine* part of the key matches (the key differs
        # only if anything else does).
        from repro.fsm.diff import apply_edits

        new_fsm = apply_edits(load_benchmark(BENCH), one_edit())
        a = parse_job(dict(SMALL_BODY, kind="eco"))
        b = parse_job(dict(
            SMALL_BODY, kind="eco", edits=None,
            new_kiss=format_kiss(new_fsm), new_name=new_fsm.name,
        ))
        assert format_kiss(a.spec["new_fsm"]) == format_kiss(b.spec["new_fsm"])

    def test_needs_exactly_one_edit_form(self):
        with pytest.raises(JobError):
            parse_job({"kind": "eco", "benchmark": BENCH})
        with pytest.raises(JobError):
            parse_job(dict(
                SMALL_BODY, kind="eco", new_kiss=".i 1\n.o 1\n.r A\n",
            ))

    def test_bad_edit_is_a_typed_400(self):
        with pytest.raises(JobError) as exc:
            parse_job({
                "kind": "eco", "benchmark": BENCH,
                "edits": [{"state": "nosuch", "input": "0" * 3,
                           "next": "alsono", "outputs": "0" * 5}],
            })
        assert exc.value.reason == "bad_edit"

    def test_nondeterministic_edit_is_a_typed_400(self):
        # Overlaps dk14's existing s1/01- cube with different behaviour.
        with pytest.raises(JobError) as exc:
            parse_job({
                "kind": "eco", "benchmark": BENCH,
                "edits": [{"state": "s1", "input": "011",
                           "next": "s3", "outputs": "00000"}],
            })
        assert exc.value.reason == "bad_edit"
        assert "non-deterministic" in str(exc.value)

    def test_non_rom_only_edit_rejected_at_validation(self):
        fsm = load_benchmark(BENCH)
        bigger = format_kiss(fsm) + "\n"  # same machine: empty diff is fine
        # A replacement machine with a different interface is not.
        with pytest.raises(JobError) as exc:
            parse_job({
                "kind": "eco", "benchmark": BENCH,
                "new_kiss": ".i 9\n.o 1\n.r A\n" + "0" * 9 + " A A 0\n",
            })
        assert exc.value.reason == "eco_rejected"
        assert bigger  # silence unused warning

    def test_oversized_edit_script_rejected(self):
        with pytest.raises(JobError) as exc:
            parse_job({
                "kind": "eco", "benchmark": BENCH,
                "edits": [dict(e) for e in one_edit() * 2000],
            })
        assert exc.value.reason == "oversized"

    def test_unknown_field_rejected(self):
        with pytest.raises(JobError):
            parse_job(dict(SMALL_BODY, kind="eco", turbo=True))

    def test_job_error_reason_survives_pickling(self):
        import pickle

        err = JobError("nope", reason="eco_rejected")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.reason == "eco_rejected"
        assert str(clone) == "nope"


class TestRunEcoJob:
    def test_payload_shape(self):
        job = parse_job(dict(SMALL_BODY, kind="eco"))
        payload, records = run_job(job)
        assert payload["name"]
        assert payload["changed_words"] >= 1
        assert payload["total_words"] >= payload["changed_words"]
        assert payload["old_fingerprint"] != payload["new_fingerprint"]
        assert payload["diff"]["rom_only"] is True
        assert set(payload["power_mw"]) == {"100"}
        assert payload["fmax_mhz"]["rom"] > 0
        assert {r.stage for r in records} >= {
            "parse", "rom-map", "eco-patch", "eco-simulate", "eco-power",
        }

    def test_stale_fingerprint_is_eco_rejected(self):
        job = parse_job(dict(
            SMALL_BODY, kind="eco", old_fingerprint="0" * 64,
        ))
        with pytest.raises(JobError) as exc:
            run_job(job)
        assert exc.value.reason == "eco_rejected"

    def test_payload_round_trips_matching_fingerprint(self):
        payload, _ = run_job(parse_job(dict(SMALL_BODY, kind="eco")))
        job = parse_job(dict(
            SMALL_BODY, kind="eco",
            old_fingerprint=payload["old_fingerprint"],
        ))
        second, _ = run_job(job)
        assert second["new_fingerprint"] == payload["new_fingerprint"]

    def test_eco_payload_helper_matches_flow_result(self):
        from repro.flows.eco import eco_evaluate

        result, _ = eco_evaluate(
            BENCH, edits=one_edit(), cache=False,
            num_cycles=150, frequencies_mhz=(100.0,), seed=11,
        )
        payload = eco_payload(result)
        assert payload["changed_words"] == result.changed_words
        assert payload["rom"]["bram_config"] == result.impl.config.name


class TestEcoEndpoint:
    def test_eco_round_trip_and_metrics(self):
        async def body():
            async with serving() as server:
                port = server.port
                status, decoded = await http_request(
                    port, "POST", "/v1/eco", body=SMALL_BODY
                )
                assert status == 200
                assert decoded["ok"] and decoded["kind"] == "eco"
                result = decoded["result"]
                assert result["changed_words"] >= 1

                # Same request again: answered via coalescing/cache, and
                # still correct.
                status2, decoded2 = await http_request(
                    port, "POST", "/v1/eco", body=SMALL_BODY
                )
                assert status2 == 200
                assert decoded2["key"] == decoded["key"]
                assert decoded2["result"]["new_fingerprint"] == (
                    result["new_fingerprint"]
                )

                status, text = await http_request(port, "GET", "/metrics")
                assert status == 200
                assert 'route="POST /v1/eco",status="200"' in text

        run_async(body())

    def test_eco_validation_errors_are_400(self):
        async def body():
            async with serving() as server:
                port = server.port
                status, decoded = await http_request(
                    port, "POST", "/v1/eco",
                    body={"benchmark": BENCH},
                )
                assert status == 400

                status, decoded = await http_request(
                    port, "POST", "/v1/eco",
                    body=dict(SMALL_BODY, old_fingerprint="0" * 64),
                )
                assert status == 400
                assert decoded["error"] == "eco_rejected"

                status, decoded = await http_request(
                    port, "POST", "/v1/eco",
                    body={"benchmark": BENCH, "edits": [
                        {"state": "nosuch", "input": "000",
                         "next": "x", "outputs": "00000"}]},
                )
                assert status == 400
                assert decoded["error"] == "bad_edit"

        run_async(body())

    def test_client_eco_method(self):
        async def body():
            async with serving() as server:
                import asyncio

                from repro.service.client import ServiceClient, ServiceError

                client = ServiceClient(port=server.port, timeout_s=30.0)
                decoded = await asyncio.to_thread(
                    client.eco, benchmark=BENCH, edits=one_edit(),
                    num_cycles=150, frequencies_mhz=[100.0], seed=11,
                )
                assert decoded["result"]["changed_words"] >= 1
                with pytest.raises(ServiceError) as exc:
                    await asyncio.to_thread(
                        client.eco, benchmark=BENCH, edits=one_edit(),
                        old_fingerprint="f" * 64,
                        num_cycles=150, frequencies_mhz=[100.0], seed=11,
                    )
                assert exc.value.reason == "eco_rejected"

        run_async(body())
