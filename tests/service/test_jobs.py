"""Validation and fingerprinting of service jobs."""

import pytest

from repro.service.jobs import JobError, parse_job, run_job

from tests.service.conftest import DETECTOR_KISS


class TestParseEvaluate:
    def test_benchmark_job(self):
        job = parse_job({"benchmark": "dk14"})
        assert job.label == "evaluate:dk14"
        assert job.source == "dk14"
        assert len(job.key) == 64

    def test_kiss_job(self):
        job = parse_job({"kiss": DETECTOR_KISS, "name": "det"})
        assert job.source == "kiss2:det"

    def test_identical_requests_share_a_key(self):
        a = parse_job({"benchmark": "dk14", "num_cycles": 500, "seed": 7})
        b = parse_job({"seed": 7, "num_cycles": 500, "benchmark": "dk14"})
        assert a.key == b.key

    def test_key_changes_with_config(self):
        a = parse_job({"benchmark": "dk14", "seed": 7})
        b = parse_job({"benchmark": "dk14", "seed": 8})
        c = parse_job({"benchmark": "dk14", "seed": 7, "num_cycles": 99})
        assert len({a.key, b.key, c.key}) == 3

    def test_number_formatting_does_not_change_key(self):
        a = parse_job({"benchmark": "dk14", "frequencies_mhz": [100]})
        b = parse_job({"benchmark": "dk14", "frequencies_mhz": [100.0]})
        assert a.key == b.key

    def test_unknown_benchmark(self):
        with pytest.raises(JobError) as exc:
            parse_job({"benchmark": "nosuch"})
        assert exc.value.reason == "unknown_benchmark"
        assert "dk14" in str(exc.value)

    def test_bad_kiss(self):
        with pytest.raises(JobError) as exc:
            parse_job({"kiss": "this is not kiss2"})
        assert exc.value.reason == "bad_kiss"

    def test_both_sources_rejected(self):
        with pytest.raises(JobError):
            parse_job({"benchmark": "dk14", "kiss": DETECTOR_KISS})

    def test_neither_source_rejected(self):
        with pytest.raises(JobError):
            parse_job({"num_cycles": 10})

    def test_non_object_body(self):
        with pytest.raises(JobError):
            parse_job([1, 2, 3])

    def test_unknown_field(self):
        with pytest.raises(JobError) as exc:
            parse_job({"benchmark": "dk14", "frobnicate": True})
        assert "frobnicate" in str(exc.value)

    @pytest.mark.parametrize("body", [
        {"benchmark": "dk14", "num_cycles": 0},
        {"benchmark": "dk14", "num_cycles": 10**9},
        {"benchmark": "dk14", "num_cycles": "many"},
        {"benchmark": "dk14", "idle_fraction": 1.5},
        {"benchmark": "dk14", "frequencies_mhz": []},
        {"benchmark": "dk14", "frequencies_mhz": [-5.0]},
        {"benchmark": "dk14", "frequencies_mhz": "fast"},
        {"benchmark": "dk14", "encoding": "quantum"},
        {"benchmark": "dk14", "with_clock_control": "yes"},
        {"benchmark": "dk14", "seed": 1.5},
    ])
    def test_invalid_values(self, body):
        with pytest.raises(JobError):
            parse_job(body)

    @pytest.mark.parametrize("kind", ["map", "eco", "tune", "transmogrify"])
    def test_body_kind_other_than_evaluate_rejected(self, kind):
        # The evaluate route runs evaluations only; a body naming another
        # job kind is a typed 400, never a different job.
        with pytest.raises(JobError) as exc:
            parse_job({"benchmark": "dk14", "kind": kind})
        assert exc.value.reason == "invalid"
        assert repr(kind) in str(exc.value)


def test_job_error_reason_survives_pickling():
    # A JobError raised in a pool worker keeps its slug on the way back
    # to the event loop.
    import pickle

    err = JobError("nope", reason="unknown_benchmark")
    clone = pickle.loads(pickle.dumps(err))
    assert clone.reason == "unknown_benchmark"
    assert str(clone) == "nope"


class TestBackendField:
    def test_backend_field_rejected_as_unknown(self):
        # The memory block is fixed (Virtex-II); a request that still
        # names one fails like any other unknown field.
        with pytest.raises(JobError) as exc:
            parse_job({"benchmark": "dk14", "backend": "virtex2-bram"})
        assert exc.value.reason == "invalid"
        assert "unknown field" in str(exc.value)
        assert "backend" in str(exc.value)


class TestRunJob:
    def test_evaluate_payload_is_deterministic(self):
        import json

        job = parse_job({
            "benchmark": "dk14", "num_cycles": 120,
            "frequencies_mhz": [100.0],
        })
        payload_a, records_a = run_job(job)
        payload_b, _ = run_job(job)
        assert json.dumps(payload_a, sort_keys=True) == \
            json.dumps(payload_b, sort_keys=True)
        assert payload_a["name"] == "dk14"
        assert "100" in payload_a["power_mw"]
        assert len(records_a) == 8  # full clock-control pipeline

    def test_cancellation_polled_at_stage_boundaries(self):
        from repro.pipeline.pipeline import PipelineCancelled

        job = parse_job({"benchmark": "dk14", "num_cycles": 80})
        calls = []

        def cancel_after_two():
            calls.append(True)
            return len(calls) > 2

        with pytest.raises(PipelineCancelled) as exc:
            run_job(job, should_cancel=cancel_after_two)
        assert len(exc.value.report.records) == 2
