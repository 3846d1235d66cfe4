"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.flows.cli import build_parser, main

SRC = Path(__file__).resolve().parents[2] / "src"

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


@pytest.fixture
def kiss_file(tmp_path):
    path = tmp_path / "det.kiss2"
    path.write_text(DETECTOR)
    return str(path)


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["tables", "--cycles", "10"])
        assert args.cycles == 10
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache

    def test_pipeline_options(self):
        args = build_parser().parse_args(
            ["tables", "--jobs", "4", "--cache-dir", "/tmp/c",
             "--manifest", "m.json"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.manifest == "m.json"

    def test_cache_subcommand(self):
        args = build_parser().parse_args(["cache", "stats"])
        assert args.action == "stats"
        args = build_parser().parse_args(
            ["cache", "clear", "--cache-dir", "/tmp/c"]
        )
        assert args.action == "clear"
        assert args.cache_dir == "/tmp/c"

    def test_map_options(self):
        args = build_parser().parse_args(
            ["map", "f.kiss2", "--clock-control", "--vhdl", "out.vhd"]
        )
        assert args.clock_control
        assert args.vhdl == "out.vhd"

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_options(self):
        args = build_parser().parse_args([
            "serve", "--port", "9100", "--jobs", "4", "--max-queue", "16",
            "--timeout", "30", "--executor", "thread",
        ])
        assert args.port == 9100
        assert args.jobs == 4
        assert args.max_queue == 16
        assert args.timeout == 30.0
        assert args.executor == "thread"

    def test_submit_options(self):
        args = build_parser().parse_args([
            "submit", "--benchmark", "dk14", "--port", "9100",
            "--freq", "50", "100",
        ])
        assert args.benchmark == "dk14"
        assert args.freq == [50.0, 100.0]
        assert args.file is None

    def test_log_level_flag(self):
        args = build_parser().parse_args(["--log-level", "debug", "bench-stats"])
        assert args.log_level == "debug"


class TestCommands:
    def test_bench_stats(self, capsys):
        assert main(["bench-stats"]) == 0
        out = capsys.readouterr().out
        assert "planet" in out
        assert "dc-density" in out

    def test_map_reports_resources(self, kiss_file, capsys):
        assert main(["map", kiss_file]) == 0
        out = capsys.readouterr().out
        assert "memory config" in out
        assert "512x36" in out

    def test_map_writes_vhdl(self, kiss_file, tmp_path, capsys):
        target = str(tmp_path / "out.vhd")
        assert main(["map", kiss_file, "--vhdl", target]) == 0
        text = (tmp_path / "out.vhd").read_text()
        assert "entity det_romfsm is" in text

    def test_map_with_clock_control(self, kiss_file, capsys):
        assert main(["map", kiss_file, "--clock-control"]) == 0
        assert "clock control" in capsys.readouterr().out

    def test_eval_prints_power_table(self, kiss_file, capsys):
        assert main([
            "eval", kiss_file, "--cycles", "150", "--freq", "50", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "FF (mW)" in out
        assert "saving @ 100 MHz" in out
        assert "fmax" in out

    def test_eval_profile_prints_stage_table(self, kiss_file, capsys):
        assert main([
            "eval", kiss_file, "--cycles", "150", "--freq", "100",
            "--profile",
        ]) == 0
        out = capsys.readouterr().out
        # Stage table precedes the power table, one row per stage.
        assert out.index("seconds") < out.index("FF (mW)")
        for stage in ("parse", "ff-synth", "rom-map", "simulate",
                      "activity", "power", "total"):
            assert stage in out

    def test_eval_without_profile_omits_stage_table(self, kiss_file, capsys):
        assert main(["eval", kiss_file, "--cycles", "150"]) == 0
        assert "ff-synth" not in capsys.readouterr().out

    def test_dump_bench_writes_kiss_files(self, tmp_path, capsys):
        from repro.fsm.kiss import load_kiss_file

        assert main(["dump-bench", str(tmp_path / "suite")]) == 0
        dk14 = load_kiss_file(tmp_path / "suite" / "dk14.kiss2")
        assert dk14.num_states == 7
        planet = load_kiss_file(tmp_path / "suite" / "planet.kiss2")
        assert planet.num_states == 48

    def test_tables_written_to_directory(self, tmp_path, capsys):
        target = str(tmp_path / "tables")
        assert main([
            "tables", "--cycles", "60", "--seed", "1", "--out", target,
        ]) == 0
        for index in range(1, 5):
            text = (tmp_path / "tables" / f"table{index}.txt").read_text()
            assert f"Table {index}" in text

    def test_tables_with_jobs_cache_and_manifest(self, tmp_path, capsys):
        import json

        from repro.flows.tables import clear_results_memo

        clear_results_memo()
        manifest = tmp_path / "manifest.json"
        cache_dir = tmp_path / "cache"
        assert main([
            "tables", "--cycles", "60", "--seed", "2",
            "--jobs", "2", "--cache-dir", str(cache_dir),
            "--manifest", str(manifest),
        ]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "[pipeline]" in captured.err
        data = json.loads(manifest.read_text())
        assert data["jobs"] == 2
        assert data["items"] == 9
        assert data["cache_misses"] == data["stage_runs"]
        assert (cache_dir / "objects").is_dir()
        clear_results_memo()

    def test_eval_accepts_benchmark_name(self, capsys):
        assert main([
            "eval", "dk14", "--cycles", "100", "--freq", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "saving @ 100 MHz" in out
        assert "memory   : 512x36 x1" in out

    def test_bad_option_value_is_one_line_exit_2(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        for argv, needle in (
            (["eval", "dk14", "--tuned", missing],
             "no such frontier artifact"),
            (["tables", "--faults", "{not json"], "bad --faults plan"),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("romfsm: error: ")
            assert needle in captured.err
            assert len(captured.err.strip().splitlines()) == 1

    def test_map_accepts_benchmark_name(self, capsys):
        assert main(["map", "dk14"]) == 0
        assert "memory config" in capsys.readouterr().out

    def test_no_cache_overrides_environment(
        self, kiss_file, tmp_path, capsys, monkeypatch
    ):
        env_dir = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_dir))
        assert main([
            "eval", kiss_file, "--cycles", "100", "--freq", "100",
            "--no-cache",
        ]) == 0
        assert not env_dir.exists()

    def test_eval_populates_cache(self, kiss_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "eval", kiss_file, "--cycles", "100", "--freq", "100",
            "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries    : 8" in out
        # Degradation lives in the process that hit the errors; a fresh
        # process cannot know it, so the command does not claim to.
        assert "degraded" not in out
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 8" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "entries    : 0" in capsys.readouterr().out


class TestFriendlyErrors:
    """User mistakes exit 2 with one ``romfsm: error:`` line, no traceback."""

    def _assert_one_line_error(self, capsys, needle):
        captured = capsys.readouterr()
        lines = [l for l in captured.err.strip().splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("romfsm: error:")
        assert needle in lines[0]
        assert "Traceback" not in captured.err

    def test_eval_unknown_benchmark(self, capsys):
        assert main(["eval", "nosuchbench"]) == 2
        self._assert_one_line_error(capsys, "nosuchbench")

    def test_map_unknown_benchmark(self, capsys):
        assert main(["map", "nosuchbench"]) == 2
        self._assert_one_line_error(capsys, "nosuchbench")

    def test_eval_unparseable_kiss(self, tmp_path, capsys):
        bad = tmp_path / "bad.kiss2"
        bad.write_text("this is not kiss2\n")
        assert main(["eval", str(bad)]) == 2
        self._assert_one_line_error(capsys, "cannot parse")

    def test_map_unparseable_kiss(self, tmp_path, capsys):
        bad = tmp_path / "bad.kiss2"
        bad.write_text(".i 1\n.o 1\nbroken line here\n")
        assert main(["map", str(bad)]) == 2
        self._assert_one_line_error(capsys, "cannot parse")

    def test_missing_file_lists_benchmarks(self, capsys):
        assert main(["eval", "missing.kiss2"]) == 2
        self._assert_one_line_error(capsys, "dk14")

    def test_submit_without_target(self, capsys):
        assert main(["submit"]) == 2
        self._assert_one_line_error(capsys, "--benchmark")

    def test_submit_unreachable_server(self, tmp_path, capsys):
        kiss = tmp_path / "x.kiss2"
        kiss.write_text(DETECTOR)
        assert main([
            "submit", str(kiss), "--port", "1", "--timeout", "2",
        ]) == 2
        self._assert_one_line_error(capsys, "unreachable")


class TestRemovedSurface:
    """The BLIF command and the structural VHDL flag are gone: argparse
    rejects them with its usage error (exit 2), before any work runs."""

    def _run(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.flows.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def _assert_usage_error(self, proc, needle):
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage:")
        assert needle in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_blif_command_rejected(self, kiss_file):
        proc = self._run("blif", kiss_file)
        self._assert_usage_error(proc, "invalid choice")
        assert "blif" in proc.stderr

    def test_structural_flag_rejected(self, kiss_file, tmp_path):
        target = tmp_path / "out.vhd"
        proc = self._run("map", kiss_file, "--vhdl", str(target),
                         "--structural")
        self._assert_usage_error(proc, "unrecognized arguments: --structural")
        assert not target.exists()


class TestTuneCommand:
    def test_tune_options_registered(self):
        args = build_parser().parse_args(
            ["tune", "dk14", "--cycles", "96", "--seed", "7",
             "--jobs", "2", "--no-prune", "--out", "f.json"]
        )
        assert args.cycles == 96
        assert args.seed == 7
        assert args.jobs == 2
        assert args.no_prune
        assert args.out == "f.json"

    def test_tune_prints_frontier_and_writes_artifact(
        self, kiss_file, tmp_path, capsys
    ):
        out = str(tmp_path / "frontier.json")
        assert main([
            "tune", kiss_file, "--cycles", "96", "--no-cache", "--out", out,
        ]) == 0
        printed = capsys.readouterr().out
        assert "Pareto frontier" in printed
        assert "baseline (fixed heuristic)" in printed
        assert f"wrote {out}" in printed

        from repro.tune import load_frontier
        result = load_frontier(out)
        assert result.benchmark == "det"
        assert result.frontier

    def test_eval_tuned_applies_stored_config(
        self, kiss_file, tmp_path, capsys
    ):
        out = str(tmp_path / "frontier.json")
        assert main([
            "tune", kiss_file, "--cycles", "96", "--no-cache", "--out", out,
        ]) == 0
        capsys.readouterr()
        assert main([
            "eval", kiss_file, "--cycles", "96", "--no-cache",
            "--tuned", out, "--profile",
        ]) == 0
        printed = capsys.readouterr().out
        # The provenance note names the artifact, the point index, and
        # the candidate fingerprint prefix.
        assert "[tuned] mapper config from" in printed
        assert out in printed
        assert "candidate " in printed

    def test_eval_tuned_without_profile_is_silent_about_provenance(
        self, kiss_file, tmp_path, capsys
    ):
        out = str(tmp_path / "frontier.json")
        assert main([
            "tune", kiss_file, "--cycles", "96", "--no-cache", "--out", out,
        ]) == 0
        capsys.readouterr()
        assert main([
            "eval", kiss_file, "--cycles", "96", "--no-cache",
            "--tuned", out,
        ]) == 0
        assert "[tuned]" not in capsys.readouterr().out

    def test_eval_tuned_point_out_of_range(
        self, kiss_file, tmp_path, capsys
    ):
        out = str(tmp_path / "frontier.json")
        assert main([
            "tune", kiss_file, "--cycles", "96", "--no-cache", "--out", out,
        ]) == 0
        capsys.readouterr()
        assert main([
            "eval", kiss_file, "--tuned", out, "--tuned-point", "99",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("romfsm: error:")
        assert "out of range" in err

    def test_eval_tuned_benchmark_mismatch(
        self, kiss_file, tmp_path, capsys
    ):
        out = str(tmp_path / "frontier.json")
        assert main([
            "tune", "dk14", "--cycles", "96", "--no-cache", "--out", out,
        ]) == 0
        capsys.readouterr()
        assert main(["eval", kiss_file, "--tuned", out]) == 2
        err = capsys.readouterr().err
        assert "tuned for 'dk14'" in err

    def test_eval_tuned_missing_artifact(self, kiss_file, capsys):
        assert main([
            "eval", kiss_file, "--tuned", "nosuch.json",
        ]) == 2
        err = capsys.readouterr().err
        assert "no such frontier artifact" in err
