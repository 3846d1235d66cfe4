"""Command-line interface.

Subcommands mirror the paper's artifacts::

    romfsm tables [--cycles N] [--seed S] [--idle F]
                  [--jobs N] [--cache-dir D | --no-cache]  # Tables 1-4
    romfsm map FILE.kiss2|BENCH [--clock-control] [--vhdl OUT.vhd]
    romfsm eval FILE.kiss2|BENCH [--freq MHZ ...]
                  [--tuned FRONTIER.json [--tuned-point N]]
    romfsm tune FILE.kiss2|BENCH [--jobs N] [--out FRONTIER.json]
                  [--no-prune]           # Pareto search over mapper
                                         # configurations
    romfsm eco FILE.kiss2|BENCH --edits FILE.json|--new FILE.kiss2
                  [--old-fingerprint FP]       # patch ROM words in place
    romfsm serve [--port P] [--jobs N] [--max-queue Q] [--timeout S]
    romfsm submit FILE.kiss2|--benchmark NAME [--port P]
    romfsm bench-stats                                  # suite statistics
    romfsm cache {stats,clear} [--cache-dir D]          # artifact cache

The artifact cache is resolved from ``--cache-dir``, then the
``REPRO_CACHE_DIR`` environment variable, and is otherwise off for
``tables``/``eval`` (``cache`` falls back to ``~/.cache/romfsm``;
``serve`` caches there by default so requests share one store).
Processes that should reuse each other's work share one directory:
give every run and server the same ``--cache-dir`` or
``REPRO_CACHE_DIR``.
Logging verbosity comes from ``--log-level`` or ``$REPRO_LOG_LEVEL``
(default WARNING, so normal output is unchanged).

User mistakes (missing file, unknown benchmark, unparseable KISS2)
exit with a one-line ``romfsm: error: ...`` and status 2 — never a
traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench.suite import PAPER_BENCHMARKS, benchmark_stats, load_benchmark
from repro.flows.flow import PAPER_FREQUENCIES_MHZ, evaluate_benchmark_detailed
from repro.flows.tables import (
    last_run_manifest,
    run_all,
    table1,
    table2,
    table3,
    table4,
)
from repro.fsm.kiss import load_kiss_file, save_kiss_file
from repro.fsm.machine import FSM, FsmError
from repro.logutil import configure_logging, get_logger, kv
from repro.pipeline.cache import DEFAULT_CACHE_DIR, resolve_cache
from repro.power.report import format_table
from repro.romfsm.mapper import map_fsm_to_rom
from repro.romfsm.vhdl import rom_fsm_vhdl
from repro.tune.fitness import (
    DEFAULT_TUNE_CYCLES,
    DEFAULT_TUNE_FREQUENCY_MHZ,
)

__all__ = ["main"]

logger = get_logger("flows.cli")


class CliError(Exception):
    """A user-facing failure: printed as one line, exit status 2."""


def _load_fsm_arg(arg: str) -> FSM:
    """Resolve a positional FSM argument: a ``.kiss2`` path or a
    benchmark name.  Raises :class:`CliError` with a one-line message on
    a missing file, unknown name, or unparseable KISS2 text."""
    path = Path(arg)
    if path.exists():
        try:
            return load_kiss_file(path)
        except FsmError as exc:
            raise CliError(f"cannot parse {arg}: {exc}")
        except OSError as exc:
            raise CliError(f"cannot read {arg}: {exc}")
    if arg in PAPER_BENCHMARKS:
        return load_benchmark(arg)
    raise CliError(
        f"{arg!r} is neither a readable .kiss2 file nor a known benchmark "
        f"(available: {', '.join(PAPER_BENCHMARKS)})"
    )


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="artifact cache directory (default: $REPRO_CACHE_DIR if set)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache even if REPRO_CACHE_DIR is set",
    )


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", metavar="PLAN",
        help="activate a fault-injection plan: inline JSON or a path to "
             "a plan file (default: $REPRO_FAULTS if set); see "
             "docs/architecture.md §11",
    )


def _install_faults(args: argparse.Namespace) -> None:
    """Activate ``--faults`` for this process and its pool workers."""
    spec = getattr(args, "faults", None)
    if not spec:
        return
    import os

    from repro import faults
    from repro.faults import FaultPlan

    try:
        plan = FaultPlan.from_spec(spec)
    except ValueError as exc:
        raise CliError(f"bad --faults plan: {exc}")
    faults.install(plan)
    os.environ[faults.FAULTS_ENV] = plan.to_json()
    logger.info(kv("faults_active", rules=len(plan.rules), seed=plan.seed))


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent evaluations (default 1)",
    )
    _add_cache_options(parser)


def _cache_spec(args: argparse.Namespace):
    """CLI cache choice as a flow ``cache=`` value.

    ``False`` (not ``None``) when ``--no-cache`` is given, so the
    downstream resolution cannot fall back to ``REPRO_CACHE_DIR``.
    """
    return False if args.no_cache else args.cache_dir


def _cmd_tables(args: argparse.Namespace) -> int:
    _install_faults(args)
    cache = _cache_spec(args)
    results = run_all(
        num_cycles=args.cycles, seed=args.seed, idle_fraction=args.idle,
        jobs=args.jobs, cache=cache,
    )
    rendered = [table(results) for table in (table1, table2, table3, table4)]
    for table in rendered:
        print(table.text)
        print()
    if args.out:
        target = Path(args.out)
        target.mkdir(parents=True, exist_ok=True)
        for index, table in enumerate(rendered, start=1):
            path = target / f"table{index}.txt"
            path.write_text(table.text + "\n")
            print(f"wrote {path}")
    manifest = last_run_manifest()
    if manifest is not None:
        if args.manifest:
            path = manifest.write(args.manifest)
            print(f"wrote {path}")
        print(f"[pipeline] {manifest.summary()}", file=sys.stderr)
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    fsm = _load_fsm_arg(args.file)
    impl = map_fsm_to_rom(
        fsm,
        clock_control=args.clock_control,
        moore_outputs=args.moore_outputs,
        force_compaction=args.force_compaction,
    )
    util = impl.utilization
    print(f"FSM {fsm.name}: {fsm.num_states} states, "
          f"{fsm.num_inputs} in, {fsm.num_outputs} out")
    print(f"  memory config : {impl.config.name} x{impl.num_brams} "
          f"({impl.parallel_brams} parallel, {impl.series_brams} series)")
    compacted = " (column compacted)" if impl.compaction else ""
    print(f"  address bits  : {impl.layout.addr_bits}{compacted}")
    print(f"  data bits     : {impl.layout.data_bits}")
    print(f"  LUT overhead  : {util.luts} ({util.slices} slices)")
    if impl.clock_control is not None:
        print(f"  clock control : {impl.clock_control.num_luts} LUTs, "
              f"depth {impl.clock_control.depth}")
    if args.vhdl:
        Path(args.vhdl).write_text(rom_fsm_vhdl(impl))
        print(f"  VHDL written  : {args.vhdl} (inferred ROM)")
    return 0


def _print_eval_profile(report) -> None:
    """Per-stage timing table of one evaluation (``eval --profile``).

    Reuses the :class:`~repro.pipeline.driver.RunManifest` aggregation
    the ``tables`` command already records — no extra instrumentation;
    stages appear in execution order.
    """
    from repro.pipeline.driver import RunManifest

    manifest = RunManifest.from_reports([report])
    rows = [
        [name, totals.hits, totals.misses, f"{totals.seconds:.3f}"]
        for name, totals in manifest.stages.items()
    ]
    rows.append(["total", manifest.cache_hits, manifest.cache_misses,
                 f"{report.seconds:.3f}"])
    print(format_table(["stage", "hits", "misses", "seconds"], rows))
    print()


def _load_tuned_point(args: argparse.Namespace):
    """Resolve ``eval --tuned FRONTIER.json [--tuned-point N]``.

    Returns (TuneResult, FrontierPoint, index).  Missing files, foreign
    JSON, and out-of-range indices are one-line :class:`CliError`\\ s.
    """
    import json

    from repro.tune import load_frontier

    path = Path(args.tuned)
    if not path.exists():
        raise CliError(f"no such frontier artifact: {args.tuned}")
    try:
        result = load_frontier(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read frontier artifact {args.tuned}: {exc}")
    if not result.frontier:
        raise CliError(f"frontier artifact {args.tuned} has no points")
    if args.tuned_point is None:
        point = result.best_power
        index = result.frontier.index(point)
    else:
        if not 0 <= args.tuned_point < len(result.frontier):
            raise CliError(
                f"--tuned-point {args.tuned_point} is out of range "
                f"(frontier has {len(result.frontier)} point(s))"
            )
        index = args.tuned_point
        point = result.frontier[index]
    return result, point, index


def _cmd_eval(args: argparse.Namespace) -> int:
    _install_faults(args)
    fsm = _load_fsm_arg(args.file)

    tuned_kwargs = {}
    tuned_note = None
    if args.tuned:
        tuned, point, index = _load_tuned_point(args)
        if tuned.benchmark != fsm.name:
            raise CliError(
                f"frontier artifact {args.tuned} was tuned for "
                f"{tuned.benchmark!r}, not {fsm.name!r}"
            )
        c = point.candidate
        tuned_kwargs = {
            "rom_encoding": c.encoding,
            "force_compaction": c.force_compaction,
            "aspect": c.aspect,
            "moore_outputs": c.moore_outputs,
            "lut_k": c.lut_k,
        }
        tuned_note = (
            f"[tuned] mapper config from {args.tuned} point {index}: "
            f"encoding={c.encoding} moore={c.moore_outputs} "
            f"compaction={'yes' if c.force_compaction else 'no'} "
            f"aspect={c.aspect or 'auto'} "
            f"cc={'yes' if c.clock_control else 'no'} "
            f"(candidate {c.fingerprint[:16]}, tuned "
            f"{point.power_mw:.4f} mW @ "
            f"{point.fitness.get('frequency_mhz', 0):g} MHz)"
        )
    result, report = evaluate_benchmark_detailed(
        fsm,
        frequencies_mhz=args.freq,
        num_cycles=args.cycles,
        idle_fraction=args.idle,
        seed=args.seed,
        cache=_cache_spec(args),
        **tuned_kwargs,
    )
    if args.profile:
        if tuned_note is not None:
            print(tuned_note)
        _print_eval_profile(report)
    rows = []
    for f in args.freq:
        key = f"{f:g}"
        rows.append([
            f"{f:g} MHz",
            result.ff_power[key].total_mw,
            result.rom_power[key].total_mw,
            result.rom_cc_power[key].total_mw,
        ])
    print(format_table(
        ["frequency", "FF (mW)", "EMB (mW)", "EMB+cc (mW)"], rows
    ))
    rom = result.rom_impl
    print(f"\nmemory   : {rom.config.name} x{rom.num_brams} "
          f"({rom.parallel_brams} parallel, {rom.series_brams} series)")
    print(f"saving @ {args.freq[-1]:g} MHz : "
          f"{result.saving_percent(args.freq[-1]):.1f}% "
          f"(with clock control: {result.cc_saving_percent(args.freq[-1]):.1f}%"
          f" at {100 * result.achieved_idle_fraction:.0f}% idle)")
    print(f"FF fmax  : {result.ff_timing.fmax_mhz:.1f} MHz")
    print(f"EMB fmax : {result.rom_timing.fmax_mhz:.1f} MHz")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """``romfsm tune``: Pareto search over mapper configurations."""
    _install_faults(args)
    from repro.tune import tune_benchmark

    try:
        result = tune_benchmark(
            _load_fsm_arg(args.file),
            jobs=args.jobs,
            cache=_cache_spec(args),
            num_cycles=args.cycles,
            seed=args.seed,
            frequency_mhz=args.frequency,
            prune=not args.no_prune,
        )
    except FsmError as exc:
        raise CliError(str(exc))
    print(result.format_table())
    s = result.stats
    print(
        f"\n[search] {s['candidates']} candidates -> {s['structures']} "
        f"unique implementations ({s['deduped']} deduped, "
        f"{s['infeasible']} infeasible); {s['pruned']} pruned by exact "
        f"bound, {s['evaluated']} evaluated "
        f"({s['fitness_cache_hits']} fitness cache hit(s)) in "
        f"{s['wall_seconds']:.2f}s ({s['candidates_per_sec']:.1f} "
        f"candidates/s, jobs={s['jobs']})",
        file=sys.stderr,
    )
    if args.out:
        path = result.write(args.out)
        print(f"wrote {path}")
    return 0


def _cmd_eco(args: argparse.Namespace) -> int:
    """``romfsm eco``: absorb a ROM-only edit without re-synthesis."""
    import json

    _install_faults(args)
    if (args.edits is None) == (args.new is None):
        raise CliError("provide exactly one of --edits FILE or --new FILE")
    old = args.file if args.file in PAPER_BENCHMARKS else _load_fsm_arg(args.file)

    edits = None
    new_fsm = None
    if args.edits is not None:
        path = Path(args.edits)
        if not path.exists():
            raise CliError(f"no such edit script: {args.edits}")
        try:
            edits = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read edit script {args.edits}: {exc}")
        if not isinstance(edits, list):
            raise CliError("an edit script is a JSON list of edit objects")
    else:
        new_fsm = _load_fsm_arg(args.new)

    from repro.flows.eco import EcoError, eco_evaluate

    try:
        result, report = eco_evaluate(
            old,
            new=new_fsm,
            edits=edits,
            cache=_cache_spec(args),
            old_fingerprint=args.old_fingerprint,
            frequencies_mhz=args.freq,
            num_cycles=args.cycles,
            seed=args.seed,
        )
    except (EcoError, FsmError) as exc:
        raise CliError(str(exc))
    if args.profile:
        _print_eval_profile(report)

    diff = result.diff
    print(f"ECO on {result.old_fsm.name}: {diff.num_changes} transition "
          f"change(s) ({len(diff.added)} added, {len(diff.removed)} removed, "
          f"{len(diff.modified)} modified) "
          f"touching {', '.join(diff.touched_states) or 'nothing'}")
    print(f"  rewrote {result.changed_words} of {result.total_words} "
          f"ROM words; fabric untouched")
    print(f"  old image : {result.old_rom_fingerprint[:16]}")
    print(f"  new image : {result.new_rom_fingerprint[:16]}")
    rows = [
        [f"{f:g} MHz", result.rom_power[f"{f:g}"].total_mw]
        for f in args.freq
    ]
    print(format_table(["frequency", "EMB (mW)"], rows))
    print(f"EMB fmax : {result.rom_timing.fmax_mhz:.1f} MHz")
    if args.json:
        payload = {
            "name": result.new_fsm.name,
            "diff": diff.summary(),
            "changed_words": result.changed_words,
            "total_words": result.total_words,
            "old_fingerprint": result.old_rom_fingerprint,
            "new_fingerprint": result.new_rom_fingerprint,
            "power_mw": {
                key: round(p.total_mw, 6)
                for key, p in sorted(result.rom_power.items(), key=lambda kv: float(kv[0]))
            },
            "fmax_mhz": round(result.rom_timing.fmax_mhz, 3),
        }
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    return 0


def _cmd_dump_bench(args: argparse.Namespace) -> int:
    from repro.bench.suite import load_benchmark

    target = Path(args.dir)
    target.mkdir(parents=True, exist_ok=True)
    for name in PAPER_BENCHMARKS:
        path = target / f"{name}.kiss2"
        save_kiss_file(load_benchmark(name), path)
        print(f"wrote {path}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = resolve_cache(args.cache_dir)
    if cache is None:
        cache = resolve_cache(DEFAULT_CACHE_DIR)
    if args.action == "clear":
        removed = cache.clear()
        print(f"{cache.root}: removed {removed} cached artifact(s)")
        return 0
    # Only what is on disk: degradation and I/O-error counts belong to
    # the process that hit them, never to this one.
    info = cache.describe()
    print(f"cache root : {info['root']}")
    print(f"entries    : {info['entries']}")
    print(f"size       : {info['size_bytes'] / 1024:.1f} KiB")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    _install_faults(args)
    import asyncio

    from repro.service.server import ServerConfig, run_server

    cache = True if not args.no_cache else False
    if args.cache_dir and not args.no_cache:
        cache = args.cache_dir
    config = ServerConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        max_queue=args.max_queue,
        timeout_s=args.timeout,
        cache=cache,
        executor=args.executor,
        max_body_bytes=args.max_body_bytes,
        drain_grace_s=args.drain_grace,
    )
    logger.info(kv("serve_cli", host=args.host, port=args.port))
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(
        host=args.host, port=args.port, timeout_s=args.timeout
    )
    options = {}
    if args.freq:
        options["frequencies_mhz"] = args.freq
    if args.cycles is not None:
        options["num_cycles"] = args.cycles
    try:
        if args.benchmark:
            reply = client.evaluate(benchmark=args.benchmark, **options)
        else:
            if args.file is None:
                raise CliError("provide a .kiss2 file or --benchmark NAME")
            if not Path(args.file).exists():
                raise CliError(f"no such file: {args.file}")
            reply = client.submit_file(args.file, **options)
    except ServiceError as exc:
        raise CliError(
            f"service at {args.host}:{args.port} answered {exc.status or 'n/a'} "
            f"{exc.reason}: {exc.message}"
        )
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0


def _cmd_bench_stats(_args: argparse.Namespace) -> int:
    rows = []
    for name in PAPER_BENCHMARKS:
        st = benchmark_stats(name)
        rows.append([
            name, st.num_states, st.num_inputs, st.num_outputs,
            st.num_transitions, f"{st.dont_care_density:.2f}",
            st.max_state_inputs,
            "moore" if st.is_moore else "mealy",
        ])
    print(format_table(
        ["benchmark", "states", "in", "out", "edges", "dc-density",
         "max care-in", "kind"],
        rows,
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="romfsm",
        description=(
            "ROM-based FSM mapping for FPGA embedded memory blocks "
            "(DATE 2004 reproduction)"
        ),
    )
    parser.add_argument(
        "--log-level", metavar="LEVEL",
        choices=["debug", "info", "warning", "error", "critical"],
        help="structured-log verbosity (default: $REPRO_LOG_LEVEL or warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="regenerate the paper's Tables 1-4")
    p.add_argument("--cycles", type=int, default=2000)
    p.add_argument("--seed", type=int, default=2004)
    p.add_argument("--idle", type=float, default=0.5)
    p.add_argument("--out", help="also write table{1..4}.txt to this dir")
    p.add_argument("--manifest", metavar="FILE",
                   help="write the run manifest (stage timings, cache "
                        "hits/misses) as JSON to this path")
    _add_pipeline_options(p)
    _add_fault_options(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("map", help="map a .kiss2 FSM into block RAM")
    p.add_argument("file", help=".kiss2 file or paper benchmark name")
    p.add_argument("--clock-control", action="store_true")
    p.add_argument("--moore-outputs", default="auto",
                   choices=["auto", "external", "internal"])
    p.add_argument("--force-compaction", action="store_true")
    p.add_argument("--vhdl", help="write synthesizable VHDL to this path")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("eval", help="power-compare both implementations")
    p.add_argument("file", help=".kiss2 file or paper benchmark name")
    p.add_argument("--freq", type=float, nargs="+",
                   default=list(PAPER_FREQUENCIES_MHZ))
    p.add_argument("--cycles", type=int, default=2000)
    p.add_argument("--idle", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=2004)
    p.add_argument("--profile", action="store_true",
                   help="print a per-stage timing table (cache hits/"
                        "misses and seconds) before the power numbers")
    p.add_argument("--tuned", metavar="FRONTIER.json",
                   help="apply a mapper configuration from a stored tune "
                        "frontier artifact (see `romfsm tune --out`)")
    p.add_argument("--tuned-point", type=int, default=None, metavar="N",
                   help="frontier point index to apply (default: the "
                        "minimum-power point)")
    _add_cache_options(p)
    _add_fault_options(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "tune",
        help="search encoding/mapper configurations for the Pareto-"
             "optimal power/area/timing points (deterministic: same "
             "seed gives a byte-identical frontier at any --jobs)",
    )
    p.add_argument("file", help=".kiss2 file or paper benchmark name")
    p.add_argument("--cycles", type=int, default=DEFAULT_TUNE_CYCLES,
                   help=f"tuning stimulus length (default "
                        f"{DEFAULT_TUNE_CYCLES})")
    p.add_argument("--seed", type=int, default=2004)
    p.add_argument("--frequency", type=float, metavar="MHZ",
                   default=DEFAULT_TUNE_FREQUENCY_MHZ,
                   help=f"clock for the power objective (default "
                        f"{DEFAULT_TUNE_FREQUENCY_MHZ:g})")
    p.add_argument("--out", metavar="FILE",
                   help="write the replayable frontier artifact as JSON")
    p.add_argument("--no-prune", action="store_true",
                   help="evaluate the whole deduped grid instead of "
                        "bound-pruning dominated regions (same frontier, "
                        "slower; the brute-force reference)")
    _add_pipeline_options(p)
    _add_fault_options(p)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser(
        "eco",
        help="absorb a ROM-only FSM edit by patching the memory image "
             "(no re-synthesis) and re-evaluating incrementally",
    )
    p.add_argument("file", help=".kiss2 file or paper benchmark name (the "
                                "machine as currently deployed)")
    p.add_argument("--edits", metavar="FILE",
                   help="JSON edit script: a list of objects with 'state', "
                        "'input', and either 'next'+'outputs' or 'remove'")
    p.add_argument("--new", metavar="FILE",
                   help="the complete edited machine as a .kiss2 file "
                        "(alternative to --edits)")
    p.add_argument("--old-fingerprint", metavar="FP",
                   help="rom-map fingerprint the edit targets; mismatching "
                        "deployments fail instead of silently re-mapping")
    p.add_argument("--freq", type=float, nargs="+",
                   default=list(PAPER_FREQUENCIES_MHZ))
    p.add_argument("--cycles", type=int, default=2000)
    p.add_argument("--seed", type=int, default=2004)
    p.add_argument("--profile", action="store_true",
                   help="print the per-stage timing table (warm parse/"
                        "rom-map stages show as cache hits)")
    p.add_argument("--json", metavar="FILE",
                   help="also write the result summary as JSON")
    _add_cache_options(p)
    _add_fault_options(p)
    p.set_defaults(func=_cmd_eco)

    p = sub.add_parser(
        "cache", help="inspect or clear the content-addressed artifact cache"
    )
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument("--cache-dir", metavar="DIR",
                   help="cache directory (default: $REPRO_CACHE_DIR, "
                        "else ~/.cache/romfsm)")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "serve",
        help="run the async compilation service (coalescing, admission "
             "control, /metrics, /healthz, graceful drain)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000)
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="worker processes for pipeline execution (default 2)")
    p.add_argument("--max-queue", type=int, default=32, metavar="Q",
                   help="jobs allowed to wait for a worker before new "
                        "requests get 429 overloaded (default 32)")
    p.add_argument("--timeout", type=float, default=120.0, metavar="S",
                   help="per-request budget in seconds (default 120)")
    p.add_argument("--executor", default="process",
                   choices=["process", "thread"],
                   help="where pipeline work runs (default process)")
    p.add_argument("--max-body-bytes", type=int, default=1024 * 1024,
                   metavar="B", help="reject larger request bodies with 413")
    p.add_argument("--drain-grace", type=float, default=30.0, metavar="S",
                   help="seconds to let in-flight work finish on SIGTERM")
    _add_cache_options(p)
    _add_fault_options(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit", help="send one evaluate request to a running server"
    )
    p.add_argument("file", nargs="?", help=".kiss2 file to upload")
    p.add_argument("--benchmark", metavar="NAME",
                   help="evaluate a named paper benchmark instead of a file")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000)
    p.add_argument("--timeout", type=float, default=300.0, metavar="S")
    p.add_argument("--freq", type=float, nargs="+", metavar="MHZ")
    p.add_argument("--cycles", type=int, metavar="N")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("bench-stats", help="print benchmark STG statistics")
    p.set_defaults(func=_cmd_bench_stats)

    p = sub.add_parser(
        "dump-bench",
        help="write the regenerated benchmark suite as .kiss2 files",
    )
    p.add_argument("dir", help="target directory")
    p.set_defaults(func=_cmd_dump_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    logger.debug(kv("command", name=args.command))
    try:
        return args.func(args)
    except CliError as exc:
        print(f"romfsm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
