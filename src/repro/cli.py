"""Command-line interface.

Examples::

    # One run
    repro-rrm run --workload GemsFDTD --scheme rrm

    # A scheme comparison on one workload
    repro-rrm compare --workload GemsFDTD

    # Regenerate the write-mode table (paper Table I)
    repro-rrm table1

    # Region write-interval histogram (paper Table III)
    repro-rrm table3 --workload GemsFDTD

    # RRM storage-overhead table (paper Table VIII)
    repro-rrm table8

    # Trace a run (Chrome-trace JSON, loadable in Perfetto / chrome://tracing)
    repro-rrm run --workload GemsFDTD --trace out.json --metrics-interval 1ms

    # Inspect a recorded trace, or diff two
    repro-rrm trace out.json
    repro-rrm trace diff before.json after.json

    # Latency anatomy: where did each request's time go?
    repro-rrm explain --workload GemsFDTD --scheme rrm --top 5
    repro-rrm explain --config tiny --json anatomy.json

    # Performance observability: pinned suite (writes BENCH_core.json), dashboard
    repro-rrm obs bench --ledger obs-ledger.jsonl
    repro-rrm obs dashboard --ledger obs-ledger.jsonl --out obs-dashboard.html

    # Parallel sweeps on worker processes (bit-identical to --jobs 1)
    repro-rrm sweep --config tiny --jobs 4 --journal sweep.jsonl

    # Sweep observability: a final metrics snapshot and crash flight recorders
    repro-rrm sweep --config tiny --jobs 4 --journal sweep.jsonl \\
        --metrics-out metrics.prom --flight-dir sweep.flight

    # Exact counts: engine dispatches per owner, cProfile calls per function
    repro-rrm profile run --config tiny --workload hmmer --out prof.json
    repro-rrm profile report prof.json
    repro-rrm profile diff before.json after.json --check
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.analysis.regions import RegionIntervalAnalyzer
from repro.attribution import format_report
from repro.analysis.report import (
    failure_report,
    format_table,
    lifetime_report,
    performance_report,
)
from repro.core.config import RRMConfig
from repro.errors import ConfigError, ReproError, TraceFormatError
from repro.lint import render_json, render_text, run_lint
from repro.obs import (
    KIND_RUN,
    LedgerEntry,
    RunLedger,
    RunProgress,
    SweepProgress,
    render_dashboard,
    run_core_suite,
)
from repro.resilience import FaultPlan, RetryPolicy
from repro.pcm.write_modes import WriteModeTable
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.schemes import Scheme, all_schemes, scheme_from_name
from repro.sim.system import System
from repro.telemetry import (
    TelemetryConfig,
    Tracer,
    diff_summaries,
    format_summary,
    format_trace_diff,
    load_trace,
    summarize_trace,
    validate_chrome_trace,
)
from repro.utils.persist import atomic_write_text, save_json
from repro.utils.units import format_bytes, parse_duration, parse_size
from repro.workloads.mixes import all_workload_names


def _config_from_args(args) -> SystemConfig:
    if args.config == "paper":
        config = SystemConfig.paper(seed=args.seed)
    elif args.config == "tiny":
        config = SystemConfig.tiny(seed=args.seed)
    else:
        config = SystemConfig.scaled(seed=args.seed)
    if args.duration is not None:
        config = config.with_duration(args.duration)
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        choices=["scaled", "paper", "tiny"],
        default="scaled",
        help="stock system configuration (default: scaled)",
    )
    parser.add_argument("--seed", type=int, default=1, help="simulation seed")
    parser.add_argument(
        "--duration", type=float, default=None, help="override duration (seconds)"
    )


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "telemetry",
        "event tracing and periodic metric sampling; off by default "
        "(zero overhead) and deterministic when on — a traced run "
        "produces the same results as an untraced one",
    )
    group.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a Chrome-trace JSON file (Perfetto / chrome://tracing)",
    )
    group.add_argument(
        "--metrics-interval",
        default=None,
        metavar="DURATION",
        help="period of metric-snapshot counter events, e.g. 1ms, 250us "
        "(simulated time; default 1ms when tracing)",
    )
    group.add_argument(
        "--trace-ring-size",
        type=int,
        default=None,
        metavar="N",
        help="keep only the newest N trace events (default: keep all)",
    )
    group.add_argument(
        "--attribution",
        action="store_true",
        help="build per-request latency anatomies; annotates trace "
        "spans and contributes attr_* ledger metrics (see "
        "'repro-rrm explain' for the report form)",
    )


def _telemetry_from_args(args) -> Optional[TelemetryConfig]:
    """A TelemetryConfig when any telemetry flag was given, else None.

    ``--trace`` alone implies periodic metric sampling at 1ms so the
    exported trace carries counter tracks, not just spans.
    ``--attribution`` alone keeps the tracer off — anatomies are built
    without paying for event recording. ``--trace-ring-size`` without
    tracing would bound nothing, so it is refused.
    """
    tracing = bool(getattr(args, "trace", None)) or args.metrics_interval is not None
    if args.trace_ring_size is not None and not tracing:
        raise ConfigError("--trace-ring-size needs --trace or --metrics-interval")
    attribution = bool(getattr(args, "attribution", False))
    if not tracing and not attribution:
        return None
    interval = args.metrics_interval
    if interval is None and tracing:
        interval = "1ms"
    return TelemetryConfig(
        ring_size=args.trace_ring_size,
        metrics_interval_s=parse_duration(interval) if interval else None,
        trace=tracing,
        attribution=attribution,
    )


def cmd_run(args) -> int:
    config = _config_from_args(args)
    scheme = scheme_from_name(args.scheme)
    telemetry = _telemetry_from_args(args)
    system = System(config, args.workload, scheme, telemetry=telemetry)
    progress = None
    if args.progress:
        progress = RunProgress(system)
        progress.register_metrics(system.telemetry.registry)
        progress.attach()
    try:
        result = system.run()
    finally:
        if progress is not None:
            progress.close()
    if args.ledger:
        entry = LedgerEntry.from_result(result, config, kind=KIND_RUN)
        RunLedger(args.ledger).append(entry)
        print(f"ledger entry appended to {args.ledger}", file=sys.stderr)
    print(result.summary())
    if args.verbose:
        for key, value in sorted(result.as_dict().items()):
            print(f"  {key:28s} {value}")
    if result.attribution:
        share = result.attribution.get("read_refresh_share", 0.0)
        print(
            f"attribution: {100 * share:.2f}% of read latency blamed on "
            "refreshes ('repro-rrm explain' prints the full anatomy)",
            file=sys.stderr,
        )
    if args.trace:
        tracer = system.telemetry.tracer
        tracer.export(args.trace)
        print(
            f"trace written to {args.trace} "
            f"({len(tracer.events())} events, {tracer.dropped} dropped)",
            file=sys.stderr,
        )
    return 0


def cmd_compare(args) -> int:
    config = _config_from_args(args)
    schemes = (
        [scheme_from_name(s) for s in args.schemes] if args.schemes else all_schemes()
    )
    runner = ExperimentRunner(config, workloads=[args.workload], schemes=schemes)
    runner.run_all(
        progress=lambda w, s, r: print(f"  done: {w} / {s.value}", file=sys.stderr)
    )
    print(performance_report(runner, schemes))
    print()
    print(lifetime_report(runner, schemes))
    return 0


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    workloads = args.workloads or all_workload_names(config.n_cores)
    schemes = (
        [scheme_from_name(s) for s in args.schemes] if args.schemes else all_schemes()
    )
    fault_plan = FaultPlan.parse(args.inject_faults) if args.inject_faults else None
    if fault_plan:
        print(
            f"  fault injection armed: {', '.join(args.inject_faults)}",
            file=sys.stderr,
        )
    # A sweep spans processes, so its timeline is wall-clock, not sim time.
    tracer = Tracer.wallclock() if args.trace else None
    reporter = (
        SweepProgress(len(workloads) * len(schemes)) if args.progress else None
    )
    flight_dir = args.flight_dir
    if flight_dir is None and args.journal:
        # A journalled sweep that runs on workers gets flight recorders
        # by default so injected/real crashes stay explainable from the
        # journal alone.
        flight_dir = f"{args.journal}.flight"
    runner = ExperimentRunner(
        config,
        workloads=workloads,
        schemes=schemes,
        n_jobs=args.jobs,
        timeout_s=args.timeout,
        retry=RetryPolicy(max_retries=args.retries),
        journal_path=args.journal,
        ledger_path=args.ledger,
        fault_plan=fault_plan,
        recorder_dir=flight_dir,
        on_event=reporter.on_event if reporter is not None else None,
        **({"tracer": tracer} if tracer is not None else {}),
    )
    progress = lambda w, s, r: print(f"  done: {w} / {s.value}", file=sys.stderr)  # noqa: E731
    if reporter is not None:
        progress = None  # the single-line reporter replaces per-job lines
    try:
        if args.resume:
            if not args.journal:
                raise ConfigError("--resume requires --journal")
            runner.resume(progress=progress)
        else:
            runner.run_all(progress=progress)
    finally:
        if reporter is not None:
            reporter.close()
    if args.ledger:
        print(f"ledger entries appended to {args.ledger}", file=sys.stderr)
    stats = runner.stats
    if stats is not None:
        print(
            f"sweep: {stats.n_workers} workers, "
            f"{stats.jobs_completed} ok / {stats.jobs_failed} failed, "
            f"{stats.retries} retries, {stats.respawns} respawns, "
            f"utilization {100 * stats.utilization:.0f}%, "
            f"wall {stats.wall_s:.1f}s",
            file=sys.stderr,
        )
    if args.metrics_out:
        from repro.obs.exposition import render_exposition
        from repro.telemetry import MetricRegistry

        registry = MetricRegistry()
        if stats is not None:
            stats.register_metrics(registry)
        atomic_write_text(Path(args.metrics_out), render_exposition(registry))
        print(f"metrics snapshot written to {args.metrics_out}", file=sys.stderr)
    print(performance_report(runner, schemes))
    print()
    print(lifetime_report(runner, schemes))
    if runner.failures:
        print()
        print(failure_report(runner))
    if args.output:
        runner.save_json(args.output)
        print(f"\nresults written to {args.output}")
    if tracer is not None:
        tracer.export(args.trace)
        print(f"sweep trace written to {args.trace}", file=sys.stderr)
    # Degraded completion (some cells failed) still exits 0 — the sweep
    # finished and reported; only a sweep with zero results is an error.
    return 0 if runner.results else 1


def cmd_profile_run(args) -> int:
    """Count one simulation: the engine's dispatches per event owner, and
    cProfile's calls per function of ``System.run``. Both repeat exactly
    from run to run; the run's results are bit-identical to an
    unprofiled run.
    """
    import platform

    from repro.profiling import Profile, count_calls, format_profile

    config = _config_from_args(args)
    scheme = scheme_from_name(args.scheme)
    result = System(
        config,
        args.workload,
        scheme,
        telemetry=TelemetryConfig(profile=True, trace=False),
    ).run()
    prof = Profile.from_json_dict(result.profile or {})
    # The calls come from a second, uninstrumented run of the same cell,
    # so the dispatch accounting's own calls stay out of them.
    _, prof.ncalls = count_calls(System(config, args.workload, scheme).run)
    prof.meta.update(
        config=args.config, seed=args.seed, python=platform.python_version()
    )
    prof.save(args.out)
    print(f"profile written to {args.out}", file=sys.stderr)
    if args.ledger:
        entry = LedgerEntry.from_result(result, config, kind=KIND_RUN)
        RunLedger(args.ledger).append(entry)
        print(f"ledger entry appended to {args.ledger}", file=sys.stderr)
    print(format_profile(prof, top=args.top))
    return 0


def cmd_profile_report(args) -> int:
    """Render a saved profile artifact."""
    from repro.profiling import format_profile, load_profile

    print(format_profile(load_profile(args.file), top=args.top))
    return 0


def cmd_profile_diff(args) -> int:
    """Compare two profile artifacts count by count; --check turns any
    difference into exit 1."""
    from repro.profiling import diff_profiles, format_diff, load_profile

    before = load_profile(args.a)
    after = load_profile(args.b)
    print(format_diff(before, after))
    if args.check and diff_profiles(before, after):
        return 1
    return 0


def cmd_sensitivity(args) -> int:
    from repro.sim.sweeps import (
        coverage_sweep,
        entry_size_sweep,
        hot_threshold_sweep,
        sweep_table,
    )

    config = _config_from_args(args)
    workloads = args.workloads or ["GemsFDTD"]
    progress = lambda label, w: print(f"  done: {label} / {w}", file=sys.stderr)  # noqa: E731

    if args.parameter == "threshold":
        points = hot_threshold_sweep(config, workloads, progress=progress)
        title = "hot_threshold sweep (paper Fig. 11)"
    elif args.parameter == "coverage":
        points = coverage_sweep(config, workloads, progress=progress)
        title = "LLC coverage sweep (paper Fig. 12)"
    else:
        points = entry_size_sweep(config, workloads, progress=progress)
        title = "entry coverage size sweep (paper Fig. 13)"

    print(
        format_table(
            ["variant", "speedup vs S7", "lifetime (y)", "fast writes"],
            sweep_table(points),
            title=f"{title}, geomean over {', '.join(workloads)}",
        )
    )
    return 0


def cmd_table1(args) -> int:
    table = WriteModeTable()
    rows = [
        [m.name, f"{m.set_current_ua:.0f}", m.normalized_energy,
         f"{m.retention_s:.1f}" if m.retention_s > 100 else f"{m.retention_s:.2f}",
         f"{m.latency_ns:.0f}"]
        for m in reversed(list(table))
    ]
    print(
        format_table(
            ["Write Type", "Current (uA)", "N. Energy", "Retention (s)", "Latency (ns)"],
            rows,
            title="Table I: write latency and retention per SET count",
        )
    )
    return 0


def cmd_table3(args) -> int:
    config = _config_from_args(args)
    analyzer = RegionIntervalAnalyzer(
        drift_scale=config.drift_scale,
        total_regions=config.memory.size_bytes // 4096,
    )
    system = System(
        config,
        args.workload,
        Scheme.STATIC_7,
        write_trace_sink=lambda t, b: analyzer.record(t, b),
    )
    system.run()
    rows = [
        [row.label, row.regions, f"{row.region_pct:.1f}%", row.writes,
         f"{row.write_pct:.2f}%"]
        for row in analyzer.histogram()
    ]
    print(
        format_table(
            ["Average Write Interval", "# Regions", "% Regions", "# Writes", "% Writes"],
            rows,
            title=f"Table III: region write behaviour, {args.workload}",
        )
    )
    return 0


def _read_trace(path, top: int):
    """Load, validate and summarise one trace file: ``(summary,
    problems)``."""
    events = load_trace(path)
    if not events:
        # An empty trace is an empty recording, not a summary of zero:
        # the tracer always emits metadata, so nothing at all means a
        # truncated or never-started capture.
        raise TraceFormatError(f"{path}: trace contains no events")
    problems = validate_chrome_trace(events)
    return summarize_trace(events, top_spans=top), problems


def _print_problems(path, problems) -> None:
    if problems:
        print(
            f"\n{path}: {len(problems)} validation problem(s):",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)


def cmd_trace(args) -> int:
    """Summarise/validate one trace file, or diff two (``trace diff A B``)."""
    files = args.file
    if files and files[0] == "diff":
        if len(files) != 3:
            raise ConfigError("usage: repro-rrm trace diff A B")
        if args.check:
            raise ConfigError(
                "--check validates one trace; trace diff does not take it"
            )
        path_a, path_b = files[1:]
        summary_a, problems_a = _read_trace(path_a, args.top)
        summary_b, problems_b = _read_trace(path_b, args.top)
        diff = diff_summaries(summary_a, summary_b)
        print(format_trace_diff(diff, top=args.top))
        if args.json:
            import dataclasses as _dc

            save_json(args.json, _dc.asdict(diff))
            print(f"diff written to {args.json}", file=sys.stderr)
        _print_problems(path_a, problems_a)
        _print_problems(path_b, problems_b)
        return 0
    if len(files) != 1:
        raise ConfigError("usage: repro-rrm trace FILE  (or: trace diff A B)")
    summary, problems = _read_trace(files[0], args.top)
    print(format_summary(summary))
    if args.json:
        save_json(args.json, summary.to_json_dict())
        print(f"summary written to {args.json}", file=sys.stderr)
    _print_problems(files[0], problems)
    if args.check:
        return 1 if problems else 0
    return 0


def cmd_explain(args) -> int:
    """Run one workload with latency attribution and explain where the
    time went: per-request anatomies for the slowest requests, the
    victim x blocker blamed-time matrix, and the per-bank interference
    heatmap. Exit codes: 0 report printed, 2 usage/configuration error.
    """
    config = _config_from_args(args)
    scheme = scheme_from_name(args.scheme)
    system = System(
        config,
        args.workload,
        scheme,
        telemetry=TelemetryConfig(attribution=True, trace=False),
    )
    system.run()
    report = system.attribution_report()
    print(
        format_report(
            report,
            top=args.top,
            header=f"{args.workload} / {scheme.value}",
        )
    )
    if args.json:
        save_json(args.json, report.to_json_dict())
        print(f"anatomy written to {args.json}", file=sys.stderr)
    return 0


def cmd_lint(args) -> int:
    """Run the simulator-invariant static analyzer (repro.lint).

    Exit codes follow the CLI convention: 0 clean, 1 any finding, 2 usage
    or internal error.
    """
    report = run_lint(paths=args.paths or None)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code()


def cmd_table8(args) -> int:
    llc = parse_size(args.llc)
    base = RRMConfig()
    rows = []
    for rate in (2, 4, 8, 16):
        cfg = base.with_coverage_rate(llc, rate)
        label = f"{rate}x" + (" (default)" if rate == 4 else "")
        rows.append(
            [label, f"{cfg.n_sets} sets, {cfg.n_ways} ways",
             format_bytes(cfg.storage_bytes),
             f"{100 * cfg.storage_bytes / llc:.2f}% of LLC"]
        )
    print(
        format_table(
            ["LLC Coverage", "Configuration", "Overhead", "Relative"],
            rows,
            title="Table VIII: RRM configuration per LLC coverage",
        )
    )
    return 0


def cmd_obs_bench(args) -> int:
    """Run the pinned core micro-benchmark suite and record it."""
    outcome = run_core_suite(
        ledger_path=args.ledger,
        bench_json_path=args.bench_json,
        progress=lambda line: print(line, file=sys.stderr),
    )
    for entry in outcome.entries:
        ipc = entry.metrics.get("ipc")
        wall = entry.metrics.get("wall_time_s")
        print(
            f"  {entry.name:<32} ipc={ipc:.4f}  wall={wall:.2f}s"
            if ipc is not None and wall is not None
            else f"  {entry.name}"
        )
    if outcome.ledger_path:
        print(f"ledger: {outcome.ledger_path}", file=sys.stderr)
    if outcome.bench_json_path:
        print(f"summary: {outcome.bench_json_path}", file=sys.stderr)
    return 0


def cmd_obs_dashboard(args) -> int:
    """Render the offline HTML dashboard from a ledger."""
    entries = RunLedger.load(args.ledger)
    html_text = render_dashboard(
        entries,
        title=args.title,
        metrics=args.metrics or None,
        max_points=args.max_points,
    )
    atomic_write_text(args.out, html_text)
    print(f"dashboard written to {args.out} ({len(entries)} entries)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rrm",
        description="Region Retention Monitor for MLC PCM (HPCA 2017 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one workload under one scheme")
    _add_common(p_run)
    p_run.add_argument("--workload", default="GemsFDTD")
    p_run.add_argument("--scheme", default="rrm")
    p_run.add_argument("--verbose", action="store_true")
    p_run.add_argument(
        "--progress",
        action="store_true",
        help="live single-line progress (sim-time %%, events/s, ETA, "
        "queue depths); does not change results",
    )
    p_run.add_argument(
        "--ledger",
        default=None,
        metavar="FILE",
        help="append this run's metrics + environment fingerprint to a "
        "JSONL run ledger (see 'repro-rrm obs')",
    )
    _add_telemetry(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare schemes on one workload")
    _add_common(p_cmp)
    p_cmp.add_argument("--workload", default="GemsFDTD")
    p_cmp.add_argument("--schemes", nargs="*", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="full workloads x schemes sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--workloads", nargs="*", default=None)
    p_sweep.add_argument("--schemes", nargs="*", default=None)
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run the sweep's cells on N worker processes, each fed "
        "one cell at a time; results are bit-identical to --jobs 1. "
        "With --jobs 1 the sweep runs in-process unless --timeout "
        "or --inject-faults asks for a worker "
        "(composes with --journal/--resume)",
    )
    p_sweep.add_argument("--output", default=None, help="JSON output path")
    p_sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock timeout in seconds (default: none)",
    )
    p_sweep.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retries per failed job before it is recorded as failed",
    )
    p_sweep.add_argument(
        "--journal",
        default=None,
        help="JSONL checkpoint journal; completed jobs are appended "
        "atomically so an interrupted sweep can be resumed",
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="resume from --journal, re-running only missing/failed jobs",
    )
    p_sweep.add_argument(
        "--inject-faults",
        nargs="*",
        default=None,
        metavar="KIND:TARGET[:MAX_FIRES]",
        help="fault-injection drill: crash/hang/error/corrupt a job by "
        "index or workload/scheme (e.g. crash:1, hang:GemsFDTD/rrm, "
        "crash:0:1 for first-attempt-only)",
    )
    p_sweep.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a wall-clock orchestration trace (job attempts, "
        "retries, failures, journal appends) in Chrome-trace format",
    )
    p_sweep.add_argument(
        "--progress",
        action="store_true",
        help="live single-line sweep progress (settled/failed/retries/ETA)",
    )
    p_sweep.add_argument(
        "--ledger",
        default=None,
        metavar="FILE",
        help="append every completed cell's metrics to a JSONL run ledger",
    )
    p_sweep.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a Prometheus text-format snapshot of the sweep's "
        "counters (fabric.* gauges) after the sweep settles",
    )
    p_sweep.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="per-worker crash flight-recorder directory for sweeps that "
        "run on worker processes (default: <journal>.flight when "
        "--journal is given)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_prof = sub.add_parser(
        "profile",
        help="exact host-side counts: a run's engine dispatches per event "
        "owner and cProfile calls per function; report and diff them",
    )
    prof_sub = p_prof.add_subparsers(dest="profile_command", required=True)

    p_prof_run = prof_sub.add_parser(
        "run",
        help="run one workload with dispatch accounting on, count its "
        "calls under cProfile, and write the profile artifact",
    )
    _add_common(p_prof_run)
    p_prof_run.add_argument("--workload", default="GemsFDTD")
    p_prof_run.add_argument("--scheme", default="rrm")
    p_prof_run.add_argument(
        "--out",
        default="profile.json",
        metavar="FILE",
        help="profile artifact to write (default: profile.json)",
    )
    p_prof_run.add_argument(
        "--ledger",
        default=None,
        metavar="FILE",
        help="append the run (with prof_dispatch_* metrics) to a run ledger",
    )
    p_prof_run.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="dispatch owners and functions to list (default: 15)",
    )
    p_prof_run.set_defaults(func=cmd_profile_run)

    p_prof_rep = prof_sub.add_parser(
        "report", help="render a saved profile artifact"
    )
    p_prof_rep.add_argument("file", help="profile artifact (JSON)")
    p_prof_rep.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="dispatch owners and functions to list (default: 15)",
    )
    p_prof_rep.set_defaults(func=cmd_profile_report)

    p_prof_diff = prof_sub.add_parser(
        "diff",
        help="compare two profile artifacts count by count "
        "(dispatches per owner, calls per function)",
    )
    p_prof_diff.add_argument("a", help="baseline profile artifact")
    p_prof_diff.add_argument("b", help="candidate profile artifact")
    p_prof_diff.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any count differs",
    )
    p_prof_diff.set_defaults(func=cmd_profile_diff)

    p_sens = sub.add_parser(
        "sensitivity", help="RRM sensitivity sweeps (paper Figs. 11-13)"
    )
    _add_common(p_sens)
    p_sens.add_argument(
        "--parameter",
        choices=["threshold", "coverage", "entry-size"],
        default="threshold",
    )
    p_sens.add_argument("--workloads", nargs="*", default=None)
    p_sens.set_defaults(func=cmd_sensitivity)

    p_t1 = sub.add_parser("table1", help="regenerate paper Table I")
    p_t1.set_defaults(func=cmd_table1)

    p_t3 = sub.add_parser("table3", help="region write-interval histogram")
    _add_common(p_t3)
    p_t3.add_argument("--workload", default="GemsFDTD")
    p_t3.set_defaults(func=cmd_table3)

    p_t8 = sub.add_parser("table8", help="RRM storage-overhead table")
    p_t8.add_argument("--llc", default="6MB")
    p_t8.set_defaults(func=cmd_table8)

    p_lint = sub.add_parser(
        "lint",
        help="static simulator/orchestration-invariant analysis "
        "(rules RL001, RL004-RL006, RL008, RL011, RL012); any finding "
        "exits 1",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to lint (default: src/repro)",
    )
    p_lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_trace = sub.add_parser(
        "trace", help="summarise, validate, or diff recorded trace files"
    )
    p_trace.add_argument(
        "file",
        nargs="+",
        help="Chrome-trace JSON file, or 'diff A B' to report "
        "span-level deltas between two traces",
    )
    p_trace.add_argument(
        "--top",
        type=int,
        default=10,
        help="longest spans / largest deltas to list (default: 10)",
    )
    p_trace.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if the file fails Chrome-trace validation",
    )
    p_trace.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write the summary (or diff) as JSON",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_explain = sub.add_parser(
        "explain",
        help="latency anatomy: run with per-request causal attribution "
        "and report where read/write time went (queue blame by blocker "
        "class, pause preemption, row-miss penalty, per-bank heatmap)",
    )
    _add_common(p_explain)
    p_explain.add_argument("--workload", default="GemsFDTD")
    p_explain.add_argument("--scheme", default="rrm")
    p_explain.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="slowest requests to dissect in full (default: 5)",
    )
    p_explain.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write the full report (matrix, per-bank blame, "
        "slowest anatomies, region hot list) as JSON",
    )
    p_explain.set_defaults(func=cmd_explain)

    p_obs = sub.add_parser(
        "obs",
        help="performance observability: pinned suite, run ledger, "
        "dashboard",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_bench = obs_sub.add_parser(
        "bench", help="run the pinned core micro-benchmark suite"
    )
    p_bench.add_argument(
        "--ledger",
        default="obs-ledger.jsonl",
        metavar="FILE",
        help="run ledger to append to (default: obs-ledger.jsonl)",
    )
    p_bench.add_argument(
        "--bench-json",
        default="BENCH_core.json",
        metavar="FILE",
        help="suite summary output (default: BENCH_core.json)",
    )
    p_bench.set_defaults(func=cmd_obs_bench)

    p_dash = obs_sub.add_parser(
        "dashboard",
        help="render the self-contained offline HTML dashboard",
    )
    p_dash.add_argument(
        "--ledger",
        default="obs-ledger.jsonl",
        metavar="FILE",
        help="run ledger to read (default: obs-ledger.jsonl)",
    )
    p_dash.add_argument(
        "--out",
        default="obs-dashboard.html",
        metavar="FILE",
        help="output HTML file (default: obs-dashboard.html)",
    )
    p_dash.add_argument(
        "--metrics",
        nargs="*",
        default=None,
        help="metrics to plot (default: a stock headline set)",
    )
    p_dash.add_argument(
        "--max-points",
        type=int,
        default=60,
        metavar="N",
        help="sparkline history cap per metric (default: 60)",
    )
    p_dash.add_argument(
        "--title", default="repro-rrm performance observability"
    )
    p_dash.set_defaults(func=cmd_obs_dashboard)

    return parser


def _check_limits(args) -> None:
    """Refuse a negative ``--top`` and a ``--max-points`` below 1: the
    list slices they feed would count from the other end."""
    top = getattr(args, "top", None)
    if top is not None and top < 0:
        raise ConfigError(f"--top must be >= 0, got {top}")
    max_points = getattr(args, "max_points", None)
    if max_points is not None and max_points < 1:
        raise ConfigError(f"--max-points must be >= 1, got {max_points}")


def main(argv: Optional[List[str]] = None) -> int:
    """Parse *argv* and run the command; a :class:`ReproError` (a usage,
    configuration or input problem) or a missing input file prints one
    ``error:`` line and exits 2."""
    args = build_parser().parse_args(argv)
    try:
        _check_limits(args)
        return args.func(args)
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
