"""Continuous performance observability.

The longitudinal layer over the simulator's per-run telemetry: a durable
:class:`RunLedger` of fingerprinted metric snapshots, span-level trace
diffing, live progress reporters, the pinned core benchmark suite (whose
``BENCH_core.json`` is checked by byte equality), and the offline HTML
dashboard. Everything here is *reporting-side* — attaching any of it to
a run must not change the run's :class:`~repro.sim.metrics.SimResult`.
"""

from repro.obs.benchsuite import (
    CORE_SUITE,
    SuiteOutcome,
    cell_name,
    core_config,
    run_core_suite,
    write_bench_json,
)
from repro.obs.dashboard import render_dashboard
from repro.obs.ledger import (
    KIND_BENCH,
    KIND_RUN,
    KIND_SWEEP,
    LEDGER_SCHEMA,
    LedgerEntry,
    RunLedger,
    config_hash,
    entries_by_name,
    environment_fingerprint,
    git_revision,
    metric_series,
)
from repro.obs.progress import RunProgress, SweepProgress
from repro.obs.tracediff import (
    SpanDelta,
    SpanStats,
    TraceDiff,
    diff_traces,
    format_trace_diff,
    span_stats,
)

__all__ = [
    "CORE_SUITE",
    "KIND_BENCH",
    "KIND_RUN",
    "KIND_SWEEP",
    "LEDGER_SCHEMA",
    "LedgerEntry",
    "RunLedger",
    "RunProgress",
    "SpanDelta",
    "SpanStats",
    "SuiteOutcome",
    "SweepProgress",
    "TraceDiff",
    "cell_name",
    "config_hash",
    "core_config",
    "diff_traces",
    "entries_by_name",
    "environment_fingerprint",
    "format_trace_diff",
    "git_revision",
    "metric_series",
    "render_dashboard",
    "run_core_suite",
    "span_stats",
    "write_bench_json",
]
