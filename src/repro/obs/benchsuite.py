"""The pinned micro-benchmark suite behind ``repro-rrm obs bench``.

A small, fixed matrix of (workload, scheme) cells on the tiny
configuration with a pinned seed — deliberately cheap (~1 s per cell)
so it runs on every CI push. Each cell's :class:`~repro.sim.metrics.SimResult`
becomes a ``kind="bench"`` ledger entry named ``core/<workload>/<scheme>``,
and the whole suite is summarised into a repo-root ``BENCH_core.json``
so the latest numbers are diffable in review without opening the ledger.

The simulation metrics are deterministic per seed, which is what makes
the *committed* ``BENCH_core.json`` an exact check: any metric
drift on an unchanged configuration is a code change, not noise. The
host-dependent metrics (wall time, throughput, sampled shares, memory)
stay in the ledger and out of that file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.obs.ledger import KIND_BENCH, LedgerEntry, RunLedger
from repro.sim.config import SystemConfig
from repro.sim.runner import run_workload
from repro.sim.schemes import Scheme
from repro.telemetry import TelemetryConfig
from repro.utils.persist import save_json

BENCH_SCHEMA = 1
SUITE_NAME = "core"

#: The pinned cells. Keep this list stable — BENCH_core.json and the
#: ledger history are both keyed by these names.
CORE_SUITE: Tuple[Tuple[str, Scheme], ...] = (
    ("hmmer", Scheme.STATIC_7),
    ("hmmer", Scheme.RRM),
    ("GemsFDTD", Scheme.STATIC_7),
    ("GemsFDTD", Scheme.RRM),
)

CORE_SEED = 1


def cell_name(workload: str, scheme: Scheme) -> str:
    return f"{SUITE_NAME}/{workload}/{scheme.value}"


def core_config(seed: int = CORE_SEED) -> SystemConfig:
    """The suite's pinned configuration (tiny, fixed seed)."""
    return SystemConfig.tiny(seed=seed)


def core_telemetry() -> TelemetryConfig:
    """The suite's telemetry: attribution and dispatch counts on, tracing off.

    Attribution and profiling are both observational (a run with either
    is bit-identical to one without), so turning them on here costs
    nothing in determinism while making refresh-interference share
    (``attr_read_refresh_share``) and the per-subsystem dispatch counts
    (``prof_dispatch_*``) pinned suite metrics.
    """
    return TelemetryConfig(attribution=True, trace=False, profile=True)


@dataclass
class SuiteOutcome:
    """What one suite run produced and where it was recorded."""

    entries: List[LedgerEntry]
    ledger_path: Optional[Path] = None
    bench_json_path: Optional[Path] = None


def run_core_suite(
    *,
    ledger_path=None,
    bench_json_path=None,
    progress: Optional[Callable[[str], None]] = None,
    runner: Callable[..., object] = run_workload,
) -> SuiteOutcome:
    """Run every pinned cell and record the results.

    Args:
        ledger_path: append each cell to this run ledger.
        bench_json_path: write the suite summary (``BENCH_core.json``).
        progress: optional per-cell status callback (the CLI prints it).
        runner: the cell executor, injectable so tests can fake the
            ~1 s/cell simulation.
    """
    config = core_config()
    ledger = RunLedger(ledger_path) if ledger_path else None
    entries: List[LedgerEntry] = []
    for i, (workload, scheme) in enumerate(CORE_SUITE, start=1):
        if progress:
            progress(
                f"[{i}/{len(CORE_SUITE)}] {workload}/{scheme.value} ..."
            )
        result = runner(config, workload, scheme, telemetry=core_telemetry())
        entry = LedgerEntry.from_result(
            result,
            config,
            kind=KIND_BENCH,
            name=cell_name(workload, scheme),
        )
        if ledger is not None:
            ledger.append(entry)
        entries.append(entry)
    outcome = SuiteOutcome(
        entries=entries,
        ledger_path=Path(ledger_path) if ledger_path else None,
    )
    if bench_json_path:
        outcome.bench_json_path = write_bench_json(bench_json_path, entries)
    return outcome


def _is_host_dependent(metric: str) -> bool:
    """Metrics that legitimately differ between two runs of the same code.

    Wall time and the throughput derived from it move with the host; the
    deterministic ``sim_events`` count and the per-subsystem
    ``prof_dispatch_*`` dispatch counts (a pure function of the
    simulated run) stay pinned.
    """
    return metric in ("wall_time_s", "sim_events_per_sec")


def write_bench_json(path, entries: List[LedgerEntry]) -> Path:
    """Write the repo-root suite summary (``BENCH_core.json``).

    Host-dependent metrics (see :func:`_is_host_dependent`) are excluded
    so the committed file only changes when the simulation itself
    changes.
    """
    path = Path(path)
    payload = {
        "schema": BENCH_SCHEMA,
        "suite": SUITE_NAME,
        "config": "tiny",
        "seed": CORE_SEED,
        "results": [
            {
                "name": entry.name,
                "metrics": {
                    k: v
                    for k, v in sorted(entry.metrics.items())
                    if not _is_host_dependent(k)
                },
            }
            for entry in entries
        ],
    }
    save_json(path, payload)
    return path
