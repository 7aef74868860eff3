"""Aggregated attribution results: reports, heatmaps, ledger metrics.

The collector accumulates blame during the run; this module freezes it
into an :class:`AttributionReport` — the JSON-able summary attached to a
:class:`~repro.sim.metrics.SimResult`, rendered by ``repro-rrm
explain``, and flattened into ``attr_*`` run-ledger metrics so
refresh-interference share is pinned in ``BENCH_core.json`` like any
other deterministic number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.attribution.collector import AttributionCollector
from repro.attribution.model import (
    BLOCKER_CLASSES,
    BLOCKER_SCHEDULER,
    CLASS_READ,
    REFRESH_CLASSES,
    BlameMatrix,
)

#: Regions listed individually in reports/JSON (ranked by refresh blame).
TOP_REGIONS = 10


@dataclass
class AttributionReport:
    """One run's frozen latency-anatomy aggregate."""

    requests: int = 0
    conservation_checks: int = 0
    max_conservation_error_ns: float = 0.0
    read_refresh_share: float = 0.0
    read_refresh_blame_ns: float = 0.0
    read_latency_total_ns: float = 0.0
    refresh_backpressure_ns: float = 0.0
    pause_preempt_total_ns: float = 0.0
    banks_per_channel: int = 1
    matrix: BlameMatrix = field(default_factory=BlameMatrix)
    bank_matrices: List[BlameMatrix] = field(default_factory=list)
    #: victim class -> component name -> summed ns.
    component_sums: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Slowest requests' anatomies as JSON dicts, slowest first.
    slowest: List[dict] = field(default_factory=list)
    #: (region, requests, wait_ns, refresh_blamed_ns), worst first.
    top_regions: List[tuple] = field(default_factory=list)
    #: Requests spilled past the per-region tracking cap, if any.
    region_overflow_requests: int = 0

    @classmethod
    def from_collector(
        cls, collector: AttributionCollector
    ) -> "AttributionReport":
        regions = sorted(
            collector.region_blame.items(),
            key=lambda kv: (-kv[1][2], -kv[1][1], kv[0]),
        )[:TOP_REGIONS]
        return cls(
            requests=collector.requests_observed,
            conservation_checks=collector.conservation_checks,
            max_conservation_error_ns=collector.max_conservation_error_ns,
            read_refresh_share=collector.read_refresh_share,
            read_refresh_blame_ns=collector.read_refresh_blame_ns,
            read_latency_total_ns=collector.read_latency_total_ns,
            refresh_backpressure_ns=collector.refresh_backpressure_ns,
            pause_preempt_total_ns=collector.pause_preempt_total_ns,
            banks_per_channel=collector.banks_per_channel,
            matrix=collector.matrix,
            bank_matrices=collector.bank_matrices,
            component_sums={
                victim: dict(sorted(sums.items()))
                for victim, sums in sorted(
                    collector.component_sums.items()
                )
            },
            slowest=[a.to_json_dict() for a in collector.slowest()],
            top_regions=[
                (region, acc[0], acc[1], acc[2]) for region, acc in regions
            ],
            region_overflow_requests=int(collector.region_overflow[0]),
        )

    # ------------------------------------------------------------------
    def summary_dict(self) -> dict:
        """Compact JSON-able digest carried on ``SimResult.attribution``."""
        return {
            "requests": self.requests,
            "conservation_checks": self.conservation_checks,
            "max_conservation_error_ns": self.max_conservation_error_ns,
            "read_refresh_share": self.read_refresh_share,
            "read_refresh_blame_ns": self.read_refresh_blame_ns,
            "read_latency_total_ns": self.read_latency_total_ns,
            "refresh_backpressure_ns": self.refresh_backpressure_ns,
            "pause_preempt_total_ns": self.pause_preempt_total_ns,
            "blocker_wait_ns": {
                blocker: self.matrix.blocker_total(blocker)
                for blocker in self.matrix.blockers()
            },
        }

    def to_json_dict(self) -> dict:
        """Full machine-readable report (``repro-rrm explain --json``)."""
        return {
            **self.summary_dict(),
            "matrix": self.matrix.to_json_dict(),
            "banks": [
                {"bank": i, "channel": i // self.banks_per_channel,
                 **m.to_json_dict()}
                for i, m in enumerate(self.bank_matrices)
            ],
            "component_sums_ns": self.component_sums,
            "slowest": self.slowest,
            "top_regions": [
                {"region": region, "requests": n, "wait_ns": wait,
                 "refresh_blamed_ns": blamed}
                for region, n, wait, blamed in self.top_regions
            ],
            "region_overflow_requests": self.region_overflow_requests,
        }

    def ledger_metrics(self) -> Dict[str, float]:
        """Flat ``attr_*`` metrics merged into run-ledger entries.

        Every value is a deterministic function of the simulation, so
        ledger-driven artifacts (BENCH_core.json) stay reproducible per
        seed.
        """
        metrics: Dict[str, float] = {
            "attr_requests": float(self.requests),
            "attr_max_conservation_error_ns": self.max_conservation_error_ns,
            "attr_read_refresh_share": self.read_refresh_share,
            "attr_read_refresh_blame_ns": self.read_refresh_blame_ns,
            "attr_refresh_backpressure_ns": self.refresh_backpressure_ns,
            "attr_pause_preempt_ns": self.pause_preempt_total_ns,
        }
        for blocker in BLOCKER_CLASSES:
            total = self.matrix.blocker_total(blocker)
            if total:
                metrics[f"attr_blame_{blocker}_ns"] = total
        for i, bank_matrix in enumerate(self.bank_matrices):
            for blocker in bank_matrix.blockers():
                metrics[f"attr_bank{i}_blame_{blocker}"] = (
                    bank_matrix.blocker_total(blocker)
                )
        return metrics


# ----------------------------------------------------------------------
# Text rendering (the `repro-rrm explain` output)
# ----------------------------------------------------------------------
def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    """Minimal aligned text table (first column left, rest right)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: List[str]) -> str:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(widths[i + 1]) for i, cell in enumerate(row[1:])]
        return "  ".join(cells).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


def _us(ns: float) -> str:
    return f"{ns / 1000.0:.2f}"


def format_matrix(matrix: BlameMatrix, title: str) -> List[str]:
    """Render a victim x blocker blamed-time matrix (values in us)."""
    blockers = matrix.blockers()
    lines = [title]
    if not blockers:
        lines.append("  (no blamed wait time)")
        return lines
    headers = ["victim \\ blocker (us)"] + blockers + ["total wait"]
    rows = []
    for victim in matrix.victims():
        row = [victim]
        row += [_us(matrix.get(victim, b)) for b in blockers]
        row.append(_us(matrix.victim_total(victim)))
        rows.append(row)
    rows.append(
        ["(all victims)"]
        + [_us(matrix.blocker_total(b)) for b in blockers]
        + [_us(matrix.total_blamed_ns)]
    )
    lines.extend("  " + line for line in _table(headers, rows))
    return lines


def format_bank_heatmap(report: AttributionReport) -> List[str]:
    """Per-bank interference heatmap: wait blamed on each blocker class,
    reads as victims (the latency the paper's tradeoff is about)."""
    lines = ["per-bank read interference (us of read wait blamed on ...):"]
    blockers: List[str] = []
    for m in report.bank_matrices:
        for b in m.blockers():
            if b not in blockers:
                blockers.append(b)
    blockers = [b for b in BLOCKER_CLASSES if b in blockers] + [
        b for b in blockers if b not in BLOCKER_CLASSES
    ]
    if not blockers:
        lines.append("  (no blamed wait time)")
        return lines
    headers = ["bank"] + blockers
    rows = []
    for i, m in enumerate(report.bank_matrices):
        channel = i // report.banks_per_channel
        rows.append(
            [f"ch{channel}/b{i}"]
            + [_us(m.get(CLASS_READ, b)) for b in blockers]
        )
    lines.extend("  " + line for line in _table(headers, rows))
    return lines


def format_anatomy(anatomy: dict, rank: int) -> List[str]:
    """Render one slow request's full anatomy (from its JSON dict)."""
    total = anatomy["total_ns"]
    head = (
        f"  #{rank}: {anatomy['victim']} block={anatomy['block']} "
        f"ch{anatomy['channel']}/b{anatomy['bank']} "
        f"total={_us(total)}us at t={_us(anatomy['issue_ns'])}us"
    )
    lines = [head]
    components = anatomy["components_ns"]
    for name, ns in sorted(
        components.items(), key=lambda kv: -kv[1]
    ):
        if not ns:
            continue
        share = ns / total if total else 0.0
        lines.append(f"      {name:<24} {_us(ns):>10} us  ({share:6.1%})")
    extra = anatomy.get("refresh_backpressure_ns") or 0.0
    if extra:
        lines.append(
            f"      (+ pre-queue refresh backpressure {_us(extra)} us,"
            " outside the conservation sum)"
        )
    return lines


def format_report(
    report: AttributionReport,
    *,
    top: int = 5,
    header: Optional[str] = None,
) -> str:
    """The full ``repro-rrm explain`` text output."""
    lines: List[str] = []
    if header:
        lines += [header, ""]
    lines.append(
        f"requests observed        {report.requests}"
    )
    lines.append(
        f"conservation             max error "
        f"{report.max_conservation_error_ns:g} ns over "
        f"{report.conservation_checks} checks"
    )
    lines.append(
        f"read refresh share       {report.read_refresh_share:.4%} of read "
        f"latency blamed on RRM refresh occupancy "
        f"({_us(report.read_refresh_blame_ns)} us)"
    )
    lines.append(
        f"write-pause preemption   {_us(report.pause_preempt_total_ns)} us "
        "added to paused writes by reads cutting in"
    )
    if report.refresh_backpressure_ns:
        lines.append(
            f"refresh backpressure     {_us(report.refresh_backpressure_ns)}"
            " us spent by refreshes waiting for queue space (pre-queue)"
        )
    lines.append("")
    lines.extend(
        format_matrix(report.matrix, "blamed wait time, all banks:")
    )
    lines.append("")
    lines.extend(format_bank_heatmap(report))
    if report.top_regions:
        lines.append("")
        lines.append("regions with the most refresh-blamed wait:")
        headers = ["region", "requests", "wait (us)", "refresh-blamed (us)"]
        rows = [
            [str(region), str(n), _us(wait), _us(blamed)]
            for region, n, wait, blamed in report.top_regions
        ]
        lines.extend("  " + line for line in _table(headers, rows))
    if top > 0 and report.slowest:
        lines.append("")
        lines.append(f"slowest {min(top, len(report.slowest))} requests:")
        for rank, anatomy in enumerate(report.slowest[:top], start=1):
            lines.extend(format_anatomy(anatomy, rank))
    return "\n".join(lines)


def refresh_share_of(metrics: Dict[str, float]) -> float:
    """The refresh-interference share from flat ledger metrics."""
    return metrics.get("attr_read_refresh_share", 0.0)


def read_refresh_blame_ns(matrix: BlameMatrix) -> float:
    """Read wait blamed on refresh classes in *matrix*."""
    return math.fsum(
        matrix.get(CLASS_READ, cls) for cls in REFRESH_CLASSES
    )


__all__ = [
    "AttributionReport",
    "BLOCKER_SCHEDULER",
    "TOP_REGIONS",
    "format_anatomy",
    "format_bank_heatmap",
    "format_matrix",
    "format_report",
    "read_refresh_blame_ns",
    "refresh_share_of",
]
