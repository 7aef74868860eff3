"""Trace diffing: aligned span aggregates between two recorded traces.

``repro-rrm trace diff A B`` loads two Chrome-trace JSON files (with
:func:`~repro.telemetry.summary.load_trace`, which reads that one
format), aggregates their complete events per span name, and reports
per-name deltas of count, total time, mean and p95. Spans that
exist in only one trace are reported as added/removed rather than
silently dropped — a renamed hot path should look like a rename, not a
disappearance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.telemetry.trace import PH_COMPLETE


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) of pre-sorted values, nearest-rank style
    with linear interpolation between adjacent ranks."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


@dataclass
class SpanStats:
    """Aggregate of one span name within one trace (times in us)."""

    count: int
    total_us: float
    mean_us: float
    p95_us: float
    max_us: float


def span_stats(events: List[dict]) -> Dict[str, SpanStats]:
    """Per-name aggregates of the complete (``ph="X"``) events."""
    durations: Dict[str, List[float]] = {}
    for event in events:
        if event.get("ph") != PH_COMPLETE:
            continue
        name = str(event.get("name") or "?")
        dur = event.get("dur", 0.0)
        if not isinstance(dur, (int, float)):
            dur = 0.0
        durations.setdefault(name, []).append(float(dur))
    stats: Dict[str, SpanStats] = {}
    for name, durs in durations.items():
        durs.sort()
        stats[name] = SpanStats(
            count=len(durs),
            total_us=sum(durs),
            mean_us=sum(durs) / len(durs),
            p95_us=percentile(durs, 0.95),
            max_us=durs[-1],
        )
    return stats


@dataclass
class SpanDelta:
    """One aligned row of the diff; either side may be absent."""

    name: str
    a: Optional[SpanStats]
    b: Optional[SpanStats]

    @property
    def status(self) -> str:
        if self.a is None:
            return "added"
        if self.b is None:
            return "removed"
        return "common"

    @property
    def count_delta(self) -> int:
        return (self.b.count if self.b else 0) - (self.a.count if self.a else 0)

    @property
    def total_delta_us(self) -> float:
        return (self.b.total_us if self.b else 0.0) - (
            self.a.total_us if self.a else 0.0
        )

    @property
    def p95_delta_us(self) -> float:
        return (self.b.p95_us if self.b else 0.0) - (
            self.a.p95_us if self.a else 0.0
        )


@dataclass
class TraceDiff:
    """The aligned per-name span diff of two traces."""

    rows: List[SpanDelta]
    n_events_a: int
    n_events_b: int

    @property
    def added(self) -> List[SpanDelta]:
        return [r for r in self.rows if r.status == "added"]

    @property
    def removed(self) -> List[SpanDelta]:
        return [r for r in self.rows if r.status == "removed"]

    @property
    def common(self) -> List[SpanDelta]:
        return [r for r in self.rows if r.status == "common"]


def diff_traces(
    events_a: List[dict], events_b: List[dict]
) -> TraceDiff:
    """Align the two traces' span aggregates by name.

    Rows are ordered by descending absolute total-time delta, so the
    spans that moved the run the most lead the report.
    """
    stats_a = span_stats(events_a)
    stats_b = span_stats(events_b)
    rows = [
        SpanDelta(name=name, a=stats_a.get(name), b=stats_b.get(name))
        for name in sorted(set(stats_a) | set(stats_b))
    ]
    rows.sort(key=lambda r: (-abs(r.total_delta_us), r.name))
    return TraceDiff(
        rows=rows, n_events_a=len(events_a), n_events_b=len(events_b)
    )


def _fmt_side(stats: Optional[SpanStats]) -> str:
    if stats is None:
        return "-"
    return f"{stats.count}x {stats.total_us:.1f}us p95={stats.p95_us:.2f}"


def format_trace_diff(diff: TraceDiff, *, top: int = 20) -> str:
    """Render the diff as the ``trace diff`` subcommand output."""
    lines = [
        f"events          A={diff.n_events_a}  B={diff.n_events_b}",
        f"span names      {len(diff.common)} common, "
        f"{len(diff.added)} added, {len(diff.removed)} removed",
    ]
    shown = diff.rows[:top]
    if shown:
        lines.append("largest span deltas (B - A):")
    for row in shown:
        lines.append(
            f"  {row.name:<22} {row.status:<8} "
            f"dcount={row.count_delta:+d}  "
            f"dtotal={row.total_delta_us:+.1f}us  "
            f"dp95={row.p95_delta_us:+.3f}us"
        )
        lines.append(
            f"    A: {_fmt_side(row.a):<36} B: {_fmt_side(row.b)}"
        )
    if len(diff.rows) > top:
        lines.append(f"  ... ({len(diff.rows) - top} more span names)")
    if not diff.rows:
        lines.append("no spans in either trace")
    return "\n".join(lines)
