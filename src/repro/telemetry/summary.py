"""Trace-file loading, validation, summarisation and diffing.

The one reader of trace files. Backs ``repro-rrm trace`` and ``trace
diff`` and the CI smoke job: load a Chrome-trace JSON file written by
:class:`~repro.telemetry.trace.Tracer`, check it against the subset of
the Chrome Trace Event Format we emit, and summarise it in one pass
(event counts per category, time range, longest spans, counter series,
per-name span durations). A diff aligns two such summaries by span name.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TraceFormatError
from repro.telemetry.trace import (
    PH_COMPLETE,
    PH_COUNTER,
    PH_INSTANT,
    PH_METADATA,
)

_KNOWN_PHASES = {PH_COMPLETE, PH_COUNTER, PH_INSTANT, PH_METADATA}


def flatten_args(args: dict, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a (possibly nested) span ``args`` dict.

    Nested dicts flatten with dotted keys, so an attribution anatomy
    attached as ``args={"anatomy": {"wait_read": 12.5}}`` aggregates
    under ``anatomy.wait_read``. Non-numeric leaves are skipped.
    """
    flat: Dict[str, float] = {}
    for key, value in args.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_args(value, prefix=f"{name}."))
        elif isinstance(value, bool):
            flat[name] = float(value)
        elif isinstance(value, (int, float)):
            flat[name] = float(value)
    return flat


def load_trace(path) -> List[dict]:
    """Load the events of a Chrome-trace JSON file (microsecond ``ts``).

    Raises :class:`TraceFormatError` on unparseable input.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise TraceFormatError(f"{path}: not valid JSON: {exc}") from None
    if isinstance(obj, list):  # bare traceEvents array form
        return obj
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise TraceFormatError(f"{path}: no traceEvents array")
    events = obj["traceEvents"]
    if not isinstance(events, list):
        raise TraceFormatError(
            f"{path}: traceEvents is {type(events).__name__}, not a list"
        )
    return events


def validate_chrome_trace(events: List[dict]) -> List[str]:
    """Check *events* against the Chrome Trace Event Format subset we
    emit; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    if not events:
        problems.append("trace contains no events")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"event {i}: missing name")
        if ph == PH_METADATA:
            continue
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"event {i}: missing numeric ts")
        if ph == PH_COMPLETE:
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: complete event needs dur >= 0")
        if ph == PH_COUNTER and not isinstance(event.get("args"), dict):
            problems.append(f"event {i}: counter event needs args")
        if len(problems) >= 20:
            problems.append("... (further problems suppressed)")
            break
    return problems


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) of pre-sorted values, nearest-rank style
    with linear interpolation between adjacent ranks."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


@dataclass
class SpanStats:
    """Durations of one span name within one trace (times in us)."""

    count: int
    total_us: float
    mean_us: float
    p95_us: float
    max_us: float


@dataclass
class TraceSummary:
    """Digest of one trace file."""

    #: Events other than metadata; ``n_rows`` counts every row.
    n_events: int = 0
    n_rows: int = 0
    t_min_us: float = 0.0
    t_max_us: float = 0.0
    by_phase: Dict[str, int] = field(default_factory=dict)
    by_category: Dict[str, int] = field(default_factory=dict)
    #: (dur_us, name, cat, ts_us) of the longest complete events.
    longest_spans: List[Tuple[float, str, str, float]] = field(
        default_factory=list
    )
    counter_series: Dict[str, List[str]] = field(default_factory=dict)
    #: span name -> flattened arg key -> [occurrences, numeric total].
    #: This is the aggregate the old summary silently dropped: span args
    #: (e.g. per-request latency anatomies) were loaded but never
    #: tallied, so annotated traces summarised no richer than bare ones.
    span_args: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    #: span name -> durations of its complete events.
    span_durations: Dict[str, SpanStats] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return max(0.0, self.t_max_us - self.t_min_us)

    def to_json_dict(self) -> dict:
        """JSON-able digest, used by ``repro-rrm trace --json``."""
        return {
            "n_events": self.n_events,
            "t_min_us": self.t_min_us,
            "t_max_us": self.t_max_us,
            "duration_us": self.duration_us,
            "by_phase": dict(self.by_phase),
            "by_category": dict(self.by_category),
            "longest_spans": [
                {"dur_us": dur, "name": name, "cat": cat, "ts_us": ts}
                for dur, name, cat, ts in self.longest_spans
            ],
            "counter_series": {
                name: list(keys) for name, keys in self.counter_series.items()
            },
            "span_args": {
                name: {
                    key: {"count": int(count), "total": total}
                    for key, (count, total) in sorted(keys.items())
                }
                for name, keys in sorted(self.span_args.items())
            },
        }


def summarize_trace(events: List[dict], top_spans: int = 10) -> TraceSummary:
    """Aggregate a loaded trace into a :class:`TraceSummary`."""
    summary = TraceSummary(n_rows=len(events))
    durations: Dict[str, List[float]] = {}
    phases: TallyCounter = TallyCounter()
    cats: TallyCounter = TallyCounter()
    spans: List[Tuple[float, str, str, float]] = []
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    for event in events:
        if not isinstance(event, dict):
            # Garbage rows still count (so the digest reflects the file)
            # but are bucketed under "?" rather than crashing the tally.
            summary.n_events += 1
            phases["?"] += 1
            cats["?"] += 1
            continue
        ph = event.get("ph")
        if ph == PH_METADATA:
            continue
        if not isinstance(ph, str):
            ph = "?"
        summary.n_events += 1
        phases[ph] += 1
        cats[str(event.get("cat") or "default")] += 1
        ts = event.get("ts", 0.0)
        if not isinstance(ts, (int, float)):
            ts = 0.0
        end = ts
        if ph == PH_COMPLETE:
            dur = event.get("dur", 0.0)
            if not isinstance(dur, (int, float)):
                dur = 0.0
            end = ts + dur
            name = str(event.get("name") or "?")
            spans.append(
                (float(dur), name, str(event.get("cat") or "default"),
                 float(ts))
            )
            durations.setdefault(name, []).append(float(dur))
            args = event.get("args")
            if isinstance(args, dict) and args:
                tally = summary.span_args.setdefault(name, {})
                for key, value in flatten_args(args).items():
                    cell = tally.setdefault(key, [0, 0.0])
                    cell[0] += 1
                    cell[1] += value
        elif ph == PH_COUNTER:
            series = summary.counter_series.setdefault(
                str(event.get("name") or "?"), []
            )
            for key in (event.get("args") or {}):
                if key not in series:
                    series.append(key)
        t_min = ts if t_min is None else min(t_min, ts)
        t_max = end if t_max is None else max(t_max, end)
    if t_min is not None:
        summary.t_min_us = t_min
        summary.t_max_us = t_max
    summary.by_phase = dict(phases)
    summary.by_category = dict(cats)
    summary.longest_spans = sorted(spans, reverse=True)[:top_spans]
    for name, durs in durations.items():
        durs.sort()
        total = sum(durs)
        summary.span_durations[name] = SpanStats(
            count=len(durs),
            total_us=total,
            mean_us=total / len(durs),
            p95_us=percentile(durs, 0.95),
            max_us=durs[-1],
        )
    return summary


def format_summary(summary: TraceSummary) -> str:
    """Render a :class:`TraceSummary` as the ``trace`` subcommand output."""
    lines = [
        f"events          {summary.n_events}",
        f"time range      {summary.t_min_us:.3f} .. {summary.t_max_us:.3f} us "
        f"({summary.duration_us / 1000.0:.3f} ms)",
        "phases          "
        + ", ".join(
            f"{ph}={n}" for ph, n in sorted(summary.by_phase.items())
        ),
        "categories:",
    ]
    for cat, n in sorted(summary.by_category.items()):
        lines.append(f"  {cat:<14} {n}")
    if summary.counter_series:
        lines.append("counter tracks:")
        for name, series in sorted(summary.counter_series.items()):
            shown = ", ".join(series[:6]) + (", ..." if len(series) > 6 else "")
            lines.append(f"  {name:<14} [{shown}]")
    if summary.span_args:
        lines.append("span args (count / total / mean):")
        for name, keys in sorted(summary.span_args.items()):
            lines.append(f"  {name}:")
            for key, (count, total) in sorted(keys.items()):
                mean = total / count if count else 0.0
                lines.append(
                    f"    {key:<32} {int(count):>8}  "
                    f"{total:>14.1f}  {mean:>10.3f}"
                )
    if summary.longest_spans:
        lines.append("longest spans:")
        for dur, name, cat, ts in summary.longest_spans:
            lines.append(
                f"  {dur:10.3f} us  {name:<18} cat={cat:<10} at {ts:.3f} us"
            )
    return "\n".join(lines)


@dataclass
class SpanDelta:
    """One aligned row of a trace diff; either side may be absent."""

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

    def delta(self, field_name: str) -> float:
        """B minus A of one :class:`SpanStats` field; a missing side is 0."""
        return getattr(self.b, field_name, 0) - getattr(self.a, field_name, 0)


@dataclass
class TraceDiff:
    """The aligned per-name span diff of two traces."""

    rows: List[SpanDelta]
    n_events_a: int
    n_events_b: int


def diff_summaries(a: TraceSummary, b: TraceSummary) -> TraceDiff:
    """Align two summaries' span durations by name.

    Spans that exist in only one trace are reported as added/removed
    rather than silently dropped, so a renamed hot path looks like a
    rename, not a disappearance. Rows are ordered by descending absolute
    total-time delta, so the spans that moved the run the most lead.
    """
    stats_a, stats_b = a.span_durations, b.span_durations
    rows = [
        SpanDelta(name=name, a=stats_a.get(name), b=stats_b.get(name))
        for name in sorted(stats_a.keys() | stats_b.keys())
    ]
    rows.sort(key=lambda r: (-abs(r.delta("total_us")), r.name))
    return TraceDiff(rows=rows, n_events_a=a.n_rows, n_events_b=b.n_rows)


def _fmt_side(stats: Optional[SpanStats]) -> str:
    if stats is None:
        return "-"
    return f"{stats.count}x {stats.total_us:.1f}us p95={stats.p95_us:.2f}"


def format_trace_diff(diff: TraceDiff, *, top: int = 20) -> str:
    """Render a :class:`TraceDiff` as the ``trace diff`` subcommand output."""
    statuses = TallyCounter(row.status for row in diff.rows)
    lines = [
        f"events          A={diff.n_events_a}  B={diff.n_events_b}",
        f"span names      {statuses['common']} common, "
        f"{statuses['added']} added, {statuses['removed']} removed",
    ]
    shown = diff.rows[:top]
    if shown:
        lines.append("largest span deltas (B - A):")
    for row in shown:
        lines.append(
            f"  {row.name:<22} {row.status:<8} "
            f"dcount={row.delta('count'):+d}  "
            f"dtotal={row.delta('total_us'):+.1f}us  "
            f"dp95={row.delta('p95_us'):+.3f}us"
        )
        lines.append(
            f"    A: {_fmt_side(row.a):<36} B: {_fmt_side(row.b)}"
        )
    if len(diff.rows) > top:
        lines.append(f"  ... ({len(diff.rows) - top} more span names)")
    if not diff.rows:
        lines.append("no spans in either trace")
    return "\n".join(lines)
