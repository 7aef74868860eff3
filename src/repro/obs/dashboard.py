"""Offline HTML dashboard: metric trends and run anatomy, one file.

:func:`render_dashboard` turns ledger entries into a **self-contained**
HTML page — inline CSS, inline SVG sparklines, zero external requests —
so it can be archived as a CI artifact and opened anywhere, including
air-gapped review machines.

Visual conventions follow the repo's chart rules: single-series
sparklines in the series-1 blue (no legend needed for one series),
recessive chrome, dark mode as a *selected* palette via
``prefers-color-scheme`` rather than an automatic inversion, and class
colors that never carry meaning alone — every legend chip pairs its
color with its class word.
"""

from __future__ import annotations

import html
import re
from typing import Dict, List, Optional, Sequence

from repro.obs.ledger import LedgerEntry, entries_by_name

#: Metrics plotted when the caller doesn't choose, in display order.
DEFAULT_DASHBOARD_METRICS = (
    "ipc",
    "lifetime_years",
    "wall_time_s",
    "sim_events_per_sec",
    "avg_read_latency_ns",
    "avg_write_latency_ns",
    "refresh_writes",
    "retention_violations",
    "row_hit_rate",
    "attr_read_refresh_share",
)

#: Blocker-class palette for the attribution bars (fixed, never themed).
#: Order is render order within each bar; every color is paired with its
#: class word in the legend.
_BLAME_CLASSES = (
    ("read", "#2a78d6"),
    ("write_fast", "#0ca30c"),
    ("write_slow", "#12a594"),
    ("write_other", "#7d66d3"),
    ("rrm_fast_refresh", "#d03b3b"),
    ("rrm_slow_refresh", "#ec835a"),
    ("scheduler", "#898781"),
)

_BANK_BLAME_RE = re.compile(r"attr_bank(\d+)_blame_([a-z_]+)$")

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --border: rgba(11, 11, 11, 0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --baseline: #383835;
    --series-1: #3987e5;
    --border: rgba(255, 255, 255, 0.10);
  }
}
* { box-sizing: border-box; }
body {
  margin: 0;
  padding: 24px;
  background: var(--page);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.meta { color: var(--text-secondary); margin-bottom: 18px; }
.chip {
  display: inline-block;
  width: 9px; height: 9px;
  border-radius: 50%;
  margin-right: 6px;
}
.cards { display: grid; grid-template-columns: repeat(auto-fill, minmax(250px, 1fr));
  gap: 10px; }
.card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 10px 12px;
}
.card .metric { color: var(--text-secondary); font-size: 12px; }
.card .value { font-size: 20px; }
.card .delta { font-size: 12px; color: var(--text-secondary); }
.spark { display: block; margin-top: 6px; }
.empty { color: var(--muted); }
footer { margin-top: 26px; color: var(--muted); font-size: 12px; }
"""


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:.4g}"


def _sparkline(
    values: Sequence[float], *, width: int = 226, height: int = 44
) -> str:
    """One inline SVG polyline for one metric's history (series-1 blue)."""
    n = len(values)
    if n == 0:
        return ""
    pad = 3.0
    lo, hi = min(values), max(values)
    span = hi - lo
    points = []
    for i, v in enumerate(values):
        x = pad + (width - 2 * pad) * (i / (n - 1) if n > 1 else 0.5)
        # A flat series draws mid-height rather than hugging an edge.
        fy = (v - lo) / span if span else 0.5
        y = height - pad - (height - 2 * pad) * fy
        points.append(f"{x:.1f},{y:.1f}")
    last_x, last_y = points[-1].split(",")
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="trend of {n} runs">'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="var(--baseline)" stroke-width="1"/>'
        f'<polyline points="{" ".join(points)}" fill="none" '
        f'stroke="var(--series-1)" stroke-width="2" '
        f'stroke-linejoin="round" stroke-linecap="round"/>'
        f'<circle cx="{last_x}" cy="{last_y}" r="3" fill="var(--series-1)"/>'
        f"</svg>"
    )


def _pick_metrics(
    entries: Sequence[LedgerEntry], metrics: Optional[Sequence[str]]
) -> List[str]:
    if metrics:
        return list(metrics)
    available = set()
    for entry in entries:
        available.update(entry.metrics)
    picked = [m for m in DEFAULT_DASHBOARD_METRICS if m in available]
    if picked:
        return picked
    return sorted(available)[:8]


def _bank_blame(entry: LedgerEntry) -> Dict[int, Dict[str, float]]:
    """Per-bank blamed-wait totals parsed from ``attr_bank*`` metrics."""
    banks: Dict[int, Dict[str, float]] = {}
    for key, value in entry.metrics.items():
        match = _BANK_BLAME_RE.match(key)
        if match and value > 0:
            banks.setdefault(int(match.group(1)), {})[match.group(2)] = value
    return banks


def _blame_bars(banks: Dict[int, Dict[str, float]]) -> str:
    """One inline SVG of horizontal stacked bars, one per bank.

    Bars share a scale (the busiest bank spans the full width), so bank
    imbalance reads directly as bar length.
    """
    width, label_w, bar_h, gap, pad = 440, 58, 14, 6, 3
    scale_max = max(sum(c.values()) for c in banks.values())
    if scale_max <= 0:
        return ""
    height = pad * 2 + len(banks) * (bar_h + gap) - gap
    parts = [
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="blamed wait time per bank by blocker class">'
    ]
    span = width - label_w - pad
    for row, bank in enumerate(sorted(banks)):
        y = pad + row * (bar_h + gap)
        parts.append(
            f'<text x="{label_w - 6}" y="{y + bar_h - 3}" '
            f'text-anchor="end" font-size="11" '
            f'fill="var(--text-secondary)">b{bank}</text>'
        )
        x = float(label_w)
        for cause, color in _BLAME_CLASSES:
            value = banks[bank].get(cause, 0.0)
            if value <= 0:
                continue
            w = span * value / scale_max
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{max(w, 0.5):.1f}" '
                f'height="{bar_h}" fill="{color}"/>'
            )
            x += w
    parts.append("</svg>")
    return "".join(parts)


def _attribution_sections(
    grouped: Dict[str, List[LedgerEntry]]
) -> List[str]:
    """Stacked per-bank blame bars for runs that recorded attribution."""
    charts: List[str] = []
    used_causes: set = set()
    for name, group in sorted(grouped.items()):
        banks = _bank_blame(group[-1])  # latest entry per run name
        if not banks:
            continue
        share = group[-1].metrics.get("attr_read_refresh_share")
        share_txt = (
            f"read refresh share {share:.2%}" if share is not None else ""
        )
        for causes in banks.values():
            used_causes.update(causes)
        charts.append(
            f'<div class="card"><div class="metric">{html.escape(name)}'
            f"</div>"
            + (f'<div class="delta">{share_txt}</div>' if share_txt else "")
            + _blame_bars(banks)
            + "</div>"
        )
    if not charts:
        return []
    legend = " ".join(
        f'<span class="chip" style="background:{color}"></span>'
        f"{html.escape(cause)}"
        for cause, color in _BLAME_CLASSES
        if cause in used_causes
    )
    return [
        "<h2>Latency attribution: blamed wait per bank</h2>",
        f'<div class="meta">{legend}</div>',
        f'<div class="cards">{"".join(charts)}</div>',
    ]


def _throughput_section(
    entries: Sequence[LedgerEntry], max_points: int
) -> List[str]:
    """Ledger-wide simulator throughput trend (``sim_events_per_sec``).

    One chronological series across *all* entries, so a host slowdown or
    a simulator-speed regression shows up as a fleet-wide dip rather
    than being diluted across per-run-name cards.
    """
    series = [
        e.metrics["sim_events_per_sec"]
        for e in entries
        if e.metrics.get("sim_events_per_sec")
    ]
    if len(series) < 2:
        return []
    series = series[-max_points:]
    latest = series[-1]
    lo, hi = min(series), max(series)
    return [
        "<h2>Simulator throughput</h2>",
        '<div class="cards">'
        '<div class="card"><div class="metric">sim_events_per_sec '
        "(all runs, chronological)</div>"
        f'<div class="value">{_fmt_value(latest)}</div>'
        f'<div class="delta">{len(series)} runs &middot; '
        f"min {_fmt_value(lo)} &middot; max {_fmt_value(hi)}</div>"
        f"{_sparkline(series)}</div></div>",
    ]


def _trend_sections(
    grouped: Dict[str, List[LedgerEntry]],
    metrics: List[str],
    max_points: int,
) -> List[str]:
    out: List[str] = []
    for name, group in sorted(grouped.items()):
        out.append(f"<h2>{html.escape(name)}</h2>")
        cards: List[str] = []
        for metric in metrics:
            series = [e.metrics[metric] for e in group if metric in e.metrics]
            if not series:
                continue
            series = series[-max_points:]
            latest = series[-1]
            delta_txt = f"{len(series)} run" + ("s" if len(series) != 1 else "")
            if len(series) >= 2 and series[-2] != 0:
                rel = latest / series[-2] - 1.0
                delta_txt += f" &middot; {rel:+.2%} vs previous"
            cards.append(
                f'<div class="card"><div class="metric">'
                f"{html.escape(metric)}</div>"
                f'<div class="value">{_fmt_value(latest)}</div>'
                f'<div class="delta">{delta_txt}</div>'
                f"{_sparkline(series)}</div>"
            )
        if cards:
            out.append(f'<div class="cards">{"".join(cards)}</div>')
        else:
            out.append('<p class="empty">No plottable metrics recorded.</p>')
    return out


def render_dashboard(
    entries: Sequence[LedgerEntry],
    *,
    title: str = "repro-rrm performance observability",
    metrics: Optional[Sequence[str]] = None,
    max_points: int = 60,
) -> str:
    """Render ledger *entries* to HTML.

    The returned string is a complete document with no external
    references. *metrics* restricts the plotted metric set;
    *max_points* caps each sparkline to the most recent N runs.
    """
    grouped = entries_by_name(list(entries))
    picked = _pick_metrics(entries, metrics)
    latest_fp: Dict[str, object] = {}
    for entry in entries:
        if entry.fingerprint:
            latest_fp = entry.fingerprint
    meta_bits = [
        f"{len(entries)} ledger entr" + ("ies" if len(entries) != 1 else "y"),
        f"{len(grouped)} run name" + ("s" if len(grouped) != 1 else ""),
    ]
    for key in ("git_sha", "repro_version", "config_hash"):
        if key in latest_fp:
            meta_bits.append(f"{key} {html.escape(str(latest_fp[key]))}")
    body: List[str] = [
        f"<h1>{html.escape(title)}</h1>",
        f'<div class="meta">{" &middot; ".join(meta_bits)}</div>',
    ]
    if grouped:
        body.extend(_throughput_section(list(entries), max_points))
        body.extend(_attribution_sections(grouped))
        body.extend(_trend_sections(grouped, picked, max_points))
    else:
        body.append('<p class="empty">The ledger is empty.</p>')
    body.append(
        "<footer>Self-contained report; generated offline by "
        "<code>repro-rrm obs dashboard</code>.</footer>"
    )
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        '<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<title>{html.escape(title)}</title>\n"
        f"<style>{_CSS}</style>\n"
        "</head>\n<body>\n" + "\n".join(body) + "\n</body>\n</html>\n"
    )
