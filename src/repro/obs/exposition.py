"""Prometheus-style text exposition of a metric registry.

Renders every metric in a :class:`~repro.telemetry.registry.MetricRegistry`
as the plain-text format scrapers understand (version 0.0.4): one
``# TYPE <name> gauge`` line per family followed by its sample line.
Every registry metric is a pull gauge, a point-in-time read from the
scraper's perspective.

Rendering is a pure read (gauges are pulled, nothing mutated), so a
snapshot may be taken mid-run without perturbing determinism.
"""

from __future__ import annotations

import math
import re
from typing import List, Union

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_FIRST = re.compile(r"^[^a-zA-Z_:]")


def sanitize_metric_name(name: str, *, namespace: str = "repro") -> str:
    """Map a dotted registry path to a legal Prometheus metric name.

    ``memctrl.reads_completed`` → ``repro_memctrl_reads_completed``.
    Any character outside ``[a-zA-Z0-9_:]`` becomes ``_``.
    """
    flat = _INVALID_CHARS.sub("_", name.replace(".", "_"))
    if namespace:
        flat = f"{namespace}_{flat}"
    if _INVALID_FIRST.match(flat):
        flat = "_" + flat
    return flat


def _format_number(value: Union[int, float]) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:.10g}"


def render_exposition(registry, *, namespace: str = "repro") -> str:
    """Render every metric in *registry* as Prometheus exposition text.

    Names are sorted (the registry's natural order), so two snapshots of
    the same state are byte-identical — diffs and golden tests work.
    """
    out: List[str] = []
    for name, value in registry.snapshot().items():
        flat = sanitize_metric_name(name, namespace=namespace)
        out.append(f"# TYPE {flat} gauge")
        out.append(f"{flat} {_format_number(value)}")
    return "\n".join(out) + "\n" if out else ""
