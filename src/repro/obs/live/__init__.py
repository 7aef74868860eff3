"""Live operational observability for a running fleet.

Everything under ``repro.obs.live`` watches the system *while it runs*,
in contrast to the post-hoc ledger/dashboard layers:

- :mod:`~repro.obs.live.exposition` — Prometheus-style text rendering of
  a :class:`~repro.telemetry.registry.MetricRegistry` (``sweep
  --metrics-out``);
- :mod:`~repro.obs.live.slog` — structured JSONL logging with bound
  correlation fields (sweep → job → worker → attempt);
- :mod:`~repro.obs.live.heartbeat` — per-worker heartbeat records and
  the :class:`FleetStatus` aggregate with stale-worker detection;
- :mod:`~repro.obs.live.flightrecorder` — per-process bounded ring of
  recent records, dumped atomically on crash or SIGTERM.

None of these touch the simulation path: observing a run must leave its
:class:`~repro.sim.metrics.SimResult` bit-identical.
"""

from repro.obs.live.exposition import render_exposition, sanitize_metric_name
from repro.obs.live.flightrecorder import FlightRecorder, recorder_path_for
from repro.obs.live.heartbeat import (
    HEARTBEAT_EVENT,
    FleetStatus,
    make_heartbeat,
    read_rss_bytes,
)
from repro.obs.live.slog import StructuredLogger

__all__ = [
    "FleetStatus",
    "FlightRecorder",
    "HEARTBEAT_EVENT",
    "StructuredLogger",
    "make_heartbeat",
    "read_rss_bytes",
    "recorder_path_for",
    "render_exposition",
    "sanitize_metric_name",
]
