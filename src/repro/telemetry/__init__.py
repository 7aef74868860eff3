"""Unified observability: metrics registry, event tracing, profiling.

Three pillars (DESIGN.md, "Observability"):

- :class:`~repro.telemetry.registry.MetricRegistry` — every subsystem's
  stats as named pull gauges behind one ``snapshot()``;
- :class:`~repro.telemetry.trace.Tracer` — simulation-time spans,
  instants and counter tracks, exported as Chrome-trace/Perfetto JSON;
- :class:`~repro.telemetry.profiler.Profiler` — periodic snapshot events
  on the engine emitting per-subsystem time-series.

Telemetry is opt-in: without a :class:`TelemetryConfig`, components see
the no-op :data:`~repro.telemetry.trace.NULL_TRACER` and a run is
byte-identical to an uninstrumented one.

Usage::

    from repro import System, SystemConfig, Scheme, TelemetryConfig

    tcfg = TelemetryConfig(metrics_interval_s=0.001)
    system = System(SystemConfig.tiny(), "hmmer", Scheme.RRM, telemetry=tcfg)
    result = system.run()
    system.telemetry.tracer.export("run-trace.json")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro._lazy import lazy_exports
from repro.errors import ConfigError
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.trace import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
)

if TYPE_CHECKING:
    from repro.telemetry.profiler import Profiler
    from repro.telemetry.summary import (
        TraceSummary,
        diff_summaries,
        flatten_args,
        format_summary,
        format_trace_diff,
        load_trace,
        summarize_trace,
        validate_chrome_trace,
    )

__all__ = [
    "MetricRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Profiler",
    "Telemetry",
    "TelemetryConfig",
    "TraceEvent",
    "TraceSummary",
    "Tracer",
    "diff_summaries",
    "flatten_args",
    "format_summary",
    "format_trace_diff",
    "load_trace",
    "summarize_trace",
    "validate_chrome_trace",
]

# Trace files and periodic sampling are opt-in, so their modules load on
# first use; the registry and tracer above serve every run.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.telemetry.profiler": ("Profiler",),
        "repro.telemetry.summary": (
            "TraceSummary",
            "diff_summaries",
            "flatten_args",
            "format_summary",
            "format_trace_diff",
            "load_trace",
            "summarize_trace",
            "validate_chrome_trace",
        ),
    },
)


@dataclass(frozen=True)
class TelemetryConfig:
    """Switches for one run's observability.

    Attributes:
        ring_size: Keep only the newest *ring_size* trace events;
            ``None`` keeps every event. The tracer validates it.
        metrics_interval_s: Period (virtual seconds) of the profiler's
            snapshot events; ``None`` disables periodic sampling.
        trace: Record trace events. Off keeps the no-op tracer, so a
            config can enable attribution without paying for event
            recording.
        attribution: Build per-request latency anatomies
            (:mod:`repro.attribution`). Observational only — simulation
            statistics are bit-identical either way.
        profile: Count the engine's dispatches per event owner
            (:mod:`repro.profiling`) into ``SimResult.profile``.
            Observational only — the profiled run's ``as_dict()`` is
            bit-identical to an unprofiled one.
    """

    ring_size: Optional[int] = None
    metrics_interval_s: Optional[float] = None
    trace: bool = True
    attribution: bool = False
    profile: bool = False

    def __post_init__(self) -> None:
        if self.metrics_interval_s is not None and self.metrics_interval_s <= 0:
            raise ConfigError("metrics_interval_s must be positive")


class Telemetry:
    """One run's observability bundle: registry + tracer (+ profiler).

    The registry always exists — metric registration is one-time wiring
    and snapshots are how results are harvested — but the tracer is the
    shared no-op unless a :class:`TelemetryConfig` enables recording.
    """

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config
        self.registry = MetricRegistry()
        if config is None or not config.trace:
            self.tracer: "Tracer | NullTracer" = NULL_TRACER
        else:
            self.tracer = Tracer(clock, ring_size=config.ring_size)
        self.profiler: Optional[Profiler] = None

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def make_profiler(self, sim, interval_ns: float) -> Profiler:
        """Build (and remember) the profiler; the caller starts it."""
        from repro.telemetry.profiler import Profiler

        self.profiler = Profiler(
            sim, self.registry, self.tracer, interval_ns=interval_ns
        )
        return self.profiler
