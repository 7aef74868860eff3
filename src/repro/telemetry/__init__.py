"""Unified observability: metrics registry, event tracing, profiling.

Three pillars (DESIGN.md, "Observability"):

- :class:`~repro.telemetry.registry.MetricRegistry` — every subsystem's
  counters behind one hierarchical ``snapshot()``/``diff()`` API;
- :class:`~repro.telemetry.trace.Tracer` — simulation-time spans,
  instants and counter tracks, exportable to Chrome-trace/Perfetto JSON
  and JSONL;
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
    system.telemetry.tracer.export_chrome("run-trace.json")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro._lazy import lazy_exports
from repro.errors import ConfigError
from repro.telemetry.registry import (
    Counter,
    Derived,
    Gauge,
    Histogram,
    Metric,
    MetricRegistry,
    Snapshot,
)
from repro.telemetry.trace import (
    NULL_TRACER,
    TRACE_MODES,
    NullTracer,
    TraceEvent,
    Tracer,
)

if TYPE_CHECKING:
    from repro.telemetry.profiler import Profiler
    from repro.telemetry.summary import (
        TraceSummary,
        flatten_args,
        format_summary,
        load_trace,
        summarize_trace,
        validate_chrome_trace,
    )

__all__ = [
    "Counter",
    "Derived",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Profiler",
    "Snapshot",
    "Telemetry",
    "TelemetryConfig",
    "TraceEvent",
    "TraceSummary",
    "Tracer",
    "TRACE_MODES",
    "flatten_args",
    "format_summary",
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
            "flatten_args",
            "format_summary",
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
        mode: Tracer memory bound — ``full`` | ``ring`` | ``sample``.
        ring_size: Event capacity in ``ring`` mode.
        sample_every: Keep every Nth event in ``sample`` mode.
        metrics_interval_s: Period (virtual seconds) of the profiler's
            snapshot events; ``None`` disables periodic sampling.
        detailed_metrics: Also register latency histograms (small
            per-completion recording cost; off leaves only pull gauges).
        trace: Record trace events. Off keeps the no-op tracer, so a
            config can enable attribution (or detail metrics) without
            paying for event recording.
        attribution: Build per-request latency anatomies
            (:mod:`repro.attribution`). Observational only — simulation
            statistics are bit-identical either way.
        profile: Host-side profiling (:mod:`repro.profiling`): sampling
            CPU profiler around the run, deterministic event-cost
            accounting on the engine, and a post-run memory census.
            Observational only — the profiled run's ``as_dict()`` is
            bit-identical to an unprofiled one.
        profile_interval_s: Host-time sampling period of the profiler.
    """

    mode: str = "full"
    ring_size: int = 100_000
    sample_every: int = 1
    metrics_interval_s: Optional[float] = None
    detailed_metrics: bool = True
    trace: bool = True
    attribution: bool = False
    profile: bool = False
    profile_interval_s: float = 0.005

    def __post_init__(self) -> None:
        if self.mode not in TRACE_MODES:
            raise ConfigError(
                f"telemetry mode must be one of {TRACE_MODES}, got {self.mode!r}"
            )
        if self.ring_size <= 0:
            raise ConfigError("ring_size must be positive")
        if self.sample_every <= 0:
            raise ConfigError("sample_every must be positive")
        if self.metrics_interval_s is not None and self.metrics_interval_s <= 0:
            raise ConfigError("metrics_interval_s must be positive")
        if self.profile_interval_s <= 0:
            raise ConfigError("profile_interval_s must be positive")


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
            self.tracer = Tracer(
                clock,
                mode=config.mode,
                ring_size=config.ring_size,
                sample_every=config.sample_every,
            )
        self.profiler: Optional[Profiler] = None

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    @property
    def detailed(self) -> bool:
        """Whether components should register detail metrics (histograms)."""
        return self.config is not None and self.config.detailed_metrics

    def make_profiler(self, sim, interval_ns: float) -> Profiler:
        """Build (and remember) the profiler; the caller starts it."""
        from repro.telemetry.profiler import Profiler

        self.profiler = Profiler(
            sim, self.registry, self.tracer, interval_ns=interval_ns
        )
        return self.profiler
