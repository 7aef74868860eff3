"""Periodic profiling hooks: metric snapshots on the simulation clock.

The profiler arms one periodic engine event that, every *interval_ns* of
virtual time, snapshots the registry and emits one counter event per
metric group (``engine``, ``memctrl``, ``cpu``, ``rrm``, ``pcm``, …) into
the tracer. A traced run therefore carries time-series of the write-mode
mix, queue depths and refresh counts alongside its spans, and Perfetto
renders them as stacked counter tracks.

The tick callback is a pure read — it snapshots gauges and appends trace
events, never touching simulation state — so arming the profiler cannot
change a run's :class:`~repro.sim.metrics.SimResult` (the determinism
the telemetry test suite pins down). The only caveat is ``max_events``
budgets: profiler ticks are engine events and count against them.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigError
from repro.telemetry.registry import MetricRegistry, Snapshot
from repro.telemetry.trace import NULL_TRACER


class Profiler:
    """Samples a registry into a tracer every *interval_ns* of sim time.

    Args:
        sim: The discrete-event engine (anything with
            ``schedule_periodic``/``now``).
        registry: The registry to snapshot.
        tracer: Destination for the counter events.
        interval_ns: Virtual time between samples.
    """

    def __init__(
        self,
        sim,
        registry: MetricRegistry,
        tracer=NULL_TRACER,
        *,
        interval_ns: float,
    ) -> None:
        if interval_ns <= 0:
            raise ConfigError(
                f"profiler interval must be positive, got {interval_ns}"
            )
        self.sim = sim
        self.registry = registry
        self.tracer = tracer
        self.interval_ns = interval_ns
        self.ticks = 0
        self._started = False

    def start(self) -> None:
        """Arm the periodic sampling event (first sample one interval in)."""
        if self._started:
            raise ConfigError("profiler already started")
        self._started = True
        self.sim.schedule_periodic(self.interval_ns, self._tick)

    def _tick(self) -> None:
        self.ticks += 1
        snapshot = self.registry.snapshot()
        for group, values in self._grouped_numeric(snapshot).items():
            self.tracer.counter(group, values, cat=group)

    @staticmethod
    def _grouped_numeric(snapshot: Snapshot) -> Dict[str, Dict[str, float]]:
        """Numeric metrics bucketed by top-level group; histograms are
        skipped (counter tracks need scalar series)."""
        groups: Dict[str, Dict[str, float]] = {}
        for name, value in snapshot.items():
            if isinstance(value, dict):
                continue
            group, _, leaf = name.partition(".")
            groups.setdefault(group, {})[leaf or group] = value
        return groups
