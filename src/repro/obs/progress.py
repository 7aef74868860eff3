"""Live progress reporting for runs and sweeps.

Two reporters, one line each, both opt-in via ``--progress``:

- :class:`RunProgress` arms a periodic event on the simulation clock
  (the profiler pattern: the tick is a pure read, so an observed run
  produces the same :class:`~repro.sim.metrics.SimResult` as an
  unobserved one) and reports percent complete, simulated vs wall time,
  engine event throughput, a wall-clock ETA, and the memory-controller
  queue depths.
- :class:`SweepProgress` consumes a sweep's ``on_event`` stream
  (``job.attempt`` / ``job.result`` / ``job.retry`` / ``job.failed``)
  and reports settled/failed/running counts across the sweep.

On a TTY the line redraws in place (carriage return); on anything else
each update is its own line so CI logs stay readable. Wall-clock reads
live here by design — progress is a *reporting* layer outside the
simulation path, like the sweep tracer's wall clock.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.utils.units import s_to_ns


def _format_eta(seconds: float) -> str:
    if seconds < 0 or seconds != seconds:  # negative or NaN: unknown
        return "--:--"
    seconds = int(seconds + 0.5)
    if seconds >= 3600:
        return f"{seconds // 3600}:{(seconds % 3600) // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60}:{seconds % 60:02d}"


def _format_count(n: float) -> str:
    for bound, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if n >= bound:
            return f"{n / bound:.1f}{suffix}"
    return f"{n:.0f}"


class _LineWriter:
    """Single-line emitter: redraw-in-place on TTYs, append elsewhere.

    A redraw pads over the previous line's leftover characters; ``close``
    ends a redrawn line with a newline so later output starts clean.
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.lines_emitted = 0
        self._last_width = 0
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self._tty = False

    def emit(self, line: str) -> None:
        if self._tty:
            pad = max(0, self._last_width - len(line))
            self.stream.write("\r" + line + " " * pad)
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
        self._last_width = len(line)
        self.lines_emitted += 1

    def close(self) -> None:
        if self._tty and self.lines_emitted:
            self.stream.write("\n")
            self.stream.flush()


class RunProgress:
    """Periodic single-line progress for one :class:`~repro.sim.system.System`.

    Args:
        system: The system to observe; :meth:`attach` must be called
            before ``system.run()``.
        stream: Destination (default ``sys.stderr``).
        updates: Target number of progress ticks across the run (the
            sim-time sampling interval is ``duration / updates``).
        interval_s: Explicit sim-time interval in seconds; overrides
            *updates*.
        clock: Wall-clock source, injectable for tests.
    """

    def __init__(
        self,
        system,
        *,
        stream=None,
        updates: int = 100,
        interval_s: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if updates < 1:
            raise ConfigError(f"updates must be >= 1, got {updates}")
        if interval_s is not None and interval_s <= 0:
            raise ConfigError(f"interval_s must be positive, got {interval_s}")
        self.system = system
        self.writer = _LineWriter(stream)
        self.clock = clock
        self.ticks = 0
        self._duration_ns = s_to_ns(system.config.duration_s)
        if interval_s is not None:
            self._interval_ns = s_to_ns(interval_s)
        else:
            self._interval_ns = self._duration_ns / updates
        self._t0: Optional[float] = None
        self._attached = False

    def register_metrics(self, registry, prefix: str = "obs.progress") -> None:
        """Publish the reporter's tick counter into a telemetry registry."""
        registry.gauge(f"{prefix}.ticks", lambda: self.ticks)
        registry.gauge(
            f"{prefix}.lines_emitted", lambda: self.writer.lines_emitted
        )

    def attach(self) -> "RunProgress":
        """Arm the periodic progress event; call before ``system.run()``."""
        if self._attached:
            raise ConfigError("progress reporter already attached")
        self._attached = True
        self._t0 = self.clock()
        self.system.sim.schedule_periodic(self._interval_ns, self._tick)
        return self

    # ------------------------------------------------------------------
    def _queue_depths(self) -> str:
        registry = self.system.telemetry.registry
        parts = []
        for label, metric in (
            ("pend", "memctrl.pending_requests"),
            ("inflt", "memctrl.inflight_requests"),
        ):
            if metric in registry:
                parts.append(f"{label}={registry.get(metric).value():.0f}")
        return " ".join(parts)

    def _tick(self) -> None:
        self.ticks += 1
        sim = self.system.sim
        elapsed = max(self.clock() - (self._t0 or 0.0), 1e-9)
        fraction = min(sim.now / self._duration_ns, 1.0) if self._duration_ns else 1.0
        rate = sim.events_processed / elapsed
        eta_s = (
            elapsed * (1.0 - fraction) / fraction if fraction > 0 else float("nan")
        )
        line = (
            f"run {100.0 * fraction:5.1f}%  "
            f"sim {sim.now / 1e6:.3f}/{self._duration_ns / 1e6:.3f}ms  "
            f"{_format_count(sim.events_processed)} ev "
            f"({_format_count(rate)}/s)  "
            f"ETA {_format_eta(eta_s)}"
        )
        queues = self._queue_depths()
        if queues:
            line += f"  {queues}"
        self.writer.emit(line)

    def close(self) -> None:
        """Finish the line (newline on TTYs)."""
        self.writer.close()


class SweepProgress:
    """Single-line sweep progress fed by job lifecycle events.

    Wire :meth:`on_event` into
    :class:`~repro.sim.runner.ExperimentRunner`, which forwards the
    events of the sweep loop (:func:`~repro.resilience.supervisor.run_jobs`),
    the same names whether its cells run in-process or on workers.
    """

    def __init__(
        self,
        total_jobs: int,
        *,
        stream=None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if total_jobs < 0:
            raise ConfigError(f"total_jobs must be >= 0, got {total_jobs}")
        self.total_jobs = total_jobs
        self.writer = _LineWriter(stream)
        self.clock = clock
        self.attempts = 0
        self.completed = 0
        self.failed = 0
        self.retries = 0
        self._t0 = clock()

    @property
    def running(self) -> int:
        return max(self.attempts - self.completed - self.failed - self.retries, 0)

    def register_metrics(self, registry, prefix: str = "obs.progress") -> None:
        """Publish the reporter's counters into a telemetry registry."""
        registry.gauge(f"{prefix}.attempts", lambda: self.attempts)
        registry.gauge(f"{prefix}.completed", lambda: self.completed)
        registry.gauge(f"{prefix}.failed", lambda: self.failed)

    def on_event(self, name: str, args: dict) -> None:
        """Supervisor hook: update counters and redraw the line."""
        if name == "job.attempt":
            self.attempts += 1
        elif name == "job.result":
            self.completed += 1
        elif name == "job.retry":
            self.retries += 1
        elif name == "job.failed":
            self.failed += 1
        else:
            return  # unknown lifecycle events don't redraw
        settled = self.completed + self.failed
        elapsed = self.clock() - self._t0
        line = (
            f"sweep {settled}/{self.total_jobs} settled  "
            f"ok={self.completed} failed={self.failed} "
            f"retries={self.retries} running={self.running}  "
            f"elapsed {_format_eta(elapsed)}"
        )
        if settled and self.total_jobs:
            eta = elapsed * (self.total_jobs - settled) / settled
            line += f"  ETA {_format_eta(eta)}"
        self.writer.emit(line)

    def close(self) -> None:
        self.writer.close()
