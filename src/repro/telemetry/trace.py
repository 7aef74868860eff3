"""Event tracing keyed on simulation time, with Chrome-trace export.

The tracer records three event shapes, mirroring the Trace Event Format
understood by ``chrome://tracing`` and Perfetto:

- **instant** (``ph="i"``) — something happened at one sim instant
  (a promotion, a retention violation, a retry);
- **complete** (``ph="X"``) — a span with a start time and duration on
  the simulation clock (one memory request's service on its bank);
- **counter** (``ph="C"``) — a named set of numeric series sampled at
  one instant (the profiler's periodic metric snapshots).

Timestamps come from an injected ``clock`` returning nanoseconds — the
simulator's ``now`` for in-run tracing, or a wall-clock for sweep
orchestration — never from the wall clock implicitly, so traced runs
stay deterministic.

Memory is bounded by the recording mode: ``full`` keeps everything,
``ring`` keeps the newest *ring_size* events, and ``sample`` keeps every
*sample_every*-th event. Disabled tracing uses the shared
:data:`NULL_TRACER`, whose methods are no-ops and whose ``enabled`` flag
lets hot paths skip argument construction entirely.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:
    from pathlib import Path

TRACE_MODES = ("full", "ring", "sample")

#: Phase codes of the Chrome Trace Event Format we emit.
PH_INSTANT = "i"
PH_COMPLETE = "X"
PH_COUNTER = "C"
PH_METADATA = "M"


@dataclass
class TraceEvent:
    """One recorded event (times in nanoseconds on the tracer's clock)."""

    ts_ns: float
    ph: str
    name: str
    cat: str
    dur_ns: Optional[float] = None
    args: Optional[dict] = None
    tid: int = 0

    def to_chrome(self) -> dict:
        """The Trace Event Format dict (timestamps in microseconds)."""
        event: dict = {
            "name": self.name,
            "cat": self.cat or "default",
            "ph": self.ph,
            "ts": self.ts_ns / 1000.0,
            "pid": 1,
            "tid": self.tid,
        }
        if self.ph == PH_COMPLETE:
            event["dur"] = (self.dur_ns or 0.0) / 1000.0
        if self.ph == PH_INSTANT:
            event["s"] = "t"  # thread-scoped instant
        if self.args is not None:
            event["args"] = self.args
        return event

    def to_jsonl(self) -> dict:
        """Lossless JSONL record (timestamps kept in nanoseconds)."""
        record: dict = {
            "ts_ns": self.ts_ns,
            "ph": self.ph,
            "name": self.name,
            "cat": self.cat,
            "tid": self.tid,
        }
        if self.dur_ns is not None:
            record["dur_ns"] = self.dur_ns
        if self.args is not None:
            record["args"] = self.args
        return record


class NullTracer:
    """The disabled recorder: every operation is a no-op.

    Hot paths check :attr:`enabled` before building event arguments, so
    an untraced run pays one attribute load and a branch per potential
    event — near-zero overhead, and no recorded state at all.
    """

    enabled = False

    def instant(self, name, cat="run", args=None, tid=0) -> None:
        pass

    def complete(self, name, cat, start_ns, dur_ns, args=None, tid=0) -> None:
        pass

    def counter(self, name, values, cat="", tid=0) -> None:
        pass

    @contextmanager
    def span(self, name, cat="run", args=None, tid=0):
        yield

    def set_thread_name(self, tid, name) -> None:
        pass

    def events(self) -> List[TraceEvent]:
        return []


#: Shared disabled recorder; components default to this.
NULL_TRACER = NullTracer()


class Tracer:
    """The enabled recorder: collects :class:`TraceEvent`s in order.

    Args:
        clock: Zero-argument callable returning the current time in
            nanoseconds (``lambda: sim.now`` for simulation traces).
        mode: ``full`` | ``ring`` | ``sample`` (see module docs).
        ring_size: Event capacity in ``ring`` mode.
        sample_every: Keep every Nth event in ``sample`` mode.
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        *,
        mode: str = "full",
        ring_size: int = 100_000,
        sample_every: int = 1,
    ) -> None:
        if mode not in TRACE_MODES:
            raise ConfigError(
                f"trace mode must be one of {TRACE_MODES}, got {mode!r}"
            )
        if ring_size <= 0:
            raise ConfigError(f"ring_size must be positive, got {ring_size}")
        if sample_every <= 0:
            raise ConfigError(
                f"sample_every must be positive, got {sample_every}"
            )
        self._clock = clock or (lambda: 0.0)
        self.mode = mode
        self.sample_every = sample_every
        self._events: "deque[TraceEvent]" = deque(
            maxlen=ring_size if mode == "ring" else None
        )
        self._seen = 0
        #: Events discarded by the ring/sampling bound.
        self.dropped = 0
        self._thread_names: Dict[int, str] = {}

    @classmethod
    def wallclock(cls, **kwargs) -> "Tracer":
        """A tracer on the wall clock (ns since creation) — for sweep
        orchestration timelines, where there is no simulation clock."""
        t0 = time.perf_counter()
        return cls(clock=lambda: (time.perf_counter() - t0) * 1e9, **kwargs)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(self, event: TraceEvent) -> None:
        self._seen += 1
        if self.mode == "sample" and (self._seen - 1) % self.sample_every:
            self.dropped += 1
            return
        if self._events.maxlen is not None and len(self._events) == self._events.maxlen:
            self.dropped += 1
        self._events.append(event)

    def instant(
        self,
        name: str,
        cat: str = "run",
        args: Optional[dict] = None,
        tid: int = 0,
    ) -> None:
        """Record a zero-duration event at the current clock time."""
        self._record(
            TraceEvent(self._clock(), PH_INSTANT, name, cat, args=args, tid=tid)
        )

    def complete(
        self,
        name: str,
        cat: str,
        start_ns: float,
        dur_ns: float,
        args: Optional[dict] = None,
        tid: int = 0,
    ) -> None:
        """Record a span with explicit start and duration (sim ns)."""
        self._record(
            TraceEvent(start_ns, PH_COMPLETE, name, cat, dur_ns, args, tid)
        )

    def counter(
        self, name: str, values: dict, cat: str = "", tid: int = 0
    ) -> None:
        """Record a set of numeric series values at the current time."""
        self._record(
            TraceEvent(
                self._clock(), PH_COUNTER, name, cat or name,
                args=dict(values), tid=tid,
            )
        )

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "run",
        args: Optional[dict] = None,
        tid: int = 0,
    ):
        """Measure a block on the tracer's clock as a complete event."""
        start = self._clock()
        try:
            yield
        finally:
            self.complete(name, cat, start, self._clock() - start, args, tid)

    def set_thread_name(self, tid: int, name: str) -> None:
        """Label a tid lane (exported as Chrome ``thread_name`` metadata)."""
        self._thread_names[tid] = name

    # ------------------------------------------------------------------
    # Reading / export
    # ------------------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def categories(self) -> List[str]:
        return sorted({e.cat for e in self._events})

    def chrome_trace(self) -> dict:
        """The full Chrome-trace / Perfetto JSON object."""
        trace_events = [
            {
                "name": "thread_name",
                "ph": PH_METADATA,
                "pid": 1,
                "tid": tid,
                "args": {"name": label},
            }
            for tid, label in sorted(self._thread_names.items())
        ]
        trace_events.extend(e.to_chrome() for e in self._events)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulation-ns/1000",
                "mode": self.mode,
                "dropped_events": self.dropped,
            },
        }

    def export_chrome(self, path) -> Path:
        """Write the Chrome-trace JSON; open in Perfetto/chrome://tracing."""
        # File output is opt-in: its modules load on the first export.
        import json
        from pathlib import Path

        path = Path(path)
        path.write_text(json.dumps(self.chrome_trace()), encoding="utf-8")
        return path

    def export_jsonl(self, path) -> Path:
        """Write one JSON record per event (nanosecond timestamps)."""
        import json
        from pathlib import Path

        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            for event in self._events:
                fh.write(json.dumps(event.to_jsonl()) + "\n")
        return path

    def export(self, path) -> Path:
        """Export by extension: ``.jsonl`` → JSONL, anything else → Chrome."""
        from pathlib import Path

        path = Path(path)
        if path.suffix == ".jsonl":
            return self.export_jsonl(path)
        return self.export_chrome(path)
