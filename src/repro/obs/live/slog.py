"""Structured JSONL logging with bound correlation fields.

One log record per line, one JSON object per record, always carrying the
correlation chain that threads the fabric together::

    {"stamp": 1719403055.2, "level": "info", "event": "job.claimed",
     "sweep": "sweep-001", "job": "stress_write/rrm", "worker": 2,
     "attempt": 1}

A :class:`StructuredLogger` is cheap to fork: :meth:`bind` returns a
child that shares the parent's sink (stream, lock, counters) and merges
in extra fields, so the supervisor binds ``sweep``, hands workers a
logger bound to ``worker``, and each attempt binds ``job``/``attempt`` —
every line downstream carries the whole chain without any call site
threading ids by hand.

Emission is serialized under the sink's lock (multiple threads of one
process may share a logger; separate *processes* get separate loggers
writing to their own streams or inherit line-buffered stderr, where the
kernel keeps whole ``write()`` calls intact for line-sized payloads).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, Optional

__all__ = ["StructuredLogger"]


class _LogSink:
    """Shared emission state behind one or more bound loggers."""

    def __init__(
        self,
        stream,
        *,
        clock: Callable[[], float] = time.time,
        mirror: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.stream = stream
        self.mirror = mirror
        self.records_emitted = 0
        self.records_dropped = 0
        self._clock = clock
        self._lock = threading.Lock()

    def register_metrics(self, registry, prefix: str = "obs.log") -> None:
        """Publish the sink's counters into a telemetry registry."""
        registry.gauge(f"{prefix}.records_emitted", lambda: self.records_emitted)
        registry.gauge(f"{prefix}.records_dropped", lambda: self.records_dropped)

    def emit(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            try:
                self.stream.write(line + "\n")
                self.stream.flush()
                self.records_emitted += 1
            except (OSError, ValueError):
                # Stream gone (broken pipe, closed stderr at teardown):
                # logging must never take the worker down with it.
                self.records_dropped += 1
        if self.mirror is not None:
            self.mirror(record)


class StructuredLogger:
    """A logger carrying bound correlation fields.

    Args:
        stream: Destination for JSON lines (e.g. ``sys.stderr`` or an
            open log file). Required for the root logger.
        fields: Initial bound fields (``sweep=...``, ``worker=...``).
        clock: Wall-clock source for the ``stamp`` field, injectable
            for tests.
        mirror: Optional callback invoked with every record *after*
            emission — how the flight recorder taps the log stream.
    """

    def __init__(
        self,
        stream=None,
        *,
        fields: Optional[Dict[str, Any]] = None,
        clock: Callable[[], float] = time.time,
        mirror: Optional[Callable[[dict], None]] = None,
        _sink: Optional[_LogSink] = None,
    ) -> None:
        if _sink is not None:
            self._sink = _sink
        else:
            if stream is None:
                import sys

                stream = sys.stderr
            self._sink = _LogSink(stream, clock=clock, mirror=mirror)
        self.fields: Dict[str, Any] = dict(fields or {})

    # ------------------------------------------------------------------
    @property
    def records_emitted(self) -> int:
        return self._sink.records_emitted

    def register_metrics(self, registry, prefix: str = "obs.log") -> None:
        """Publish the shared sink's counters into a telemetry registry."""
        self._sink.register_metrics(registry, prefix)

    def bind(self, **fields: Any) -> "StructuredLogger":
        """A child logger sharing this sink with *fields* merged in."""
        merged = dict(self.fields)
        merged.update(fields)
        return StructuredLogger(fields=merged, _sink=self._sink)

    def event(self, name: str, level: str = "info", **fields: Any) -> dict:
        """Emit one record; returns it (tests assert on the dict)."""
        record: Dict[str, Any] = {
            "stamp": self._sink._clock(),
            "level": level,
            "event": name,
        }
        record.update(self.fields)
        record.update(fields)
        self._sink.emit(record)
        return record

    def error(self, name: str, **fields: Any) -> dict:
        return self.event(name, level="error", **fields)

    def warn(self, name: str, **fields: Any) -> dict:
        return self.event(name, level="warn", **fields)

