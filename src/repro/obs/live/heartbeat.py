"""Per-worker heartbeats and the fleet-level aggregate view.

Fabric workers periodically publish a heartbeat record — pid, current
job, attempt, jobs done, cumulative busy time and simulated events, RSS
— over the existing one-way event channel (event name
:data:`HEARTBEAT_EVENT`). The coordinator feeds them into a
:class:`FleetStatus`, which keeps the latest record per worker and
derives staleness from an injected monotonic clock: a worker whose last
beat is older than ``stale_after_s`` is flagged, which is how a hung or
silently-dead worker becomes visible *before* its lease expires.

Heartbeats are advisory telemetry: they never influence scheduling or
results (bit-identity with observability off is an acceptance test).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "HEARTBEAT_EVENT",
    "FleetStatus",
    "make_heartbeat",
    "read_rss_bytes",
]

#: Event-channel name heartbeat records travel under. The coordinator's
#: dispatcher routes it to :meth:`FleetStatus.observe`; ``on_event``
#: listeners can filter on it.
HEARTBEAT_EVENT = "fabric.heartbeat"


def read_rss_bytes() -> int:
    """Resident set size of the calling process, in bytes (0 if unknown).

    Prefers ``/proc/self/status`` (current RSS); falls back to
    ``ru_maxrss`` (peak RSS) where /proc is absent.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
    except (ImportError, OSError, ValueError):
        return 0


def make_heartbeat(
    *,
    worker: int,
    pid: Optional[int] = None,
    job: Optional[str] = None,
    attempt: int = 0,
    jobs_done: int = 0,
    busy_s: float = 0.0,
    sim_events: int = 0,
    rss_bytes: Optional[int] = None,
) -> Dict[str, Any]:
    """Build one heartbeat record (the wire format, a plain dict).

    ``job`` is ``"workload/scheme"`` while a claim is held, ``None``
    when idle. ``busy_s`` and ``sim_events`` are cumulative for the
    worker's lifetime, so the aggregate throughput
    ``sim_events / busy_s`` is robust to missed beats.
    """
    return {
        "worker": worker,
        "pid": pid if pid is not None else os.getpid(),
        "job": job,
        "attempt": attempt,
        "jobs_done": jobs_done,
        "busy_s": busy_s,
        "sim_events": sim_events,
        "rss_bytes": rss_bytes if rss_bytes is not None else read_rss_bytes(),
    }


class FleetStatus:
    """Latest-heartbeat-per-worker aggregate with stale detection.

    Args:
        stale_after_s: Age beyond which a worker is flagged stale.
        clock: Monotonic clock, injectable so tests expire workers
            deterministically (the RL011 discipline: no wall-clock
            reads in staleness logic).

    Thread-safe: the coordinator thread observes while other threads
    may read ``workers()``/``totals()``.
    """

    def __init__(
        self,
        *,
        stale_after_s: float = 15.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.stale_after_s = stale_after_s
        self.heartbeats_seen = 0
        self._clock = clock
        self._lock = threading.Lock()
        self._workers: Dict[int, Dict[str, Any]] = {}
        self._last_seen: Dict[int, float] = {}

    def register_metrics(self, registry, prefix: str = "fleet") -> None:
        """Publish fleet aggregates into a telemetry registry."""
        registry.gauge(f"{prefix}.heartbeats_seen", lambda: self.heartbeats_seen)
        for key in (
            "workers",
            "stale_workers",
            "jobs_done",
            "busy_s",
            "sim_events",
            "sim_events_per_sec",
            "rss_bytes",
        ):
            registry.gauge(
                f"{prefix}.{key}", lambda k=key: float(self.totals()[k])
            )

    # ------------------------------------------------------------------
    def observe(self, args: Dict[str, Any]) -> None:
        """Record one heartbeat (the coordinator's dispatch target)."""
        worker = int(args.get("worker", -1))
        with self._lock:
            self.heartbeats_seen += 1
            self._workers[worker] = dict(args)
            self._last_seen[worker] = self._clock()

    def mark_done(self, worker: int) -> None:
        """Flag a cleanly-exited worker: kept in the table (its totals
        still count) but never reported stale."""
        with self._lock:
            if worker in self._workers:
                self._workers[worker]["exited"] = True

    # ------------------------------------------------------------------
    def workers(self) -> List[Dict[str, Any]]:
        """Latest record per worker, annotated with ``age_s``/``stale``."""
        with self._lock:
            snap = self._clock()
            out = []
            for worker in sorted(self._workers):
                record = dict(self._workers[worker])
                age_s = max(snap - self._last_seen[worker], 0.0)
                record["age_s"] = age_s
                record["stale"] = (
                    age_s > self.stale_after_s and not record.get("exited")
                )
                out.append(record)
            return out

    def totals(self) -> Dict[str, Any]:
        """Fleet-wide aggregates derived from the latest records."""
        records = self.workers()
        busy_s = sum(r.get("busy_s", 0.0) for r in records)
        sim_events = sum(r.get("sim_events", 0) for r in records)
        return {
            "workers": len(records),
            "stale_workers": sum(1 for r in records if r["stale"]),
            "jobs_done": sum(r.get("jobs_done", 0) for r in records),
            "busy_s": busy_s,
            "sim_events": sim_events,
            "sim_events_per_sec": (sim_events / busy_s) if busy_s > 0 else 0.0,
            "rss_bytes": sum(r.get("rss_bytes", 0) for r in records),
        }
