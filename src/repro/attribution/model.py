"""Latency-anatomy data model: cause taxonomy, per-request anatomy, blame.

Every completed memory request's end-to-end latency is decomposed into
named, mutually exclusive causes (DESIGN.md §11):

- **queue wait, blocked** — time spent queued while the request's bank
  was occupied, split by *what* occupied it (the blocker class);
- **queue wait, scheduler** — time spent queued while the bank was free
  (priority inversion, the bounded FR-FCFS window, write-drain gating,
  channel-level bank accounting);
- **base service** — the operation's intrinsic bank time (row-hit read
  time for reads, the write mode's pulse latency for writes/refreshes);
- **row-miss penalty** — extra read service due to a row-buffer miss;
- **pause preemption** — extra write duration accrued while paused by
  reads that cut in at SET boundaries.

The components form a partition of ``[issue, finish]`` on the sim
clock, so they sum to the measured total latency — the conservation
invariant :meth:`RequestAnatomy.conservation_error_ns` quantifies and
the collector enforces in-sim.

Victim and blocker classes share one vocabulary so blamed time can be
aggregated into victim-class × blocker-class matrices
(:class:`BlameMatrix`); the scheduler pseudo-blocker captures free-bank
wait, which has no occupying request to blame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.memctrl.request import MemRequest, RequestType

#: Traffic classes (victims and bank-occupancy blockers).
CLASS_READ = "read"
CLASS_WRITE_FAST = "write_fast"
CLASS_WRITE_SLOW = "write_slow"
CLASS_WRITE_OTHER = "write_other"
CLASS_RRM_FAST_REFRESH = "rrm_fast_refresh"
CLASS_RRM_SLOW_REFRESH = "rrm_slow_refresh"

#: Pseudo-blocker for queue wait while the bank was free: the request
#: was runnable but the scheduler had not picked it (priority, window,
#: drain gating, channel bank accounting).
BLOCKER_SCHEDULER = "scheduler"

#: All victim classes, in report order.
VICTIM_CLASSES: Tuple[str, ...] = (
    CLASS_READ,
    CLASS_WRITE_FAST,
    CLASS_WRITE_SLOW,
    CLASS_WRITE_OTHER,
    CLASS_RRM_FAST_REFRESH,
    CLASS_RRM_SLOW_REFRESH,
)

#: All blocker classes, in report order (occupants + the scheduler).
BLOCKER_CLASSES: Tuple[str, ...] = VICTIM_CLASSES + (BLOCKER_SCHEDULER,)

#: Blocker classes that are RRM refresh traffic (the interference the
#: paper's RRM must keep small).
REFRESH_CLASSES: Tuple[str, ...] = (
    CLASS_RRM_FAST_REFRESH,
    CLASS_RRM_SLOW_REFRESH,
)

#: Conservation slop (ns) tolerated before the in-sim invariant trips.
#: Cut points are nearby sim times, so their differences are exact in
#: double precision (Sterbenz) and the observed error is 0.0; the bound
#: exists so a genuine accounting bug fails loudly rather than drifting.
CONSERVATION_TOLERANCE_NS = 1e-6


def classify_request(
    request: MemRequest, fast_n_sets: int, slow_n_sets: int
) -> str:
    """The taxonomy class of *request* (victim or blocker role alike)."""
    rtype = request.rtype
    if rtype is RequestType.READ:
        return CLASS_READ
    if rtype is RequestType.RRM_REFRESH:
        return CLASS_RRM_FAST_REFRESH
    if rtype is RequestType.RRM_SLOW_REFRESH:
        return CLASS_RRM_SLOW_REFRESH
    if request.n_sets == fast_n_sets:
        return CLASS_WRITE_FAST
    if request.n_sets == slow_n_sets:
        return CLASS_WRITE_SLOW
    return CLASS_WRITE_OTHER


@dataclass
class RequestAnatomy:
    """One request's full latency decomposition (all times in ns).

    ``blocked_ns`` maps blocker class to the queue-wait time the bank
    spent occupied by that class; the remaining wait is
    ``sched_wait_ns``. Service splits into ``service_base_ns`` plus one
    class-specific surcharge (``row_miss_penalty_ns`` for reads,
    ``pause_preempt_ns`` for writes/refreshes paused by reads).

    ``refresh_backpressure_ns`` is the pre-controller time an RRM
    refresh sat in the monitor's pending deque waiting for queue space.
    It happens *before* ``issue_time_ns``, so it is reported alongside
    the anatomy but deliberately excluded from the conservation sum.
    """

    req_id: int
    victim: str
    block: int
    bank_index: int
    channel: int
    issue_ns: float
    start_ns: float = 0.0
    finish_ns: float = 0.0
    blocked_ns: Dict[str, float] = field(default_factory=dict)
    sched_wait_ns: float = 0.0
    service_base_ns: float = 0.0
    row_miss_penalty_ns: float = 0.0
    pause_preempt_ns: float = 0.0
    refresh_backpressure_ns: float = 0.0
    row_hit: Optional[bool] = None
    #: Older same-queue entries skipped by FR-FCFS when this issued.
    bypassed: int = 0

    @property
    def total_ns(self) -> float:
        """Measured end-to-end latency (issue to finish)."""
        return self.finish_ns - self.issue_ns

    @property
    def wait_ns(self) -> float:
        """Measured queue wait (issue to bank start)."""
        return self.start_ns - self.issue_ns

    @property
    def blocked_total_ns(self) -> float:
        return math.fsum(self.blocked_ns.values())

    def components(self) -> Dict[str, float]:
        """The named, mutually exclusive causes, as one flat dict."""
        out = {f"wait_{cls}": ns for cls, ns in self.blocked_ns.items()}
        out["wait_scheduler"] = self.sched_wait_ns
        out["service_base"] = self.service_base_ns
        out["row_miss_penalty"] = self.row_miss_penalty_ns
        out["pause_preempt"] = self.pause_preempt_ns
        return out

    def components_sum_ns(self) -> float:
        """Exact (fsum) total of every cause component."""
        return math.fsum(self.components().values())

    def conservation_error_ns(self) -> float:
        """How far the components are from the measured total latency."""
        return abs(self.components_sum_ns() - self.total_ns)

    @property
    def refresh_blamed_ns(self) -> float:
        """Queue wait blamed on RRM refresh occupancy of the bank."""
        return math.fsum(
            self.blocked_ns.get(cls, 0.0) for cls in REFRESH_CLASSES
        )

    def to_json_dict(self) -> dict:
        return {
            "req_id": self.req_id,
            "victim": self.victim,
            "block": self.block,
            "bank": self.bank_index,
            "channel": self.channel,
            "issue_ns": self.issue_ns,
            "start_ns": self.start_ns,
            "finish_ns": self.finish_ns,
            "total_ns": self.total_ns,
            "components_ns": self.components(),
            "refresh_backpressure_ns": self.refresh_backpressure_ns,
            "row_hit": self.row_hit,
            "bypassed": self.bypassed,
        }

    def trace_args(self) -> dict:
        """Compact non-zero component map for Chrome-trace span args."""
        out = {
            key: value for key, value in self.components().items() if value
        }
        if self.refresh_backpressure_ns:
            out["refresh_backpressure"] = self.refresh_backpressure_ns
        return out


class BlameMatrix:
    """Victim-class × blocker-class blamed-time accumulator (ns)."""

    def __init__(self) -> None:
        self._cells: Dict[Tuple[str, str], float] = {}
        self.victim_counts: Dict[str, int] = {}
        self.victim_latency_ns: Dict[str, float] = {}

    def add(self, victim: str, blocker: str, ns: float) -> None:
        if ns:
            key = (victim, blocker)
            self._cells[key] = self._cells.get(key, 0.0) + ns

    def add_victim(self, victim: str, total_latency_ns: float) -> None:
        """Record one completed request of class *victim*."""
        self.victim_counts[victim] = self.victim_counts.get(victim, 0) + 1
        self.victim_latency_ns[victim] = (
            self.victim_latency_ns.get(victim, 0.0) + total_latency_ns
        )

    def get(self, victim: str, blocker: str) -> float:
        return self._cells.get((victim, blocker), 0.0)

    def victims(self) -> List[str]:
        """Victim classes seen, in canonical order (unknowns last)."""
        seen = set(self.victim_counts) | {v for v, _ in self._cells}
        ordered = [cls for cls in VICTIM_CLASSES if cls in seen]
        ordered.extend(sorted(seen - set(VICTIM_CLASSES)))
        return ordered

    def blockers(self) -> List[str]:
        seen = {b for _, b in self._cells}
        ordered = [cls for cls in BLOCKER_CLASSES if cls in seen]
        ordered.extend(sorted(seen - set(BLOCKER_CLASSES)))
        return ordered

    def blocker_total(self, blocker: str) -> float:
        return math.fsum(
            ns for (_, b), ns in self._cells.items() if b == blocker
        )

    def victim_total(self, victim: str) -> float:
        return math.fsum(
            ns for (v, _), ns in self._cells.items() if v == victim
        )

    @property
    def total_blamed_ns(self) -> float:
        return math.fsum(self._cells.values())

    def merge(self, other: "BlameMatrix") -> None:
        for (victim, blocker), ns in other._cells.items():
            self.add(victim, blocker, ns)
        for victim, n in other.victim_counts.items():
            self.victim_counts[victim] = (
                self.victim_counts.get(victim, 0) + n
            )
        for victim, ns in other.victim_latency_ns.items():
            self.victim_latency_ns[victim] = (
                self.victim_latency_ns.get(victim, 0.0) + ns
            )

    def rows(self) -> Iterable[Tuple[str, Dict[str, float]]]:
        """(victim, {blocker: ns}) rows in canonical order."""
        for victim in self.victims():
            yield victim, {
                blocker: self.get(victim, blocker)
                for blocker in self.blockers()
                if self.get(victim, blocker)
            }

    def to_json_dict(self) -> dict:
        return {
            "cells": [
                {"victim": v, "blocker": b, "blamed_ns": ns}
                for (v, b), ns in sorted(self._cells.items())
            ],
            "victim_counts": dict(sorted(self.victim_counts.items())),
            "victim_latency_ns": dict(
                sorted(self.victim_latency_ns.items())
            ),
        }
