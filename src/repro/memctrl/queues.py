"""Bounded request queues with the paper's priority ordering.

Each channel owns a :class:`QueueSet`: an RRM refresh queue (64 entries,
highest priority), a read queue (32 entries, middle priority) and a write
queue (64 entries, lowest priority). Queues are FIFO within a class; the
controller's scheduler (``MemoryController._kick``) may still pick a
younger request whose bank is free, FR-FCFS style, by scanning a bounded
window of :attr:`BoundedQueue._entries` in place.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.errors import QueueFullError
from repro.memctrl.request import MemRequest, RequestType


@dataclass
class BoundedQueue:
    """FIFO queue with a hardware capacity."""

    capacity: int
    name: str = "queue"
    _entries: Deque[MemRequest] = field(default_factory=deque)
    peak_occupancy: int = 0
    total_enqueued: int = 0
    rejected: int = 0
    #: Optional ``(queue, request, n_bypassed)`` callback fired when the
    #: scheduler removes an entry out of FIFO order; installed by the
    #: controller only when latency attribution is enabled, so the hot
    #: path pays nothing by default.
    issue_observer: Optional[Callable[["BoundedQueue", MemRequest, int], None]] = None
    #: One-shot ``(callback, refuse)`` producer registrations waiting for
    #: a free slot, in arrival order; the controller swaps in a fresh
    #: list and hands the slot on when it issues an entry out of this
    #: queue (``MemoryController.notify_space``).
    space_waiters: List[
        Tuple[Callable[[], None], Optional[Callable[[], bool]]]
    ] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def push(self, request: MemRequest) -> None:
        """Enqueue; raises :class:`QueueFullError` if at capacity.

        Callers that model backpressure must check :attr:`full` first —
        an unchecked overflow is a protocol bug, not a hardware behaviour.
        ``MemoryController.enqueue`` applies the same check and counters
        inline, once per request.
        """
        entries = self._entries
        depth = len(entries)
        if depth >= self.capacity:
            self.rejected += 1
            raise QueueFullError(f"{self.name} full at {self.capacity} entries")
        entries.append(request)
        self.total_enqueued += 1
        if depth >= self.peak_occupancy:
            self.peak_occupancy = depth + 1

    def pop(self) -> MemRequest:
        """Dequeue the oldest request."""
        return self._entries.popleft()

    def peek(self) -> Optional[MemRequest]:
        return self._entries[0] if self._entries else None

    def note_issue(self, request: MemRequest, n_bypassed: int) -> None:
        """Report an out-of-queue pick to the issue observer, if any.

        *n_bypassed* is the number of older entries the FR-FCFS scan
        skipped — the reordering depth latency attribution records on
        the request's anatomy.
        """
        if self.issue_observer is not None:
            self.issue_observer(self, request, n_bypassed)

    def register_metrics(self, registry, prefix: str) -> None:
        """Publish queue pressure counters into *registry*."""
        registry.gauge(f"{prefix}.depth", lambda: len(self._entries))
        registry.gauge(f"{prefix}.peak_occupancy", lambda: self.peak_occupancy)
        registry.gauge(f"{prefix}.total_enqueued", lambda: self.total_enqueued)
        registry.gauge(f"{prefix}.rejected", lambda: self.rejected)

    def __iter__(self) -> Iterable[MemRequest]:
        return iter(self._entries)


@dataclass
class QueueSet:
    """The three per-channel queues, in priority order."""

    refresh_capacity: int = 64
    read_capacity: int = 32
    write_capacity: int = 64

    def __post_init__(self) -> None:
        self.refresh_queue = BoundedQueue(self.refresh_capacity, name="rrm-refresh-q")
        self.read_queue = BoundedQueue(self.read_capacity, name="read-q")
        self.write_queue = BoundedQueue(self.write_capacity, name="write-q")
        #: The queue each request class maps to.
        self.by_type: Dict[RequestType, BoundedQueue] = {
            RequestType.RRM_REFRESH: self.refresh_queue,
            RequestType.RRM_SLOW_REFRESH: self.refresh_queue,
            RequestType.READ: self.read_queue,
            RequestType.WRITE: self.write_queue,
        }

    def in_priority_order(self) -> List[BoundedQueue]:
        """Queues from highest to lowest scheduling priority."""
        return [self.refresh_queue, self.read_queue, self.write_queue]

    @property
    def total_pending(self) -> int:
        return sum(len(q) for q in self.in_priority_order())
