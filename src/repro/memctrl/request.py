"""Memory request records exchanged between CPU/RRM and the controller."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

_request_ids = itertools.count()


class RequestType(enum.Enum):
    """Classes of memory traffic, ordered by controller priority."""

    #: RRM selective refresh (fast, 3-SETs) — hard retention deadline.
    RRM_REFRESH = "rrm_refresh"
    #: Demotion rewrite (slow, 7-SETs) issued when a hot entry decays.
    RRM_SLOW_REFRESH = "rrm_slow_refresh"
    #: Demand read (LLC miss fill).
    READ = "read"
    #: Demand write (LLC dirty writeback).
    WRITE = "write"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with equality; it spares every per-class queue lookup
    # the Python-level ``Enum.__hash__``.
    __hash__ = object.__hash__


@dataclass(slots=True)
class MemRequest:
    """One block-granularity memory request.

    Slotted: one is built per memory access, and the scheduler reads its
    fields on every queue scan.

    Attributes:
        rtype: Traffic class.
        block: Block index (byte address >> 6).
        n_sets: Write mode (SET count) for writes/refreshes; None for reads.
        issue_time_ns: When the requester handed it to the controller.
        deadline_ns: Absolute completion deadline (RRM refreshes carry the
            retention expiry time; the controller records violations).
        core: Originating core id for demand traffic (stats only).
        on_complete: Callback fired when service finishes, with the
            request and its completion time — used by the CPU model to
            unblock loads (one bound method serves all of a core's reads).
    """

    rtype: RequestType
    block: int
    n_sets: Optional[int] = None
    issue_time_ns: float = 0.0
    deadline_ns: Optional[float] = None
    core: Optional[int] = None
    on_complete: Optional[Callable[[MemRequest, float], None]] = None
    req_id: int = field(default_factory=_request_ids.__next__)

    start_time_ns: Optional[float] = None
    finish_time_ns: Optional[float] = None
    #: Flat bank index (channel * banks_per_channel + bank), filled once
    #: by the controller at enqueue; lets the scheduler's ready-scan use
    #: a list lookup.
    bank_index: int = -1
    #: Device row of the block, also filled at enqueue.
    row: int = -1
    #: When the producer created the request, if before it could reach
    #: the controller (RRM refreshes held back by a full refresh queue);
    #: issue_time_ns - generated_time_ns is the pre-queue backpressure.
    generated_time_ns: Optional[float] = None
    #: Latency-anatomy record attached by the attribution collector;
    #: None unless attribution is enabled for the run.
    anatomy: object = None

    @property
    def is_write(self) -> bool:
        return self.rtype is not RequestType.READ

    @property
    def latency_ns(self) -> Optional[float]:
        """Queue + service latency, if the request has completed."""
        if self.finish_time_ns is None:
            return None
        return self.finish_time_ns - self.issue_time_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemRequest({self.rtype.value}, block={self.block}, "
            f"n_sets={self.n_sets}, t={self.issue_time_ns})"
        )
