"""Heap-based discrete-event simulator.

The engine is intentionally minimal: a priority queue of ``[time, seq,
callback, args]`` entries, a current-time cursor, and helpers for
periodic events.
All higher-level behaviour (memory scheduling, refresh interrupts, decay
ticks) is built from these primitives.

There is one scheduling path and one dispatch path. Observers attach from
outside by wrapping :meth:`Simulator.schedule_at`: the profile's dispatch
counts (:func:`repro.profiling.count_dispatches`) and the speed
benchmark's tracer both do.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

EventCallback = Callable[..., None]


#: A scheduled event, and its cancel handle: ``[time, seq, callback,
#: args]``. :meth:`Simulator.cancel` sets the callback to None.
EventHandle = List[Any]


class Simulator:
    """Discrete-event simulation core.

    Usage::

        sim = Simulator()
        sim.schedule_at(100.0, lambda: ...)
        sim.run(until=1_000_000.0)

    ``now`` (ns), ``events_processed`` and ``events_cancelled`` are plain
    attributes, current at every callback; only :meth:`run` writes them.
    """

    def __init__(self) -> None:
        self._queue: List[EventHandle] = []
        #: Current simulation time in nanoseconds.
        self.now = 0.0
        self._seq = 0
        #: Number of callbacks executed so far.
        self.events_processed = 0
        #: Number of cancelled events the run loop has discarded.
        self.events_cancelled = 0
        self._running = False
        self._stopped = False

    @property
    def events_scheduled(self) -> int:
        """Number of events ever scheduled (processed, pending or cancelled)."""
        return self._seq

    @property
    def pending_events(self) -> int:
        """Number of queued (non-cancelled) events."""
        return sum(1 for event in self._queue if event[2] is not None)

    def register_metrics(self, registry, prefix: str = "engine") -> None:
        """Publish the engine's counters into a telemetry registry."""
        registry.gauge(f"{prefix}.now_ns", lambda: self.now)
        registry.gauge(f"{prefix}.events_processed", lambda: self.events_processed)
        registry.gauge(f"{prefix}.events_scheduled", lambda: self._seq)
        registry.gauge(f"{prefix}.events_cancelled", lambda: self.events_cancelled)
        registry.gauge(f"{prefix}.pending_events", lambda: self.pending_events)

    def schedule_at(
        self, time: float, callback: EventCallback, *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute *time* (ns). Returns
        the heap entry, which is also the handle :meth:`cancel` takes.

        Passing a bound method and its arguments, rather than a closure,
        spares the hot paths one function object per event.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        # ``seq`` is unique, so the heap's list comparison is decided by
        # ``(time, seq)`` and never reaches the callback.
        event: EventHandle = [time, seq, callback, args]
        heappush(self._queue, event)
        return event

    @staticmethod
    def cancel(event: EventHandle) -> None:
        """Cancel a scheduled *event*: the run loop discards it when it
        reaches the head, counting it in ``events_cancelled``."""
        event[2] = None

    def schedule_after(
        self, delay: float, callback: EventCallback, *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after *delay* ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_periodic(
        self,
        period: float,
        callback: EventCallback,
        *,
        start: Optional[float] = None,
    ) -> EventHandle:
        """Schedule *callback* to repeat every *period* ns.

        The first firing is at *start* (default: one period from now). The
        returned event is the first occurrence; cancelling it stops the
        chain only before it first fires. For a stoppable periodic task,
        have the callback raise StopIteration — the chain then ends.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        first = self.now + period if start is None else start

        def tick() -> None:
            try:
                callback()
            except StopIteration:
                return
            self.schedule_after(period, tick)

        # Names the repeated callback, so a dispatch observer can charge
        # the chain to it rather than to this closure.
        tick.__wrapped__ = callback  # type: ignore[attr-defined]
        return self.schedule_at(first, tick)

    def stop(self) -> None:
        """Stop the run loop after the current callback returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until the queue empties, *until* is reached, or
        *max_events* callbacks have run. Returns the final simulation time.

        When *until* is given and no event at or before it is left, time
        advances exactly to *until* even if the last event fired earlier,
        so rate computations (events / elapsed time) are well defined. A
        run cut short by *max_events* or :meth:`stop` leaves the clock at
        the last dispatched event, so a later run never moves time
        backwards. Cancelled events are discarded without counting toward
        *max_events*.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        queue = self._queue
        horizon = math.inf if until is None else until
        # The run ends before the callback that would exceed max_events.
        last = (
            math.inf if max_events is None else self.events_processed + max_events
        )
        try:
            while queue and not self._stopped:
                # Pop first: the entry goes back only when the run stops
                # short of it, once per run rather than a peek per event.
                entry = heappop(queue)
                callback = entry[2]
                if callback is None:
                    self.events_cancelled += 1
                    continue
                time = entry[0]
                if time > horizon or self.events_processed >= last:
                    heappush(queue, entry)
                    break
                self.now = time
                callback(*entry[3])
                self.events_processed += 1
        finally:
            self._running = False
        # A live entry left at the head is the next event: the clock moves
        # to *until* only if that event lies past it.
        if until is not None and not self._stopped and (
            not queue or queue[0][0] > until
        ):
            self.now = max(self.now, until)
        return self.now
