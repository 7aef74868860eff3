"""PCM bank model: row buffer, busy tracking and write pausing.

Banks are the unit of service concurrency inside the PCM device. Each bank
has a row buffer managed with an open-page policy; writes go *through* the
bank (bypassing the row buffer, paper Table V) and occupy it for the write
pulse time; reads occupy it for the activate/access time.

Write pausing (Qureshi et al., HPCA 2010) lets a read preempt an in-flight
write at the next SET-iteration boundary; the paused write resumes once
the read completes. This is the key mechanism through which long writes
hurt read latency — and thus why the paper's fast 3-SETs writes improve
IPC so much.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import SimulationError
from repro.pcm.timing import PCMTimings


@dataclass
class RowBuffer:
    """Open-page row buffer of one bank."""

    open_row: Optional[int] = None
    hits: int = 0
    misses: int = 0

    def access(self, row: int) -> bool:
        """Access *row*; returns True on a row-buffer hit and updates the
        open row on a miss."""
        if self.open_row == row:
            self.hits += 1
            return True
        self.misses += 1
        self.open_row = row
        return False

    @property
    def hit_rate(self) -> float:
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0

    def register_metrics(self, registry, prefix: str) -> None:
        """Publish row-buffer locality counters into *registry*."""
        registry.gauge(f"{prefix}.hits", lambda: self.hits)
        registry.gauge(f"{prefix}.misses", lambda: self.misses)
        registry.derived(f"{prefix}.hit_rate", lambda: self.hit_rate)


@dataclass(slots=True)
class _InFlightWrite:
    """Book-keeping for a write currently occupying the bank."""

    start_ns: float
    end_ns: float
    #: Absolute times at which the write may be paused, ascending.
    boundaries_ns: Tuple[float, ...]
    pauses: int = 0


@dataclass
class Bank:
    """One PCM bank.

    The bank does not know about queues or priorities — the memory
    controller decides *what* to schedule; the bank answers *when* it can
    be serviced and tracks occupancy.
    """

    timings: PCMTimings = field(default_factory=PCMTimings)
    allow_write_pausing: bool = True
    max_pauses_per_write: int = 4

    row_buffer: RowBuffer = field(default_factory=RowBuffer)
    busy_until: float = 0.0
    reads_served: int = 0
    writes_served: int = 0
    write_pauses: int = 0
    busy_time_ns: float = 0.0
    #: Total time added to in-flight writes by reads cutting in at SET
    #: boundaries — the bank-side view of write-pause preemption.
    pause_time_ns: float = 0.0

    _in_flight_write: Optional[_InFlightWrite] = None

    def __post_init__(self) -> None:
        # Read service times, summed once: PCMTimings is frozen, and its
        # properties add floats on every access.
        self._row_hit_read_ns = self.timings.row_hit_read_ns
        self._row_miss_read_ns = self.timings.row_miss_read_ns

    def read_start_time(self, now: float) -> float:
        """Earliest time a *read* could start, exploiting write pausing.

        A pausable in-flight write yields its next pause boundary at or
        after *now*. Boundaries are ascending (a pause shifts every later
        one by the same amount), so the first one at/after *now* is the
        earliest; the write cannot pause at or past its end. Otherwise the
        read waits for the bank to free.

        The bank never frees before its in-flight write ends, so a read
        start before :attr:`busy_until` is exactly a pause.
        """
        write = self._in_flight_write
        if (
            write is not None
            and now < write.end_ns
            and write.pauses < self.max_pauses_per_write
            and self.allow_write_pausing
        ):
            for boundary in write.boundaries_ns:
                if boundary >= now:
                    if boundary < write.end_ns:
                        return boundary
                    break
        busy_until = self.busy_until
        return busy_until if busy_until > now else now

    def schedule_read(self, now: float, row: int) -> Tuple[float, float, bool]:
        """Schedule a block read of *row* at or after *now*.

        Returns ``(start, finish, row_hit)``. If a pausable write is in
        flight, the read preempts it at the next SET boundary and the write
        is pushed back by the read's service time.
        """
        write = self._in_flight_write
        if write is not None and now < write.end_ns:
            start = self.read_start_time(now)
        else:
            # No write can pause: the read waits for the bank to free.
            busy_until = self.busy_until
            start = busy_until if busy_until > now else now
        row_buffer = self.row_buffer
        if row_buffer.open_row == row:
            row_buffer.hits += 1
            hit = True
            service = self._row_hit_read_ns
        else:
            row_buffer.misses += 1
            row_buffer.open_row = row
            hit = False
            service = self._row_miss_read_ns
        finish = start + service

        if write is not None and start < self.busy_until:
            # A pause (see read_start_time).
            remaining = write.end_ns - start
            if remaining < 0:
                raise SimulationError("pause boundary after write end")
            write.end_ns = finish + remaining
            write.pauses += 1
            # Shift the not-yet-executed boundaries past the read.
            write.boundaries_ns = tuple(
                [b + service if b > start else b for b in write.boundaries_ns]
            )
            self.write_pauses += 1
            self.pause_time_ns += service
            self.busy_until = write.end_ns
        else:
            self.busy_until = finish

        self.reads_served += 1
        self.busy_time_ns += service
        return start, finish, hit

    def schedule_write(
        self,
        now: float,
        row: int,
        latency_ns: float,
        pause_boundaries_ns: Tuple[float, ...] = (),
    ) -> Tuple[float, float]:
        """Schedule a block write at or after *now*; returns (start, finish).

        *pause_boundaries_ns* are offsets from the write start at which the
        write may later be paused by a read (the write mode's SET
        boundaries).
        """
        busy_until = self.busy_until
        start = busy_until if busy_until > now else now
        finish = start + latency_ns
        # Positional (start_ns, end_ns, boundaries_ns): a keyword call
        # costs more. A list comprehension builds the shifted boundaries
        # faster than ``map(start.__add__, ...)`` on CPython 3.11.
        self._in_flight_write = _InFlightWrite(
            start, finish, tuple([start + b for b in pause_boundaries_ns])
        )
        self.busy_until = finish
        self.writes_served += 1
        self.busy_time_ns += latency_ns
        # Write-through: the row buffer is bypassed, so the open row is
        # unchanged (paper Table V, "Misc").
        if not self.timings.write_through:
            self.row_buffer.access(row)
        return start, finish

    def last_write_end(self) -> Optional[float]:
        """End time of the bank's most recent write, if it has had one.

        The record is never cleared when the write finishes, so this is
        the end of the last write even after that write is over (a write
        ending at 1000 ns, then a read at 5000 ns: still 1000.0), as the
        name says. Its one production caller,
        :meth:`~repro.memctrl.controller.MemoryController._issue`,
        consults it only while the controller tracks a write in flight
        on this bank, where the value is that write's (possibly
        pause-extended) end.
        """
        if self._in_flight_write is None:
            return None
        return self._in_flight_write.end_ns

    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of *elapsed_ns* the bank spent busy."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_time_ns / elapsed_ns)

    def register_metrics(self, registry, prefix: str) -> None:
        """Publish per-bank service counters into *registry*."""
        registry.gauge(f"{prefix}.reads_served", lambda: self.reads_served)
        registry.gauge(f"{prefix}.writes_served", lambda: self.writes_served)
        registry.gauge(f"{prefix}.write_pauses", lambda: self.write_pauses)
        registry.gauge(f"{prefix}.busy_time_ns", lambda: self.busy_time_ns)
        registry.gauge(f"{prefix}.pause_time_ns", lambda: self.pause_time_ns)
        self.row_buffer.register_metrics(registry, f"{prefix}.row_buffer")
