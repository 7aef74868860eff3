"""Single-core execution model.

The core pulls a stream of workload events — tuples
``(kind, gap, block, payload)`` with ``kind`` one of the constants in
:mod:`repro.workloads.events` — and advances a local time cursor:

- ``gap`` instructions retire at ``base_cpi`` cycles each;
- ``EV_READ`` issues a memory read; up to ``mlp`` reads overlap, and a
  configurable fraction are *blocking* (the core waits for the data);
- ``EV_WRITE`` enqueues an LLC writeback; the core stalls only if the
  channel's write queue is full (backpressure);
- ``EV_REGISTER`` notifies the RRM of a run of ``count`` LLC writes to
  one block, its payload being ``(dirty, count)``, in one sink call
  (zero core time).

The core re-enters the event loop whenever a stall resolves (read
completion or queue space), so execution is fully event-driven.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.engine import Simulator
from repro.errors import ConfigError, SimulationError
from repro.memctrl.controller import MemoryController
from repro.memctrl.request import MemRequest, RequestType
from repro.workloads.events import EV_READ, EV_REGISTER, EV_WRITE, WorkloadEvent

# Enum member access runs Python code in the enum machinery on every
# lookup; the per-request paths below use these module constants.
_READ = RequestType.READ
_WRITE = RequestType.WRITE


@dataclass(frozen=True)
class CoreParams:
    """Execution parameters of one core.

    Attributes:
        freq_ghz: Core clock frequency.
        base_cpi: Cycles per instruction when memory never stalls (an
            8-issue OoO core sustains well under 1.0 on SPEC).
        mlp: Maximum overlapped outstanding reads (MSHR budget).
        blocking_load_fraction: Fraction of loads whose consumers fill the
            ROB before data returns, forcing the core to wait for that
            specific read.
    """

    freq_ghz: float = 2.0
    base_cpi: float = 0.5
    mlp: int = 16
    blocking_load_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ConfigError("freq_ghz must be positive")
        if self.base_cpi <= 0:
            raise ConfigError("base_cpi must be positive")
        if self.mlp <= 0:
            raise ConfigError("mlp must be positive")
        if not 0.0 <= self.blocking_load_fraction <= 1.0:
            raise ConfigError("blocking_load_fraction must be in [0, 1]")

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz

    @property
    def ns_per_instruction(self) -> float:
        return self.base_cpi * self.cycle_ns


@dataclass
class CoreStats:
    """Progress and stall accounting for one core."""

    retired_instructions: int = 0
    reads_issued: int = 0
    writes_issued: int = 0
    registrations: int = 0
    blocking_stalls: int = 0
    mlp_stalls: int = 0
    write_queue_stalls: int = 0
    read_queue_stalls: int = 0

    def ipc(self, duration_ns: float, freq_ghz: float) -> float:
        """Instructions per cycle over *duration_ns*."""
        cycles = duration_ns * freq_ghz
        return self.retired_instructions / cycles if cycles > 0 else 0.0


# Wait reasons (why the core's event loop is parked).
_W_NONE = 0
_W_BLOCKING = 1  # waiting for a specific read's data
_W_MLP = 2       # waiting for any read completion
_W_SPACE = 3     # waiting for a controller queue slot
_W_TIME = 4      # core time cursor is ahead of sim time


class CoreModel:
    """Drives one workload stream through the memory system."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        events: Iterator[WorkloadEvent],
        controller: MemoryController,
        params: CoreParams = CoreParams(),
        *,
        write_mode_chooser=None,
        register_sink=None,
        end_time_ns: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        """
        Args:
            events: Infinite iterator of workload events.
            write_mode_chooser: Callable block -> n_sets for writebacks
                (the RRM's decision, or a constant for static schemes).
            register_sink: Callable (block, was_dirty, count) receiving
                each run of ``count`` LLC write registrations in one call
                (the RRM's ``register_llc_write``, or None to drop them).
                A two-argument sink fails at the first run.
            end_time_ns: The core parks once its time cursor passes this.
        """
        self.sim = sim
        self.core_id = core_id
        self.params = params
        self.stats = CoreStats()
        self._events = events
        self._controller = controller
        self._choose_mode = write_mode_chooser or (lambda block: 7)
        self._register = register_sink
        self._end_time_ns = end_time_ns
        self._rng = random.Random(seed * 7919 + core_id)

        #: Derived from the frozen params once, off the hot loop.
        self._ns_per_instruction = params.ns_per_instruction

        self._t = 0.0  # core-local time cursor (ns)
        self._outstanding = 0
        self._wait = _W_NONE
        self._pending: Optional[WorkloadEvent] = None
        self._blocking_req_id: Optional[int] = None
        self._exhausted = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin execution at the current simulation time."""
        self.sim.schedule_at(self.sim.now, self._run)

    @property
    def parked(self) -> bool:
        """True once the core has run past its end time or its trace."""
        return self._exhausted or (
            self._end_time_ns is not None and self._t >= self._end_time_ns
        )

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        """Execute events until the core must wait or parks.

        Hot path: the time cursor, the stats, the stream's ``__next__``,
        the register sink and the controller live in locals, and the read
        and write attempts (MLP check, ``can_accept``, the blocking draw,
        the request and its ``enqueue``) run in this frame. ``_t`` and
        ``_pending`` are written back on every way out (the ``finally``).
        Nothing reached from here reads them meanwhile: completions run
        as separate engine events, and the space waiters that an
        enqueue's scheduler kick may fire belong to other producers,
        since a running core has none registered.
        """
        if self._wait not in (_W_NONE, _W_TIME):
            return  # a stale wake-up; the real wake path will re-enter
        self._wait = _W_NONE
        sim = self.sim
        now = sim.now
        end = self._end_time_ns
        if end is None:
            end = math.inf
        stats = self.stats
        next_event = self._events.__next__
        register = self._register
        ns_per_instruction = self._ns_per_instruction
        controller = self._controller
        params = self.params
        mlp = params.mlp
        blocking_fraction = params.blocking_load_fraction
        core_id = self.core_id
        t = self._t
        # The event in hand is parked in ``pending`` (its gap already
        # retired) whenever the loop returns before consuming it.
        pending = self._pending
        try:
            # Past the end time the core parks: the measurement window is
            # over for it.
            while t < end:
                if pending is None:
                    try:
                        kind, gap, block, payload = next_event()
                    except StopIteration:
                        self._exhausted = True
                        return
                    if gap:
                        t += gap * ns_per_instruction
                        stats.retired_instructions += gap
                else:
                    kind, _, block, payload = pending
                    pending = None

                # Anything with a time cost must happen at the cursor time.
                if t > now:
                    pending = (kind, 0, block, payload)
                    self._wait = _W_TIME
                    sim.schedule_at(t, self._wake_time)
                    return

                if kind == EV_REGISTER:
                    was_dirty, count = payload
                    if register is not None:
                        register(block, was_dirty, count)
                    stats.registrations += count
                elif kind == EV_READ:
                    if self._outstanding >= mlp:
                        self._wait = _W_MLP
                        stats.mlp_stalls += 1
                        pending = (kind, 0, block, payload)
                        return  # a read completion will retry
                    if not controller.can_accept(_READ, block):
                        self._wait = _W_SPACE
                        stats.read_queue_stalls += 1
                        controller.notify_space(_READ, block, self._wake_space)
                        pending = (kind, 0, block, payload)
                        return  # a space wake-up will retry
                    blocking = self._rng.random() < blocking_fraction
                    # Positional, in MemRequest's field order: rtype,
                    # block, n_sets, issue_time_ns, deadline_ns, core,
                    # on_complete (the keyword form costs twice as much).
                    request = MemRequest(
                        _READ, block, None, 0.0, None, core_id,
                        self._on_read_complete,
                    )
                    if blocking:
                        self._blocking_req_id = request.req_id
                    controller.enqueue(request)
                    self._outstanding += 1
                    stats.reads_issued += 1
                    if blocking:
                        self._wait = _W_BLOCKING
                        stats.blocking_stalls += 1
                        return  # the core waits for this read's data
                elif kind == EV_WRITE:
                    if not controller.can_accept(_WRITE, block):
                        self._wait = _W_SPACE
                        stats.write_queue_stalls += 1
                        controller.notify_space(
                            _WRITE, block, self._wake_space, self._space_refused
                        )
                        pending = (kind, 0, block, payload)
                        return  # a space wake-up will retry
                    controller.enqueue(
                        MemRequest(
                            _WRITE, block, self._choose_mode(block), 0.0, None,
                            core_id,
                        )
                    )
                    stats.writes_issued += 1
                else:
                    raise SimulationError(f"unknown workload event kind: {kind}")
        finally:
            self._t = t
            self._pending = pending

    def _wake_time(self) -> None:
        if self._wait == _W_TIME:
            self._wait = _W_NONE
            self._run()

    # ------------------------------------------------------------------
    # Wake paths
    # ------------------------------------------------------------------
    def _on_read_complete(self, request: MemRequest, finish_ns: float) -> None:
        self._outstanding -= 1
        if self._outstanding < 0:
            raise SimulationError("core outstanding-read count went negative")
        if self._wait == _W_BLOCKING:
            if request.req_id != self._blocking_req_id:
                return  # still waiting for the dependent load's data
            self._blocking_req_id = None
            self._wait = _W_NONE
            self._t = max(self._t, finish_ns)
            self._run()
        elif self._wait == _W_MLP:
            self._wait = _W_NONE
            self._t = max(self._t, finish_ns)
            self._run()

    def _wake_space(self) -> None:
        """Queue-space wake-up: re-enter the event loop at the current time.

        The loop retries the parked request. Moving the cursor to now is
        exact because a core waiting on space has ``_t <= now``: it
        stalled at its cursor time, and nothing moves the cursor while it
        waits. The controller wakes a write waiter only while the write
        queue has room, so the retry is accepted; a write waiter reached
        with the queue full again gets :meth:`_space_refused` instead.
        """
        if self._wait != _W_SPACE:
            return
        self._wait = _W_NONE
        self._t = self.sim.now
        self._run()

    def _space_refused(self) -> bool:
        """Write-queue refusal hook: the slot this wake-up offered is gone.

        The controller calls this instead of :meth:`_wake_space` when it
        reaches this core's registration with the write queue full again,
        and keeps the registration if it returns True. It is what a pass
        through :meth:`_run` would do there, minus the refused retry's
        ``can_accept`` and ``notify_space`` calls: a stale registration
        is dropped, a core at or past its end time parks for good with
        no stall, and any other core moves its cursor to now and counts
        one more ``write_queue_stalls``.
        """
        if self._wait != _W_SPACE:
            return False
        now = self.sim.now
        end = self._end_time_ns
        if end is not None and now >= end:
            self._wake_space()
            return False
        self._t = now
        self.stats.write_queue_stalls += 1
        return True
