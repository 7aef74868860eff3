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

The event loop is a generator that yields whenever the core must wait;
the wake path of the stall (the cursor time, a read completion or queue
space) resumes it, so execution is fully event-driven.
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


# Wait reasons: the stall a wake path must find to resume the loop. A
# wait for the cursor time needs none, since only its own engine event
# resumes it.
_W_NONE = 0
_W_BLOCKING = 1  # waiting for a specific read's data
_W_MLP = 2       # waiting for any read completion
_W_SPACE = 3     # waiting for a controller queue slot


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
        self._blocking_req_id: Optional[int] = None
        self._exhausted = False
        #: Resumes the suspended event loop (:meth:`_loop`).
        self._resume = self._loop().__next__

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
        """Resume the event loop where it last waited.

        The start event, read completions and space wake-ups resume the
        loop through here; the time wake resumes it directly.
        """
        self._resume()

    def _loop(self) -> Iterator[None]:
        """The core's event loop: execute events until the core must
        wait, then yield until a wake path resumes it.

        One generator per core, created with the core and first resumed
        by :meth:`start`, so the time cursor, the stats, the stream's
        ``__next__``, the register sink and the controller are read into
        locals once, and the event the core waits to retry stays in
        hand across the wait. The read and write attempts (MLP check,
        ``can_accept``, the blocking draw, the request and its
        ``enqueue``) run in this frame. The cursor is written back to
        ``_t`` before every ``yield``, because :attr:`parked` and the
        wake paths read it, and re-read after, because a wake path may
        have moved it.

        No wake can reach the loop while it runs (resuming a running
        generator raises ValueError): completions run as separate
        engine events, and the space waiters that an enqueue's
        scheduler kick may fire belong to other producers, since a
        running core has none registered. The loop never ends, so no
        wake can find it finished: a parked core yields for good.
        """
        sim = self.sim
        end = self._end_time_ns
        if end is None:
            end = math.inf
        stats = self.stats
        next_event = self._events.__next__
        register = self._register
        ns_per_instruction = self._ns_per_instruction
        controller = self._controller
        mlp = self.params.mlp
        blocking_fraction = self.params.blocking_load_fraction
        draw = self._rng.random
        choose_mode = self._choose_mode
        core_id = self.core_id
        on_read_complete = self._on_read_complete
        wake_time = self._wake_time
        wake_space = self._wake_space
        space_refused = self._space_refused
        t = self._t
        now = sim.now
        # Past the end time the core parks: the measurement window is
        # over for it.
        while t < end:
            try:
                kind, gap, block, payload = next_event()
            except StopIteration:
                self._exhausted = True
                break
            if gap:
                t += gap * ns_per_instruction
                stats.retired_instructions += gap
            # Each pass after the first retries the event after a wake.
            while True:
                # Anything with a time cost must happen at the cursor time.
                if t > now:
                    sim.schedule_at(t, wake_time)
                elif kind == EV_REGISTER:
                    was_dirty, count = payload
                    if register is not None:
                        register(block, was_dirty, count)
                    stats.registrations += count
                    break
                elif kind == EV_READ:
                    if self._outstanding >= mlp:
                        # A read completion will retry.
                        self._wait = _W_MLP
                        stats.mlp_stalls += 1
                    elif not controller.can_accept(_READ, block):
                        # A space wake-up will retry.
                        self._wait = _W_SPACE
                        stats.read_queue_stalls += 1
                        controller.notify_space(_READ, block, wake_space)
                    else:
                        blocking = draw() < blocking_fraction
                        # Positional, in MemRequest's field order: rtype,
                        # block, n_sets, issue_time_ns, deadline_ns, core,
                        # on_complete (the keyword form costs twice as much).
                        request = MemRequest(
                            _READ, block, None, 0.0, None, core_id,
                            on_read_complete,
                        )
                        if blocking:
                            self._blocking_req_id = request.req_id
                        controller.enqueue(request)
                        self._outstanding += 1
                        stats.reads_issued += 1
                        if blocking:
                            # The core waits for this read's data.
                            self._wait = _W_BLOCKING
                            stats.blocking_stalls += 1
                            self._t = t
                            yield
                            t = self._t
                            now = sim.now
                        break
                elif kind == EV_WRITE:
                    if controller.can_accept(_WRITE, block):
                        controller.enqueue(
                            MemRequest(
                                _WRITE, block, choose_mode(block), 0.0, None,
                                core_id,
                            )
                        )
                        stats.writes_issued += 1
                        break
                    # A space wake-up will retry.
                    self._wait = _W_SPACE
                    stats.write_queue_stalls += 1
                    controller.notify_space(_WRITE, block, wake_space, space_refused)
                else:
                    raise SimulationError(f"unknown workload event kind: {kind}")
                # Wait with the event in hand.
                self._t = t
                yield
                t = self._t
                now = sim.now
                if t >= end:
                    break
        self._t = t
        while True:
            yield

    def _wake_time(self) -> None:
        self._resume()

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
        """Queue-space wake-up: resume the event loop at the current time.

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
        and keeps the registration if it returns True. It is what a
        resumed :meth:`_loop` would do there, minus the refused retry's
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
