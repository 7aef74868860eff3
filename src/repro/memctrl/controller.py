"""Per-channel memory scheduler.

Scheduling policy (paper Table V):

- three bounded queues per channel — RRM refresh (highest priority), read
  (middle), write (lowest);
- FR-FCFS within a queue: the oldest request whose bank can accept it wins,
  searched within a small associative window;
- open-page row-buffer policy for reads; writes are write-through and
  bypass the row buffer;
- write pausing: reads may preempt an in-flight write at SET boundaries,
  and ``_issue`` moves the paused write's completion to its new end; a
  read's cut-in is tested only on a bank whose one in-flight request is
  a write;
- watermark-based write drain: because writes have the lowest priority,
  they issue only when no reads are waiting or when the write queue climbs
  above a high watermark (hysteresis down to a low watermark), which is how
  real controllers avoid both read interference and write-queue deadlock.

Backpressure is explicit: producers must call :meth:`MemoryController.can_accept`
first (:meth:`MemoryController.enqueue` applies the address range check
and the full-queue check of ``AddressMap.locate_block`` and
``BoundedQueue.push`` inline and raises on a violation); when a queue is
full they register a one-shot callback with
:meth:`MemoryController.notify_space`. Every issue out of a queue hands
the freed slot to that queue's waiters, in registration order, before
the scheduler looks for the next issue. A waiter reached while the queue
has room is woken; the first to retry takes the slot. A waiter reached
while the queue is full again gets its refusal hook instead, if it
registered one, and stays registered without retrying (see
:meth:`MemoryController.notify_space`). This is the mechanism through
which long write latencies reach the CPU: the write queue backs up, the
LLC cannot evict, and the core stalls.

Refresh and write queues are gated while a channel has as many requests
in flight as banks. The gate counts requests, not busy banks: a read
that pauses a write adds a second request on one bank, so the gate can
hold while a bank is free, and lifts when the next read issues.

Scans are skipped when they cannot issue anything: a channel whose last
scan found nothing is *settled* until a scan issues or a completion
touches it. An enqueue on a settled channel rescans only if write
draining has just switched on; otherwise the new request is the only
candidate, and it is issued directly if it can issue, leaving the
channel settled. A scan that issues resumes at the issued position, not
at the top, unless the issue lifted the gate (DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine import Simulator
from repro.errors import ConfigError, QueueFullError, SimulationError
from repro.memctrl.address_map import AddressMap
from repro.memctrl.queues import QueueSet
from repro.memctrl.request import MemRequest, RequestType
from repro.pcm.device import PCMDevice
from repro.telemetry.trace import NULL_TRACER
from repro.utils.mathx import log2_int


@dataclass
class ControllerStats:
    """Aggregate controller statistics for one run."""

    reads_completed: int = 0
    writes_completed: int = 0
    rrm_refreshes_completed: int = 0
    rrm_slow_refreshes_completed: int = 0
    fast_writes: int = 0
    slow_writes: int = 0
    read_latency_sum_ns: float = 0.0
    write_latency_sum_ns: float = 0.0
    retention_violations: int = 0
    row_hits: int = 0
    row_misses: int = 0

    @property
    def avg_read_latency_ns(self) -> float:
        if not self.reads_completed:
            return 0.0
        return self.read_latency_sum_ns / self.reads_completed

    @property
    def avg_write_latency_ns(self) -> float:
        if not self.writes_completed:
            return 0.0
        return self.write_latency_sum_ns / self.writes_completed

    @property
    def row_hit_rate(self) -> float:
        accesses = self.row_hits + self.row_misses
        return self.row_hits / accesses if accesses else 0.0

    def register_metrics(self, registry, prefix: str = "memctrl") -> None:
        """Publish every counter (plus derived averages) into *registry*."""
        for field_name in (
            "reads_completed",
            "writes_completed",
            "rrm_refreshes_completed",
            "rrm_slow_refreshes_completed",
            "fast_writes",
            "slow_writes",
            "read_latency_sum_ns",
            "write_latency_sum_ns",
            "retention_violations",
            "row_hits",
            "row_misses",
        ):
            registry.gauge(
                f"{prefix}.{field_name}",
                lambda f=field_name: getattr(self, f),
            )
        registry.gauge(
            f"{prefix}.avg_read_latency_ns", lambda: self.avg_read_latency_ns
        )
        registry.gauge(
            f"{prefix}.avg_write_latency_ns", lambda: self.avg_write_latency_ns
        )
        registry.gauge(f"{prefix}.row_hit_rate", lambda: self.row_hit_rate)


CompletionListener = Callable[[MemRequest], None]

# Enum member access runs Python code in the enum machinery on every
# lookup; the per-request paths below use these module constants.
_READ = RequestType.READ
_WRITE = RequestType.WRITE
_RRM_REFRESH = RequestType.RRM_REFRESH


class MemoryController:
    """Schedules memory requests onto the PCM device banks."""

    #: Associative search depth for FR-FCFS queue scans.
    SCHED_WINDOW = 8

    def __init__(
        self,
        sim: Simulator,
        device: PCMDevice,
        address_map: Optional[AddressMap] = None,
        *,
        refresh_queue_capacity: int = 64,
        read_queue_capacity: int = 32,
        write_queue_capacity: int = 64,
        write_drain_high: Optional[int] = None,
        write_drain_low: Optional[int] = None,
        tracer=NULL_TRACER,
        attribution=None,
    ) -> None:
        self.sim = sim
        self.device = device
        #: Telemetry recorder; the shared no-op unless tracing is on.
        self.tracer = tracer
        #: Optional latency-attribution collector
        #: (:class:`repro.attribution.AttributionCollector`); every hook
        #: below is guarded so the scheduler hot path is unchanged when
        #: attribution is off.
        self._attribution = attribution
        self.address_map = address_map or AddressMap(
            n_channels=device.n_channels,
            banks_per_channel=device.banks_per_channel,
            row_bytes=device.row_bytes,
            size_bytes=device.size_bytes,
        )
        #: ``AddressMap.locate_block``'s bit slicing, for ``enqueue``: the
        #: channel mask, the shift past the channel and column bits, and
        #: the bank mask and bit count (every dimension is a power of two).
        amap = self.address_map
        self._n_blocks = amap.n_blocks
        self._channel_mask = amap.n_channels - 1
        self._bank_shift = log2_int(amap.n_channels) + log2_int(amap.blocks_per_row)
        self._bank_mask = amap.banks_per_channel - 1
        self._bank_bits = log2_int(amap.banks_per_channel)
        self.stats = ControllerStats()
        self._queues: List[QueueSet] = [
            QueueSet(
                refresh_capacity=refresh_queue_capacity,
                read_capacity=read_queue_capacity,
                write_capacity=write_queue_capacity,
            )
            for _ in range(device.n_channels)
        ]
        self._write_drain_high = (
            write_drain_high if write_drain_high is not None else (write_queue_capacity * 3) // 4
        )
        self._write_drain_low = (
            write_drain_low if write_drain_low is not None else write_queue_capacity // 4
        )
        if not 0 <= self._write_drain_low <= self._write_drain_high <= write_queue_capacity:
            raise ConfigError("write drain watermarks out of order")
        self._draining_writes = [False] * device.n_channels
        #: Per channel: the last scan issued nothing and nothing has
        #: happened since that could make an entry issuable (see
        #: :meth:`_kick`). Cleared by every completion and by every issue
        #: except a direct one that leaves the in-flight gate shut.
        self._settled = [False] * device.n_channels
        #: Issued-but-unfinished request count per flat bank index.
        self._bank_inflight: List[int] = [0] * device.n_banks
        #: Issued-but-unfinished request count per channel.
        self._channel_inflight: List[int] = [0] * device.n_channels
        #: Banks flattened channel-major, matching the flat bank index.
        self._banks_flat = device.banks()
        self._banks_per_channel = device.banks_per_channel
        #: Per flat bank index: the in-flight write request and its
        #: completion event, so pausing reads can push the completion back.
        self._inflight_write: List[Optional[tuple]] = [None] * device.n_banks
        #: Per-channel queue tuples in priority order (hot-path cache).
        self._priority_queues = [
            tuple(qs.in_priority_order()) for qs in self._queues
        ]
        #: SET counts of the fast and slow modes, for the write-mode stats.
        self._fast_n_sets = device.modes.fast.n_sets
        self._slow_n_sets = device.modes.slow.n_sets
        #: SET count -> (latency_ns, set_boundaries_ns) of each write mode.
        self._write_timing: Dict[int, Tuple[float, Tuple[float, ...]]] = {
            mode.n_sets: (mode.latency_ns, mode.set_boundaries_ns)
            for mode in device.modes
        }
        if attribution is not None:
            for queue_set in self._queues:
                for queue in queue_set.in_priority_order():
                    queue.issue_observer = attribution.on_dequeue
        self._completion_listeners: List[CompletionListener] = []

    # ------------------------------------------------------------------
    # Producer-facing API
    # ------------------------------------------------------------------
    def add_completion_listener(self, listener: CompletionListener) -> None:
        """Register a callback fired on every request completion."""
        self._completion_listeners.append(listener)

    def register_metrics(self, registry) -> None:
        """Publish controller stats and queue-depth gauges into *registry*."""
        self.stats.register_metrics(registry)
        registry.gauge("memctrl.pending_requests", self.pending_requests)
        registry.gauge("memctrl.inflight_requests", self.inflight_requests)

    def can_accept(self, rtype: RequestType, block: int) -> bool:
        """Whether the queue a (*rtype*, *block*) request maps to has room."""
        queue = self._queues[block & self._channel_mask].by_type[rtype]
        return len(queue._entries) < queue.capacity

    def enqueue(self, request: MemRequest) -> None:
        """Accept a request. The caller must have checked :meth:`can_accept`.

        Raises :class:`ConfigError` for a block outside the device and
        :class:`QueueFullError` when the queue is full, as
        :meth:`AddressMap.locate_block` and :meth:`BoundedQueue.push` do;
        both run inline here, once per request.
        """
        block = request.block
        if not 0 <= block < self._n_blocks:
            raise ConfigError(
                f"block {block} out of range for {self._n_blocks}-block device"
            )
        channel = block & self._channel_mask
        block >>= self._bank_shift
        request.bank_index = (
            channel * self._banks_per_channel + (block & self._bank_mask)
        )
        request.row = block >> self._bank_bits
        request.issue_time_ns = self.sim.now
        if self._attribution is not None:
            self._attribution.on_enqueue(request)
        queue = self._queues[channel].by_type[request.rtype]
        entries = queue._entries
        depth = len(entries)
        if depth >= queue.capacity:
            queue.rejected += 1
            raise QueueFullError(f"{queue.name} full at {queue.capacity} entries")
        entries.append(request)
        queue.total_enqueued += 1
        if depth >= queue.peak_occupancy:
            queue.peak_occupancy = depth + 1
        self._kick(channel, request)

    def notify_space(
        self,
        rtype: RequestType,
        block: int,
        callback: Callable[[], None],
        refuse: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Invoke *callback* once the queue for (*rtype*, *block*) frees a slot.

        One-shot: the callback is dropped after firing and should re-check
        :meth:`can_accept` (another producer may have raced for the slot).

        *refuse*, if given, stands in for that retry when the slot is
        already gone: a waiter reached while the queue is full again gets
        one ``refuse()`` call instead of *callback*. The hook does what a
        refused retry would do besides re-registering, and returns whether
        the waiter still waits; if it does, the controller keeps it
        registered, in the place a fresh :meth:`notify_space` would give
        it. That is exact only if a refused retry changes no queue state.
        """
        queue = self._queues[block & self._channel_mask].by_type[rtype]
        queue.space_waiters.append((callback, refuse))

    def pending_requests(self) -> int:
        """Requests sitting in any queue (not yet issued to a bank)."""
        return sum(qs.total_pending for qs in self._queues)

    def inflight_requests(self) -> int:
        """Requests issued to banks but not yet completed."""
        return sum(self._bank_inflight)

    def idle(self) -> bool:
        """True when no request is queued or in flight."""
        return self.pending_requests() == 0 and self.inflight_requests() == 0

    # ------------------------------------------------------------------
    # Scheduler core
    # ------------------------------------------------------------------
    def _kick(self, channel: int, pushed: Optional[MemRequest] = None) -> None:
        """Issue every request that can be serviced on *channel* right now.

        Hot path, so everything the scan needs is hoisted into locals and
        each queue has its own inlined window loop. The scan is FR-FCFS
        over at most ``SCHED_WINDOW`` entries per queue, in priority
        order: the oldest entry whose bank has nothing in flight wins, or,
        in the read queue only, a read whose bank holds one pausable
        write. The refresh and write queues are gated: they are skipped
        while the channel has as many requests in flight as it has banks.
        The gate counts requests, not busy banks, so it can hold while a
        bank is free, and a read that pauses a write lifts it. Writes
        issue only while the channel drains writes (watermark hysteresis,
        updated once per kick) or when no refresh or read waits.

        After an issue the scan resumes in the issued queue at the issued
        position: the entries before it and the higher-priority queues
        were just found not issuable, and an issue only makes the channel
        busier. The exception is an issue at the gate, which lifts it, so
        the scan restarts from the refresh queue.

        A settled channel is rescanned only if write draining has just
        switched on. Otherwise the only entry a scan could pick is
        *pushed*, the request just enqueued: it is issued directly if it
        can issue, and the channel stays settled unless that issue lifts
        the gate (see DESIGN.md §4).

        Issuing wakes space waiters, whose producers may enqueue and kick
        this channel re-entrantly, and every kick ends with the channel
        settled. So if the channel is settled once the waiters return, a
        nested scan already found nothing issuable and this one stops;
        if not, no waiter touched the channel and the scan resumes.
        """
        queues = self._queues[channel]
        write_entries = queues.write_queue._entries
        draining = self._draining_writes
        settled = self._settled
        was_draining = draining[channel]
        occupancy = len(write_entries)
        if occupancy >= self._write_drain_high:
            draining[channel] = True
        elif occupancy <= self._write_drain_low:
            draining[channel] = False
        channel_inflight = self._channel_inflight
        n_banks = self._banks_per_channel
        refresh_entries = queues.refresh_queue._entries
        read_entries = queues.read_queue._entries
        # Scan position: queue (0 refresh, 1 read, 2 write) and index.
        stage = i = 0
        direct = False
        if settled[channel] and (was_draining or not draining[channel]):
            # Nothing was issuable at the last scan, and since then no
            # completion or scan issue touched the channel: only *pushed*
            # can be new. Older entries kept their window, bank and
            # in-flight gating (a direct issue only added a request in
            # flight), a pushed read or refresh only tightens write
            # gating, and the time that passed only retired pause
            # boundaries. The checks below are the scan's, for *pushed*.
            if pushed is None:
                return
            i = len(queues.by_type[pushed.rtype]._entries) - 1
            if i >= self.SCHED_WINDOW:
                return
            n = self._bank_inflight[pushed.bank_index]
            if pushed.rtype is _READ:
                if n > 1:
                    return
                if n == 1:
                    # The one request in flight must be a write that the
                    # read can pause.
                    if self._inflight_write[pushed.bank_index] is None:
                        return
                    bank = self._banks_flat[pushed.bank_index]
                    if not bank.read_start_time(self.sim.now) < bank.busy_until:
                        return
                stage = 1
            elif n or channel_inflight[channel] == n_banks:
                return
            elif pushed.rtype is not _WRITE:
                stage = 0
            elif not draining[channel] and (read_entries or refresh_entries):
                return
            else:
                stage = 2
            direct = True

        priority_queues = self._priority_queues[channel]
        now = self.sim.now
        inflight = self._bank_inflight
        inflight_write = self._inflight_write
        banks = self._banks_flat
        window = self.SCHED_WINDOW

        while True:
            if not direct:
                if stage == 0:
                    if refresh_entries and channel_inflight[channel] != n_banks:
                        end = len(refresh_entries)
                        if end > window:
                            end = window
                        while i < end:
                            if not inflight[refresh_entries[i].bank_index]:
                                break
                            i += 1
                        else:
                            stage = 1
                            i = 0
                    else:
                        stage = 1
                        i = 0
                if stage == 1:
                    end = len(read_entries)
                    if end > window:
                        end = window
                    while i < end:
                        bank_index = read_entries[i].bank_index
                        n = inflight[bank_index]
                        if not n:
                            break
                        if n == 1 and inflight_write[bank_index] is not None:
                            bank = banks[bank_index]
                            # A single in-flight pausable write lets a read
                            # cut in: the read starts before the bank frees.
                            if bank.read_start_time(now) < bank.busy_until:
                                break
                        i += 1
                    else:
                        stage = 2
                        i = 0
                if stage == 2:
                    if not (
                        write_entries
                        and channel_inflight[channel] != n_banks
                        and (draining[channel] or not (read_entries or refresh_entries))
                    ):
                        settled[channel] = True
                        return
                    end = len(write_entries)
                    if end > window:
                        end = window
                    while i < end:
                        if not inflight[write_entries[i].bank_index]:
                            break
                        i += 1
                    else:
                        settled[channel] = True
                        return
            queue = priority_queues[stage]
            entries = queue._entries
            request = entries[i]
            del entries[i]
            # Only a read issues at the gate, and it lifts the gate.
            lifts_gate = channel_inflight[channel] == n_banks
            if lifts_gate or not direct:
                settled[channel] = False
            direct = False
            if self._attribution is not None:
                queue.note_issue(request, i)
            self._issue(channel, request)
            waiters = queue.space_waiters
            if waiters:
                queue.space_waiters = []
                # Hand the slot on: wake waiters while the queue has room
                # (an accepted waiter's nested kick may free more), and
                # give each one reached while it is full its refusal hook.
                capacity = queue.capacity
                for waiter in waiters:
                    callback, refuse = waiter
                    if refuse is None or len(entries) < capacity:
                        callback()
                    elif refuse():
                        queue.space_waiters.append(waiter)
            if settled[channel]:
                return
            if lifts_gate:
                stage = i = 0

    def _issue(self, channel: int, request: MemRequest) -> None:
        bank_index = request.bank_index
        bank = self._banks_flat[bank_index]
        sim = self.sim
        now = sim.now
        row = request.row

        is_write = request.rtype is not _READ
        if not is_write:
            start, finish, hit = bank.schedule_read(now, row)
            if hit:
                self.stats.row_hits += 1
            else:
                self.stats.row_misses += 1
        else:
            n_sets = request.n_sets
            timing = None if n_sets is None else self._write_timing.get(n_sets)
            if timing is None:
                raise SimulationError(
                    f"write request without a supported mode: {request}"
                )
            latency_ns, set_boundaries_ns = timing
            start, finish = bank.schedule_write(now, row, latency_ns, set_boundaries_ns)

        request.start_time_ns = start
        request.finish_time_ns = finish
        if self._attribution is not None:
            if is_write:
                self._attribution.on_write_issue(request)
            else:
                self._attribution.on_read_issue(request, hit)
        self._bank_inflight[bank_index] += 1
        self._channel_inflight[channel] += 1
        event = sim.schedule_at(finish, self._complete, channel, request)
        if is_write:
            self._inflight_write[bank_index] = (request, event)
            return
        inflight_write = self._inflight_write[bank_index]
        if inflight_write is None:
            return
        # The bank holds an in-flight write: if this read paused it, move
        # the write's completion event to the extended finish time.
        write_request, event = inflight_write
        new_end = bank.last_write_end()
        if new_end is None or new_end <= write_request.finish_time_ns:
            return
        sim.cancel(event)
        write_request.finish_time_ns = new_end
        self._inflight_write[bank_index] = (
            write_request,
            sim.schedule_at(new_end, self._complete, channel, write_request),
        )
        if self._attribution is not None:
            self._attribution.on_write_paused(write_request, request, new_end)

    def _complete(self, channel: int, request: MemRequest) -> None:
        bank_index = request.bank_index
        inflight = self._bank_inflight
        inflight[bank_index] -= 1
        self._channel_inflight[channel] -= 1
        # A freed bank can make a queued entry issuable, and the callbacks
        # below may enqueue before the closing kick runs.
        self._settled[channel] = False
        if inflight[bank_index] < 0:
            raise SimulationError("bank in-flight count went negative")
        entry = self._inflight_write[bank_index]
        if entry is not None and entry[0] is request:
            self._inflight_write[bank_index] = None

        finish = request.finish_time_ns
        assert finish is not None
        latency = finish - request.issue_time_ns

        stats = self.stats
        rtype = request.rtype
        if rtype is _READ:
            stats.reads_completed += 1
            stats.read_latency_sum_ns += latency
        elif rtype is _WRITE:
            stats.writes_completed += 1
            stats.write_latency_sum_ns += latency
            n_sets = request.n_sets
            if n_sets == self._fast_n_sets:
                stats.fast_writes += 1
            elif n_sets == self._slow_n_sets:
                stats.slow_writes += 1
        elif rtype is _RRM_REFRESH:
            stats.rrm_refreshes_completed += 1
        else:
            stats.rrm_slow_refreshes_completed += 1

        violated = request.deadline_ns is not None and finish > request.deadline_ns
        if violated:
            stats.retention_violations += 1

        anatomy_args = None
        if self._attribution is not None:
            # Finalise the latency anatomy (conservation is checked here);
            # the compact component map rides on the span args below.
            anatomy_args = self._attribution.on_complete(request)

        if self.tracer.enabled:
            # One span per serviced request, laned by flat bank index so
            # Perfetto shows per-bank occupancy; the queue wait rides in args.
            start = request.start_time_ns
            assert start is not None
            self.tracer.complete(
                request.rtype.value,
                "memctrl",
                start,
                finish - start,
                args={
                    "block": request.block,
                    "wait_ns": start - request.issue_time_ns,
                    **({"n_sets": request.n_sets}
                       if request.n_sets is not None else {}),
                    **({"anatomy": anatomy_args}
                       if anatomy_args is not None else {}),
                },
                tid=request.bank_index,
            )
            if violated:
                self.tracer.instant(
                    "retention_violation",
                    "memctrl",
                    args={"block": request.block,
                          "late_ns": finish - request.deadline_ns},
                    tid=request.bank_index,
                )

        if request.on_complete is not None:
            request.on_complete(request, finish)
        for listener in self._completion_listeners:
            listener(request)

        self._kick(channel)
