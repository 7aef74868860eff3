"""Tests for the memory controller scheduler."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Simulator
from repro.errors import ConfigError, QueueFullError
from repro.memctrl.controller import MemoryController
from repro.memctrl.request import MemRequest, RequestType
from repro.pcm.device import PCMDevice
from repro.utils.units import parse_size


def read(block, **kw):
    return MemRequest(rtype=RequestType.READ, block=block, **kw)


def write(block, n_sets=7, **kw):
    return MemRequest(rtype=RequestType.WRITE, block=block, n_sets=n_sets, **kw)


def refresh(block, n_sets=3, **kw):
    return MemRequest(rtype=RequestType.RRM_REFRESH, block=block, n_sets=n_sets, **kw)


class TestBasicService:
    def test_single_read_completes(self, sim, controller):
        done = []
        r = read(0)
        r.on_complete = lambda _request, finish: done.append(finish)
        controller.enqueue(r)
        sim.run()
        assert len(done) == 1
        assert controller.stats.reads_completed == 1
        assert r.finish_time_ns == pytest.approx(done[0])

    def test_single_write_uses_mode_latency(self, sim, controller):
        w = write(0, n_sets=7)
        controller.enqueue(w)
        sim.run()
        assert w.finish_time_ns - w.start_time_ns == pytest.approx(1150.0)
        assert controller.stats.writes_completed == 1
        assert controller.stats.slow_writes == 1

    def test_fast_write_counted(self, sim, controller):
        controller.enqueue(write(0, n_sets=3))
        sim.run()
        assert controller.stats.fast_writes == 1

    def test_reads_to_different_banks_overlap(self, sim, controller):
        # Blocks 0 and 2 are on channel 0, different... same bank? Use the
        # address map to find two blocks on different banks of channel 0.
        amap = controller.address_map
        blocks_per_row = amap.blocks_per_row
        b0 = 0
        b1 = blocks_per_row * amap.n_channels  # bank 1, channel 0
        assert amap.decode_block(b0).bank != amap.decode_block(b1).bank
        r0, r1 = read(b0), read(b1)
        controller.enqueue(r0)
        controller.enqueue(r1)
        sim.run()
        assert r0.start_time_ns == r1.start_time_ns == 0.0

    def test_same_bank_reads_serialize(self, sim, controller):
        r0, r1 = read(0), read(0)
        controller.enqueue(r0)
        controller.enqueue(r1)
        sim.run()
        assert r1.start_time_ns >= r0.finish_time_ns

    def test_row_hit_tracked(self, sim, controller):
        controller.enqueue(read(0))
        controller.enqueue(read(0))
        sim.run()
        assert controller.stats.row_hits == 1
        assert controller.stats.row_misses == 1
        assert controller.stats.row_hit_rate == pytest.approx(0.5)


class TestPriorities:
    def test_refresh_beats_queued_read(self, sim, controller):
        """With the bank busy, a refresh and a read queued: the refresh
        (higher priority) must issue first once the bank frees."""
        blocker = read(0)
        controller.enqueue(blocker)
        r = read(0)
        f = refresh(0)
        controller.enqueue(r)
        controller.enqueue(f)
        sim.run()
        assert f.start_time_ns < r.start_time_ns

    def test_write_waits_for_reads_below_watermark(self, sim, controller):
        blocker = read(0)
        controller.enqueue(blocker)
        w = write(0)
        r = read(0)
        controller.enqueue(w)
        controller.enqueue(r)
        sim.run()
        assert r.start_time_ns < w.start_time_ns

    def test_write_drain_at_high_watermark(self, sim, small_device):
        controller = MemoryController(
            sim, small_device,
            read_queue_capacity=8, write_queue_capacity=4,
            write_drain_high=2, write_drain_low=0,
        )
        # Two writes reach the high watermark -> drain even while a read
        # stream is arriving afterwards.
        w1, w2 = write(0), write(0)
        controller.enqueue(w1)
        controller.enqueue(w2)
        sim.run()
        assert controller.stats.writes_completed == 2


class TestWritePausingIntegration:
    def test_read_cuts_into_inflight_write(self, sim, controller):
        w = write(0, n_sets=7)
        controller.enqueue(w)
        r = read(0)
        sim.schedule_at(40.0, lambda: controller.enqueue(r))
        sim.run()
        # Read starts at the first SET boundary (100ns), not the write end.
        assert r.start_time_ns == pytest.approx(100.0)
        assert w.finish_time_ns > 1150.0  # write pushed back


class TestBackpressure:
    @staticmethod
    def _fill_read_queue(controller, block):
        """Enqueue reads to *block* until its read queue refuses more.

        Returns how many were accepted (issued + queued)."""
        accepted = 0
        while controller.can_accept(RequestType.READ, block):
            controller.enqueue(read(block))
            accepted += 1
        return accepted

    def test_can_accept_reflects_capacity(self, sim, small_device):
        controller = MemoryController(
            sim, small_device, read_queue_capacity=1, write_queue_capacity=1,
        )
        self._fill_read_queue(controller, 0)
        assert not controller.can_accept(RequestType.READ, 0)

    def test_notify_space_fires_after_issue(self, sim, small_device):
        controller = MemoryController(
            sim, small_device, read_queue_capacity=1, write_queue_capacity=1,
        )
        self._fill_read_queue(controller, 0)
        woken = []
        controller.notify_space(RequestType.READ, 0, lambda: woken.append(sim.now))
        sim.run()
        assert woken, "waiter was never woken"

    def test_queues_separate_per_channel(self, sim, small_device):
        controller = MemoryController(
            sim, small_device, read_queue_capacity=1, write_queue_capacity=1,
        )
        self._fill_read_queue(controller, 0)  # channel 0 read queue full
        assert controller.can_accept(RequestType.READ, 1)  # channel 1 free


def queue_state(controller):
    """Every queue's entries and counters, channel by channel."""
    return [
        (list(queue), queue.total_enqueued, queue.peak_occupancy, queue.rejected)
        for queue_set in controller._queues
        for queue in queue_set.in_priority_order()
    ]


class TestEnqueueChecks:
    """``enqueue`` keeps the address map's range check and the bounded
    queue's full check and counters."""

    @pytest.mark.parametrize(
        "n_channels, banks_per_channel, row_bytes",
        [(1, 2, 1024), (2, 2, 1024), (4, 16, 1024), (2, 8, 4096)],
    )
    def test_bank_and_row_match_the_address_map(
        self, sim, n_channels, banks_per_channel, row_bytes
    ):
        device = PCMDevice(
            size_bytes=parse_size("64MB"), n_channels=n_channels,
            banks_per_channel=banks_per_channel, row_bytes=row_bytes,
        )
        controller = MemoryController(sim, device, read_queue_capacity=256)
        amap = controller.address_map
        rng = random.Random(n_channels * 100 + banks_per_channel)
        blocks = [0, amap.n_blocks - 1]
        blocks += [rng.randrange(amap.n_blocks) for _ in range(120)]
        for block in blocks:
            request = read(block)
            controller.enqueue(request)
            channel, bank, row, _ = amap.locate_block(block)
            assert request.bank_index == channel * banks_per_channel + bank
            assert request.row == row

    @pytest.mark.parametrize("past_end", [0, 1, None])
    def test_out_of_range_block_changes_nothing(self, sim, controller, past_end):
        controller.enqueue(read(0))
        controller.enqueue(write(0))
        controller.enqueue(write(0))
        before = queue_state(controller)
        stats = dataclasses.asdict(controller.stats)
        counts = (controller.pending_requests(), controller.inflight_requests())
        scheduled = sim.events_scheduled
        n_blocks = controller.address_map.n_blocks
        block = -1 if past_end is None else n_blocks + past_end
        with pytest.raises(ConfigError, match="out of range"):
            controller.enqueue(read(block))
        assert queue_state(controller) == before
        assert dataclasses.asdict(controller.stats) == stats
        assert (controller.pending_requests(), controller.inflight_requests()) == counts
        assert sim.events_scheduled == scheduled

    def test_full_queue_raises_and_counts_one_rejection(self, sim, controller):
        # Bank 0 serves one write; the next eight fill the queue behind it.
        for _ in range(9):
            controller.enqueue(write(0))
        queue = controller._queues[0].write_queue
        assert len(queue) == queue.capacity
        entries = list(queue)
        with pytest.raises(QueueFullError):
            controller.enqueue(write(0))
        assert queue.rejected == 1
        assert list(queue) == entries
        assert queue.total_enqueued == 9
        assert queue.peak_occupancy == queue.capacity

    def test_counters_advance_on_every_accepted_enqueue(self, sim, controller):
        queue = controller._queues[0].write_queue
        peak = 0
        for accepted in range(1, queue.capacity + 1):
            depth = len(queue)
            controller.enqueue(write(0))
            peak = max(peak, depth + 1)
            assert queue.total_enqueued == accepted
            assert queue.peak_occupancy == peak
        assert peak == queue.capacity - 1  # one of them is in flight
        sim.run()
        controller.enqueue(write(0))
        assert queue.total_enqueued == queue.capacity + 1
        assert queue.peak_occupancy == peak
        assert queue.rejected == 0


class TestDeadlines:
    def test_met_deadline_not_counted(self, sim, controller):
        f = refresh(0)
        f.deadline_ns = 1e9
        controller.enqueue(f)
        sim.run()
        assert controller.stats.retention_violations == 0

    def test_missed_deadline_counted(self, sim, controller):
        blocker = write(0, n_sets=7)
        controller.enqueue(blocker)
        f = refresh(0)
        f.deadline_ns = 10.0  # impossible
        controller.enqueue(f)
        sim.run()
        assert controller.stats.retention_violations == 1


class TestIdleness:
    def test_idle_after_drain(self, sim, controller):
        controller.enqueue(read(0))
        controller.enqueue(write(0))
        assert not controller.idle()
        sim.run()
        assert controller.idle()

    def test_latency_accounting(self, sim, controller):
        controller.enqueue(read(0))
        sim.run()
        assert controller.stats.avg_read_latency_ns > 0


class TestFrFcfsWindow:
    """The FR-FCFS scan looks at most ``SCHED_WINDOW`` entries deep."""

    @staticmethod
    def _bank1_block(controller):
        amap = controller.address_map
        block = amap.blocks_per_row * amap.n_channels
        assert (amap.decode_block(block).channel, amap.decode_block(block).bank) == (0, 1)
        return block

    def test_ready_request_beyond_window_waits(self, sim, small_device):
        controller = MemoryController(sim, small_device, read_queue_capacity=16)
        busy = read(0)
        controller.enqueue(busy)  # bank 0 now serving a read
        # The scan looks 8 entries deep (SCHED_WINDOW, Table V's FR-FCFS).
        blocked = [read(0) for _ in range(8)]
        for r in blocked:
            controller.enqueue(r)
        late = read(self._bank1_block(controller))
        controller.enqueue(late)
        # Bank 1 is idle, but the 8 bank-blocked reads ahead fill the window.
        assert late.start_time_ns is None
        assert all(r.start_time_ns is None for r in blocked)
        sim.run()
        # Bank 0's first completion pulls one blocked read out of the
        # queue, which brings the late read inside the window.
        assert late.start_time_ns == busy.finish_time_ns
        assert blocked[0].start_time_ns == busy.finish_time_ns

    def test_younger_ready_request_inside_window_issues(self, sim, small_device):
        controller = MemoryController(sim, small_device, read_queue_capacity=16)
        busy = read(0)
        controller.enqueue(busy)
        blocked = [read(0) for _ in range(3)]
        for r in blocked:
            controller.enqueue(r)
        young = read(self._bank1_block(controller))
        controller.enqueue(young)
        assert young.start_time_ns == 0.0
        assert all(r.start_time_ns is None for r in blocked)
        sim.run()
        assert controller.stats.reads_completed == 5


class TestWritePauseChain:
    """Successive reads pause one 7-SET write up to the per-write cap."""

    def test_pauses_extend_write_until_cap(self, sim, controller):
        bank = controller.device.bank(0, 0)
        cap = bank.max_pauses_per_write
        w = write(0, n_sets=7)
        write_done = []
        w.on_complete = lambda _request, finish: write_done.append(finish)
        controller.enqueue(w)

        reads = []
        # Write end seen right after each read issues, and the bank's own.
        ends = []
        # Requests still queued right after each read's enqueue.
        queued = []

        def issue_next(_request=None, _finish=None):
            if len(reads) == cap + 1:
                return
            r = read(0)
            r.on_complete = issue_next
            reads.append(r)
            controller.enqueue(r)
            ends.append((w.finish_time_ns, bank.last_write_end()))
            queued.append(controller.pending_requests())

        sim.schedule_at(40.0, issue_next)
        sim.run()

        pausing, fifth = reads[:cap], reads[cap]
        services = [r.finish_time_ns - r.start_time_ns for r in pausing]
        expected = [1150.0 + sum(services[: i + 1]) for i in range(cap)]
        # Each pausing read pushes the completion to the bank's new end.
        assert [controller_end for controller_end, _ in ends[:cap]] == expected
        assert [bank_end for _, bank_end in ends[:cap]] == expected
        assert all(r.start_time_ns < expected[-1] for r in pausing)
        assert bank.write_pauses == cap
        # The fifth read finds the cap reached and waits in the queue for
        # the write to finish.
        assert queued == [0] * cap + [1]
        assert fifth.start_time_ns == expected[-1]
        # The pushed-back completion fires exactly once, at the final end.
        assert write_done == [expected[-1]]
        assert w.finish_time_ns == expected[-1]
        assert controller.stats.writes_completed == 1
        assert controller.stats.reads_completed == cap + 1


# ----------------------------------------------------------------------
# Enqueue-time scheduling: an enqueue must never hide an issuable entry.
# ----------------------------------------------------------------------
def four_bank_controller(sim, cls=MemoryController, **kwargs):
    """One channel of four banks, so several banks can free at once."""
    device = PCMDevice(size_bytes=parse_size("16MB"), n_channels=1, banks_per_channel=4)
    return cls(sim, device, **kwargs)


def on_bank(controller, bank, row=0):
    """A block of channel 0 that maps to *bank* and *row*."""
    return controller.address_map.encode(0, bank, row, 0)


def record_issues(controller):
    """Log ``(time, request)`` of every issue, in issue order."""
    issued = []
    issue = controller._issue

    def recording(channel, request):
        issued.append((controller.sim.now, request))
        issue(channel, request)

    controller._issue = recording
    return issued


class TestEnqueueScheduling:
    def test_enqueue_from_completion_lets_older_request_issue_first(self, sim):
        controller = four_bank_controller(sim)
        issued = record_issues(controller)
        busy_other = write(on_bank(controller, 1), n_sets=7)
        controller.enqueue(busy_other)  # bank 1 busy for the whole test
        first = read(on_bank(controller, 0))
        older = read(on_bank(controller, 0))
        # A write cannot cut into bank 1, and it waits behind queued reads.
        newer = write(on_bank(controller, 1, row=1))
        seen_at_enqueue = []

        def enqueue_newer(_request, _finish):
            controller.enqueue(newer)
            seen_at_enqueue.append(older.start_time_ns)

        first.on_complete = enqueue_newer
        controller.enqueue(first)
        controller.enqueue(older)
        sim.run()
        # The older read takes the freed bank 0 during the completion's
        # own enqueue, not later, and the newer write waits for bank 1.
        assert seen_at_enqueue == [first.finish_time_ns]
        assert older.start_time_ns == first.finish_time_ns
        assert newer.start_time_ns >= busy_other.finish_time_ns
        order = [request for _, request in issued]
        assert order.index(older) < order.index(newer)

    def test_enqueue_from_completion_to_freed_bank_queues_behind_older(self, sim):
        controller = four_bank_controller(sim)
        first = read(on_bank(controller, 0))
        older = read(on_bank(controller, 0, row=1))
        newer = read(on_bank(controller, 0, row=2))
        first.on_complete = lambda _request, _finish: controller.enqueue(newer)
        controller.enqueue(first)
        controller.enqueue(older)
        sim.run()
        assert older.start_time_ns == first.finish_time_ns
        assert newer.start_time_ns == older.finish_time_ns

    def test_space_waiter_enqueue_keeps_fr_fcfs_order(self, sim):
        controller = four_bank_controller(
            sim, read_queue_capacity=4, write_queue_capacity=4,
            write_drain_high=3, write_drain_low=0,
        )
        issued = record_issues(controller)
        # Bank 0 serves a read and holds a second one queued, so writes
        # wait below the high watermark.
        controller.enqueue(read(on_bank(controller, 0)))
        controller.enqueue(read(on_bank(controller, 0)))
        writes = [write(on_bank(controller, bank)) for bank in (1, 2, 3)]
        late = write(on_bank(controller, 1, row=1))
        woken = []

        def waiter():
            woken.append(sim.now)
            controller.enqueue(late)  # bank 1 is busy again by now

        controller.notify_space(RequestType.WRITE, writes[0].block, waiter)
        for w in writes:
            controller.enqueue(w)
        # Crossing the watermark drains all three writes at once, in
        # queue order, although the first issue woke a producer whose
        # write cannot issue.
        assert woken == [0.0]
        assert [request for _, request in issued[1:]] == writes
        assert all(w.start_time_ns == 0.0 for w in writes)
        assert late.start_time_ns is None
        sim.run()
        assert late.start_time_ns >= writes[0].finish_time_ns

    def test_write_crossing_high_watermark_issues_older_writes(self, sim):
        controller = four_bank_controller(
            sim, read_queue_capacity=4, write_queue_capacity=8,
            write_drain_high=3, write_drain_low=0,
        )
        controller.enqueue(read(on_bank(controller, 0)))
        controller.enqueue(read(on_bank(controller, 0)))  # waits: writes held
        held = [write(on_bank(controller, 1)), write(on_bank(controller, 2))]
        for w in held:
            controller.enqueue(w)
        assert all(w.start_time_ns is None for w in held)
        crossing = write(on_bank(controller, 0, row=1))  # its bank is busy
        controller.enqueue(crossing)
        assert [w.start_time_ns for w in held] == [0.0, 0.0]
        assert crossing.start_time_ns is None
        sim.run()
        assert controller.stats.writes_completed == 3


class TestInflightGate:
    """Refresh and write queues wait while a channel has as many
    requests in flight as banks. The gate counts requests, not busy
    banks, so a read that pauses a write lifts it again."""

    def test_pausing_read_lifts_the_gate_for_a_queued_write(self, sim):
        controller = four_bank_controller(sim)
        writes = [write(on_bank(controller, bank)) for bank in (0, 1, 2)]
        late = write(on_bank(controller, 3))
        for w in writes:
            sim.schedule_at(0.0, controller.enqueue, w)
        sim.schedule_at(1.0, controller.enqueue, read(on_bank(controller, 0, row=1)))
        sim.schedule_at(2.0, controller.enqueue, late)
        states = []
        sim.schedule_at(
            2.5,
            lambda: states.append(
                (controller._channels[0].inflight, late.start_time_ns)
            ),
        )
        sim.schedule_at(3.0, controller.enqueue, read(on_bank(controller, 1, row=1)))
        sim.run()
        # At t=2 four requests are in flight on four banks, one of them
        # a paused write's read, so bank 3 is free but the write waits.
        assert states == [(4, None)]
        # The second pausing read takes the count to five: the gate
        # lifts, and the queued write issues at once.
        assert late.start_time_ns == 3.0


class FullScanController(MemoryController):
    """Reference scheduler: the literal FR-FCFS loop, with no settled
    flag, no direct issue and no resumed scan. Every kick updates the
    drain flag once, then scans the queues from the top in priority
    order, and restarts from the top after every issue and its space
    waiters, each woken through its full wake callback."""

    def _kick(self, ch, pushed=None):
        occupancy = len(ch.queues.write_queue)
        if occupancy >= self._write_drain_high:
            ch.draining = True
        elif occupancy <= self._write_drain_low:
            ch.draining = False
        while True:
            found = self._first_issuable(ch)
            if found is None:
                return
            queue, pick = found
            request = queue._entries[pick]
            del queue._entries[pick]
            self._issue(ch, request)
            waiters, queue.space_waiters = queue.space_waiters, []
            for callback, _refuse in waiters:
                callback()

    def _first_issuable(self, ch):
        """``(queue, position)`` of the entry a full FR-FCFS scan picks on
        the channel whose record is *ch*."""
        queues = ch.queues
        now = self.sim.now
        all_busy = ch.inflight == self._banks_per_channel
        for queue in queues.in_priority_order():
            if queue is not queues.read_queue:
                if all_busy:
                    continue
                if queue is queues.write_queue and not (
                    ch.draining
                    or not (len(queues.read_queue) or len(queues.refresh_queue))
                ):
                    continue
            for pick, request in enumerate(queue._entries):
                if pick == self.SCHED_WINDOW:
                    break
                n = self._bank_inflight[request.bank_index]
                if n == 0:
                    return queue, pick
                if n == 1 and request.rtype is RequestType.READ:
                    bank = self._banks_flat[request.bank_index]
                    if bank.read_start_time(now) < bank.busy_until:
                        return queue, pick
        return None


KINDS = st.sampled_from(["read", "read", "write", "fast-write", "refresh"])

#: (arrival gap ns, class, bank, row, the (class, bank) of a request
#: offered from this one's completion callback, or None)
request_streams = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 10, 50, 120, 400]),
        KINDS,
        st.integers(0, 3),
        st.integers(0, 2),
        st.none() | st.tuples(KINDS, st.integers(0, 3)),
    ),
    max_size=40,
)


def crowded(banks, steps, tail):
    """Writes on three banks at t=0, then *steps*, then *tail*.

    Each step ``(gap, class, pick)`` is a read to the *pick*-th written
    bank, which pauses its write, or any other class to the fourth,
    free bank. Pausing reads take the in-flight count to the bank count
    while a bank is free, and then past it.
    """
    written, free = banks[:3], banks[3]
    head = [(0, "write", bank, 0, None) for bank in written]
    for gap, kind, pick in steps:
        bank = written[pick] if kind == "read" else free
        head.append((gap, kind, bank, 1, None))
    return head + tail


#: Streams biased towards more requests in flight than banks.
crowded_streams = st.builds(
    crowded,
    st.permutations(range(4)),
    st.lists(
        st.tuples(st.sampled_from([1, 2, 10]), KINDS, st.integers(0, 2)),
        min_size=1,
        max_size=6,
    ),
    request_streams,
)


def issue_sequence(controller_cls, stream):
    """``(time, stream index, bank index)`` of every issue, and where in
    that sequence each completion callback ended, when *stream* is
    offered to a small controller by producers that honour backpressure
    (wait for space, then retry)."""
    sim = Simulator()
    controller = four_bank_controller(
        sim, controller_cls, refresh_queue_capacity=2, read_queue_capacity=2,
        write_queue_capacity=4, write_drain_high=3, write_drain_low=1,
    )
    issued = record_issues(controller)
    #: (issues so far, stream index) at the end of each completion callback
    marks = []
    index_of = {}

    def make(index, kind, bank, row, then):
        block = on_bank(controller, bank, row)
        if kind == "read":
            request = read(block)
        elif kind == "refresh":
            request = refresh(block)
        else:
            request = write(block, n_sets=3 if kind == "fast-write" else 7)
        index_of[request.req_id] = index

        def completed(_request, _finish):
            if then is not None:
                offer(make(index + 1000, then[0], then[1], row, None))
            # Issues made from inside the callback land before this mark.
            marks.append((len(issued), index))

        request.on_complete = completed
        return request

    def offer(request):
        if controller.can_accept(request.rtype, request.block):
            controller.enqueue(request)
        else:
            controller.notify_space(
                request.rtype, request.block, lambda: offer(request)
            )

    t = 0.0
    for index, (gap, kind, bank, row, then) in enumerate(stream):
        t += gap
        sim.schedule_at(t, offer, make(index, kind, bank, row, then))
    sim.run()
    assert controller.idle()
    return [
        (time, index_of[r.req_id], r.bank_index) for time, r in issued
    ], marks


#: 150 examples in tier-1, ten times as many under the ``thorough``
#: hypothesis profile (tests/conftest.py).
@settings(max_examples=settings.default.max_examples * 3 // 2, deadline=None)
@given(request_streams | crowded_streams)
def test_enqueue_issues_like_a_full_scan_every_time(stream):
    assert issue_sequence(MemoryController, stream) == issue_sequence(
        FullScanController, stream
    )
