"""Tests for the memory controller scheduler."""

import pytest

from repro.memctrl.controller import MemoryController
from repro.memctrl.request import MemRequest, RequestType


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
        r.on_complete = done.append
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
        w.on_complete = write_done.append
        controller.enqueue(w)

        reads = []
        # Write end seen right after each read issues, and the bank's own.
        ends = []
        # Requests still queued right after each read's enqueue.
        queued = []

        def issue_next(_finish=None):
            if len(reads) == cap + 1:
                return
            r = read(0)
            r.on_complete = issue_next
            reads.append(r)
            controller.enqueue(r)
            ends.append((w.finish_time_ns, bank.write_end_time()))
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
