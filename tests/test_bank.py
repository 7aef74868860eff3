"""Tests for the PCM bank model (row buffer + write pausing)."""

import pytest

from repro.pcm.bank import Bank, RowBuffer
from repro.pcm.timing import PCMTimings


@pytest.fixture
def bank():
    return Bank()


@pytest.fixture
def mode7(modes):
    return modes.mode(7)


class TestRowBuffer:
    def test_first_access_misses(self):
        rb = RowBuffer()
        assert rb.access(5) is False
        assert rb.open_row == 5

    def test_repeat_access_hits(self):
        rb = RowBuffer()
        rb.access(5)
        assert rb.access(5) is True
        assert rb.hits == 1 and rb.misses == 1

    def test_conflict_replaces_open_row(self):
        rb = RowBuffer()
        rb.access(5)
        assert rb.access(9) is False
        assert rb.open_row == 9


class TestReads:
    def test_row_miss_latency(self, bank):
        timings = bank.timings
        start, finish, hit = bank.schedule_read(0.0, row=3)
        assert not hit
        assert start == 0.0
        assert finish == pytest.approx(timings.row_miss_read_ns)

    def test_row_hit_latency(self, bank):
        bank.schedule_read(0.0, row=3)
        start, finish, hit = bank.schedule_read(1000.0, row=3)
        assert hit
        assert finish - start == pytest.approx(bank.timings.row_hit_read_ns)

    def test_busy_bank_delays_read(self, bank):
        _, finish1, _ = bank.schedule_read(0.0, row=1)
        start2, _, _ = bank.schedule_read(0.0, row=1)
        assert start2 == pytest.approx(finish1)

    def test_stats_counted(self, bank):
        bank.schedule_read(0.0, row=1)
        bank.schedule_read(500.0, row=1)
        assert bank.reads_served == 2


class TestWrites:
    def test_write_occupies_full_pulse(self, bank, mode7):
        start, finish = bank.schedule_write(
            0.0, row=1, latency_ns=mode7.latency_ns,
            pause_boundaries_ns=mode7.set_boundaries_ns,
        )
        assert finish - start == pytest.approx(1150.0)
        assert bank.busy_until == pytest.approx(finish)

    def test_write_through_leaves_row_buffer_alone(self, bank, mode7):
        bank.schedule_read(0.0, row=1)
        bank.schedule_write(2000.0, row=9, latency_ns=mode7.latency_ns)
        assert bank.row_buffer.open_row == 1

    def test_back_to_back_writes_serialize(self, bank, mode7):
        _, f1 = bank.schedule_write(0.0, row=1, latency_ns=mode7.latency_ns)
        s2, _ = bank.schedule_write(0.0, row=1, latency_ns=mode7.latency_ns)
        assert s2 == pytest.approx(f1)


class TestWritePausing:
    def test_read_preempts_write_at_boundary(self, bank, mode7):
        bank.schedule_write(
            0.0, row=1, latency_ns=mode7.latency_ns,
            pause_boundaries_ns=mode7.set_boundaries_ns,
        )
        # Read arrives mid-RESET (t=40): earliest pause point is 100ns.
        start, finish, _ = bank.schedule_read(40.0, row=1)
        assert start == pytest.approx(100.0)

    def test_paused_write_extended_by_read_service(self, bank, mode7):
        _, write_end = bank.schedule_write(
            0.0, row=1, latency_ns=mode7.latency_ns,
            pause_boundaries_ns=mode7.set_boundaries_ns,
        )
        start, read_finish, _ = bank.schedule_read(40.0, row=1)
        service = read_finish - start
        assert bank.last_write_end() == pytest.approx(write_end + service)
        assert bank.busy_until == pytest.approx(write_end + service)

    def test_read_waits_for_next_boundary(self, bank, mode7):
        bank.schedule_write(
            0.0, row=1, latency_ns=mode7.latency_ns,
            pause_boundaries_ns=mode7.set_boundaries_ns,
        )
        start, _, _ = bank.schedule_read(260.0, row=1)
        # Boundaries at 100, 250, 400...: next after 260 is 400.
        assert start == pytest.approx(400.0)

    def test_pause_counter_increments(self, bank, mode7):
        bank.schedule_write(
            0.0, row=1, latency_ns=mode7.latency_ns,
            pause_boundaries_ns=mode7.set_boundaries_ns,
        )
        bank.schedule_read(40.0, row=1)
        assert bank.write_pauses == 1

    def test_pausing_disabled_serializes(self, mode7):
        bank = Bank(allow_write_pausing=False)
        _, write_end = bank.schedule_write(
            0.0, row=1, latency_ns=mode7.latency_ns,
            pause_boundaries_ns=mode7.set_boundaries_ns,
        )
        start, _, _ = bank.schedule_read(40.0, row=1)
        assert start == pytest.approx(write_end)

    def test_max_pauses_respected(self, mode7):
        bank = Bank(max_pauses_per_write=1)
        bank.schedule_write(
            0.0, row=1, latency_ns=mode7.latency_ns,
            pause_boundaries_ns=mode7.set_boundaries_ns,
        )
        bank.schedule_read(40.0, row=1)  # pause 1 (allowed)
        write_end = bank.last_write_end()
        start, _, _ = bank.schedule_read(300.0, row=1)
        assert start >= write_end  # second pause denied

    def test_read_after_write_end_does_not_pause(self, bank, mode7):
        _, write_end = bank.schedule_write(
            0.0, row=1, latency_ns=mode7.latency_ns,
            pause_boundaries_ns=mode7.set_boundaries_ns,
        )
        start, _, _ = bank.schedule_read(write_end + 10, row=1)
        assert start == pytest.approx(write_end + 10)
        assert bank.write_pauses == 0


class TestReadPath:
    def test_stored_service_times_equal_the_timing_properties(self):
        timings = PCMTimings(t_rcd_ns=100.0, t_cas_ns=3.0, data_burst_ns=17.5)
        for bank in (Bank(), Bank(timings=timings)):
            assert bank._row_hit_read_ns == bank.timings.row_hit_read_ns
            assert bank._row_miss_read_ns == bank.timings.row_miss_read_ns

    def test_read_start_time_matches_the_scheduled_start(self, mode7):
        for now in (0.0, 40.0, 100.0, 260.0, 1100.0, 1200.0):
            bank = Bank()
            bank.schedule_write(
                0.0, row=1, latency_ns=mode7.latency_ns,
                pause_boundaries_ns=mode7.set_boundaries_ns,
            )
            expected = bank.read_start_time(now)
            start, _, _ = bank.schedule_read(now, row=2)
            assert start == expected

    def test_pausing_read_shifts_only_the_later_boundaries(self, bank, mode7):
        bank.schedule_write(
            0.0, row=1, latency_ns=mode7.latency_ns,
            pause_boundaries_ns=mode7.set_boundaries_ns,
        )
        before = bank._in_flight_write.boundaries_ns
        start, finish, _ = bank.schedule_read(260.0, row=1)
        service = finish - start
        after = bank._in_flight_write.boundaries_ns
        assert start == 400.0
        assert [b for b in after if b <= start] == [b for b in before if b <= start]
        assert [b for b in after if b > start] == [
            b + service for b in before if b > start
        ]
        # The pause point itself stays: the write resumes there.
        assert start in after


class TestUtilization:
    def test_utilization_fraction(self, bank, mode7):
        bank.schedule_write(0.0, row=1, latency_ns=mode7.latency_ns)
        assert bank.utilization(2300.0) == pytest.approx(0.5)

    def test_utilization_capped_at_one(self, bank, mode7):
        bank.schedule_write(0.0, row=1, latency_ns=mode7.latency_ns)
        assert bank.utilization(100.0) == 1.0

    def test_zero_elapsed(self, bank):
        assert bank.utilization(0.0) == 0.0
