"""Tests for trace file I/O."""

import hashlib
import itertools

import pytest

from repro.errors import TraceFormatError
from repro.workloads.events import EV_READ, EV_REGISTER, EV_WRITE
from repro.workloads.synthetic import RegionProfile, RegionTrafficGenerator
from repro.workloads.trace import TraceReader, TraceRecord, TraceWriter, write_trace


SAMPLE_EVENTS = [
    (EV_READ, 37, 1024, False),
    (EV_REGISTER, 0, 2048, (True, 1)),
    (EV_WRITE, 0, 2048, False),
    (EV_REGISTER, 0, 4096, (False, 1)),
]


class TestRecord:
    def test_format_parse_roundtrip(self):
        for event in SAMPLE_EVENTS:
            kind, gap, block, payload = event
            dirty = payload[0] if kind == EV_REGISTER else payload
            record = TraceRecord(kind, gap, block, dirty)
            assert TraceRecord.parse(record.format()).as_event() == event

    def test_parse_rejects_wrong_field_count(self):
        with pytest.raises(TraceFormatError):
            TraceRecord.parse("read 1 2")

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(TraceFormatError):
            TraceRecord.parse("fetch 1 2 0")

    def test_parse_rejects_bad_integers(self):
        with pytest.raises(TraceFormatError):
            TraceRecord.parse("read x 2 0")

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(TraceFormatError):
            TraceRecord.parse("read -1 2 0")
        with pytest.raises(TraceFormatError):
            TraceRecord.parse("read 1 2 2")


class TestFileRoundtrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "t.trace"
        count = write_trace(path, SAMPLE_EVENTS, header="sample events")
        assert count == len(SAMPLE_EVENTS)
        assert list(TraceReader(path)) == SAMPLE_EVENTS

    def test_header_written_as_comments(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, SAMPLE_EVENTS, header="line one\nline two")
        text = path.read_text()
        assert text.startswith("# line one\n# line two\n")

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# comment\n\nread 5 10 0\n")
        assert list(TraceReader(path)) == [(EV_READ, 5, 10, False)]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError):
            TraceReader(tmp_path / "nope.trace")

    def test_writer_outside_context_rejected(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.trace")
        with pytest.raises(TraceFormatError):
            writer.write_event(SAMPLE_EVENTS[0])

    def test_bad_line_reports_lineno(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("read 5 10 0\ngarbage\n")
        reader = TraceReader(path)
        with pytest.raises(TraceFormatError, match="line 2"):
            list(reader)


class TestGeneratorCapture:
    def test_generated_stream_replays_identically(self, tmp_path):
        profile = RegionProfile(
            mpki=20.0, footprint_regions=256, hot_regions=8, warm_regions=32
        )
        generator = RegionTrafficGenerator(profile, seed=3)
        events = list(itertools.islice(iter(generator), 2000))
        path = tmp_path / "gen.trace"
        write_trace(path, events)
        assert list(TraceReader(path)) == events


class TestRegistrationRuns:
    """A run is ``count`` ``register`` lines on disk and one event in
    memory."""

    def test_run_written_as_count_lines(self, tmp_path):
        path = tmp_path / "t.trace"
        count = write_trace(path, [(EV_REGISTER, 5, 64, (True, 3))])
        assert count == 3
        assert path.read_text() == (
            "register 5 64 1\nregister 0 64 1\nregister 0 64 1\n"
        )

    def test_reader_merges_gap_zero_lines_on_one_block_and_flag(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(
            "register 5 64 1\nregister 0 64 1\n"  # one run of 2
            "register 0 64 0\n"                    # dirty flag differs
            "register 0 65 0\nregister 0 65 0\n"  # block differs
            "register 2 65 0\n"                    # nonzero gap
            "write 0 65 0\n"
            "register 0 65 0\n"                    # after a write
        )
        assert list(TraceReader(path)) == [
            (EV_REGISTER, 5, 64, (True, 2)),
            (EV_REGISTER, 0, 64, (False, 1)),
            (EV_REGISTER, 0, 65, (False, 2)),
            (EV_REGISTER, 2, 65, (False, 1)),
            (EV_WRITE, 0, 65, False),
            (EV_REGISTER, 0, 65, (False, 1)),
        ]

    def test_single_registration_encoding_rejected(self, tmp_path):
        with TraceWriter(tmp_path / "t.trace") as writer:
            with pytest.raises(TypeError):
                writer.write_event((EV_REGISTER, 0, 64, True))

    def test_generated_trace_bytes_pinned(self, tmp_path):
        """The first 300 write groups of a generated stream, written as a
        trace: these are the bytes the encoding with one event per
        registration wrote, so traces stay interchangeable."""
        profile = RegionProfile(
            mpki=20.0, footprint_regions=256, hot_regions=8, warm_regions=32
        )
        events, writes = [], 0
        for event in RegionTrafficGenerator(profile, seed=3):
            events.append(event)
            if event[0] == EV_WRITE:
                writes += 1
                if writes == 300:
                    break
        path = tmp_path / "gen.trace"
        assert write_trace(path, events, header="pinned sample") == 2104
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ac06d9993f32550de3c187cd62ef840a07437f180e2aa27769fcaffd513ccd96"
        )
        assert list(TraceReader(path)) == events
