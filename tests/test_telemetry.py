"""Tests for the telemetry subsystem: registry, tracer, profiler, wiring."""

import json

import pytest

from repro.engine import Simulator
from repro.errors import ConfigError, TraceFormatError
from repro.resilience import Job, ResultJournal, RetryPolicy, run_jobs
from repro.sim.config import SystemConfig
from repro.sim.schemes import Scheme
from repro.sim.system import System
from repro.telemetry import (
    NULL_TRACER,
    MetricRegistry,
    Profiler,
    TelemetryConfig,
    Tracer,
    format_summary,
    load_trace,
    summarize_trace,
    validate_chrome_trace,
)
from repro.utils.units import parse_duration


# ----------------------------------------------------------------------
# Metric registry
# ----------------------------------------------------------------------
class TestMetricRegistry:
    def test_counter_increments(self):
        registry = MetricRegistry()
        counter = registry.counter("engine.ticks")
        counter.inc()
        counter.inc(4)
        assert registry.snapshot() == {"engine.ticks": 5}

    def test_counter_rejects_negative(self):
        counter = MetricRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_stored_and_pull_gauges(self):
        registry = MetricRegistry()
        stored = registry.gauge("a.stored")
        stored.set(3.5)
        state = {"v": 7}
        registry.gauge("a.pulled", lambda: state["v"])
        assert registry.snapshot() == {"a.stored": 3.5, "a.pulled": 7}
        state["v"] = 9
        assert registry.snapshot()["a.pulled"] == 9

    def test_pull_gauge_cannot_be_set(self):
        gauge = MetricRegistry().gauge("g", lambda: 1)
        with pytest.raises(ConfigError):
            gauge.set(2)

    def test_duplicate_name_rejected(self):
        registry = MetricRegistry()
        registry.counter("x.y")
        with pytest.raises(ConfigError):
            registry.gauge("x.y")

    def test_bad_names_rejected(self):
        registry = MetricRegistry()
        with pytest.raises(ConfigError):
            registry.counter("")
        with pytest.raises(ConfigError):
            registry.counter(" padded ")

    def test_names_prefix_filter(self):
        registry = MetricRegistry()
        registry.counter("memctrl.reads")
        registry.counter("memctrl.writes")
        registry.counter("memx.other")
        assert registry.names("memctrl") == ["memctrl.reads", "memctrl.writes"]
        # Prefixes match whole path segments, not raw string prefixes.
        assert registry.names("mem") == []

    def test_groups(self):
        registry = MetricRegistry()
        registry.counter("engine.events")
        registry.counter("pcm.wear.demand")
        registry.counter("pcm.energy.write")
        assert registry.groups() == ["engine", "pcm"]

    def test_snapshot_diff(self):
        registry = MetricRegistry()
        counter = registry.counter("a.count")
        old = registry.snapshot()
        counter.inc(10)
        new = registry.snapshot()
        assert MetricRegistry.diff(new, old) == {"a.count": 10}

    def test_diff_new_metric_against_zero(self):
        assert MetricRegistry.diff({"m": 4}, {}) == {"m": 4}

    def test_as_tree_and_render(self):
        snapshot = {"pcm.wear.demand": 3, "pcm.energy.total": 1.5, "ipc": 2}
        tree = MetricRegistry.as_tree(snapshot)
        assert tree["pcm"]["wear"]["demand"] == 3
        rendered = MetricRegistry.render_tree(snapshot)
        assert "pcm:" in rendered and "demand: 3" in rendered


class TestHistogram:
    def test_bucketing_edges(self):
        registry = MetricRegistry()
        hist = registry.histogram("lat", bounds=[10, 20])
        hist.record(9.99)  # below first bound
        hist.record(10)  # exactly a bound -> upper bucket
        hist.record(19.99)
        hist.record(20)  # exactly last bound -> overflow bucket
        hist.record(1000)
        value = hist.value()
        assert value["counts"] == [1, 2, 2]
        assert value["count"] == 5
        assert value["sum"] == pytest.approx(9.99 + 10 + 19.99 + 20 + 1000)

    def test_mean(self):
        hist = MetricRegistry().histogram("h", bounds=[1])
        assert hist.mean == 0.0
        hist.record(2)
        hist.record(4)
        assert hist.mean == 3.0

    def test_invalid_bounds(self):
        registry = MetricRegistry()
        with pytest.raises(ConfigError):
            registry.histogram("empty", bounds=[])
        with pytest.raises(ConfigError):
            registry.histogram("unsorted", bounds=[5, 5])

    def test_diff_is_bucket_wise(self):
        registry = MetricRegistry()
        hist = registry.histogram("h", bounds=[10])
        hist.record(5)
        old = registry.snapshot()
        hist.record(15)
        hist.record(20)
        delta = MetricRegistry.diff(registry.snapshot(), old)["h"]
        assert delta["counts"] == [0, 2]
        assert delta["count"] == 2
        assert delta["sum"] == pytest.approx(35)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestTracer:
    def test_instant_complete_counter(self):
        clock = _FakeClock()
        tracer = Tracer(clock)
        tracer.instant("promotion", "monitor", args={"region": 3})
        clock.t = 500.0
        tracer.complete("write", "memctrl", 100.0, 400.0, tid=2)
        tracer.counter("engine", {"events": 7})
        events = tracer.events()
        assert [e.ph for e in events] == ["i", "X", "C"]
        assert events[1].ts_ns == 100.0 and events[1].dur_ns == 400.0
        assert events[1].tid == 2
        assert tracer.categories() == ["engine", "memctrl", "monitor"]

    def test_span_measures_clock(self):
        clock = _FakeClock()
        tracer = Tracer(clock)
        with tracer.span("phase", "run"):
            clock.t = 250.0
        (event,) = tracer.events()
        assert event.ph == "X"
        assert event.ts_ns == 0.0 and event.dur_ns == 250.0

    def test_ring_mode_bounds_memory(self):
        tracer = Tracer(mode="ring", ring_size=3)
        for i in range(10):
            tracer.instant(f"e{i}")
        events = tracer.events()
        assert len(events) == 3
        assert [e.name for e in events] == ["e7", "e8", "e9"]
        assert tracer.dropped == 7

    def test_sample_mode_keeps_every_nth(self):
        tracer = Tracer(mode="sample", sample_every=3)
        for i in range(9):
            tracer.instant(f"e{i}")
        assert [e.name for e in tracer.events()] == ["e0", "e3", "e6"]
        assert tracer.dropped == 6

    def test_invalid_configuration(self):
        with pytest.raises(ConfigError):
            Tracer(mode="everything")
        with pytest.raises(ConfigError):
            Tracer(mode="ring", ring_size=0)
        with pytest.raises(ConfigError):
            Tracer(mode="sample", sample_every=0)

    def test_chrome_export_round_trip(self, tmp_path):
        tracer = Tracer(_FakeClock())
        tracer.set_thread_name(0, "bank0")
        tracer.instant("violation", "memctrl", args={"block": 1})
        tracer.complete("write", "memctrl", 1000.0, 2000.0)
        path = tracer.export_chrome(tmp_path / "trace.json")

        raw = json.loads(path.read_text())
        assert "traceEvents" in raw
        meta = raw["traceEvents"][0]
        assert meta["ph"] == "M" and meta["args"]["name"] == "bank0"

        events = load_trace(path)
        assert validate_chrome_trace(events) == []
        # Chrome timestamps are microseconds.
        span = [e for e in events if e["ph"] == "X"][0]
        assert span["ts"] == 1.0 and span["dur"] == 2.0

    def test_jsonl_export_round_trip(self, tmp_path):
        tracer = Tracer(_FakeClock())
        tracer.instant("a", "cat", args={"k": 1})
        tracer.complete("b", "cat", 10.0, 5.0)
        path = tracer.export(tmp_path / "trace.jsonl")
        events = load_trace(path)
        assert len(events) == 2
        # JSONL keeps nanosecond timestamps, converted to us on load.
        assert validate_chrome_trace(events) == []

    def test_export_dispatches_on_suffix(self, tmp_path):
        tracer = Tracer(_FakeClock())
        tracer.instant("x")
        chrome = tracer.export(tmp_path / "t.json")
        assert "traceEvents" in json.loads(chrome.read_text())
        jsonl = tracer.export(tmp_path / "t.jsonl")
        assert json.loads(jsonl.read_text().splitlines()[0])["name"] == "x"

    def test_summarize(self):
        tracer = Tracer(_FakeClock())
        tracer.complete("long", "engine", 0.0, 9000.0)
        tracer.complete("short", "engine", 0.0, 1000.0)
        tracer.counter("engine", {"events": 3})
        summary = summarize_trace(
            [e.to_chrome() for e in tracer.events()], top_spans=1
        )
        assert summary.n_events == 3
        assert summary.by_phase == {"X": 2, "C": 1}
        assert summary.longest_spans[0][1] == "long"


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.instant("x")
        NULL_TRACER.complete("y", "c", 0, 1)
        NULL_TRACER.counter("z", {"v": 1})
        NULL_TRACER.set_thread_name(0, "t")
        with NULL_TRACER.span("s"):
            pass
        assert NULL_TRACER.events() == []


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_periodic_sampling(self):
        sim = Simulator()
        registry = MetricRegistry()
        registry.gauge("engine.now", lambda: sim.now)
        tracer = Tracer(lambda: sim.now)
        profiler = Profiler(sim, registry, tracer, interval_ns=100.0)
        profiler.start()
        sim.run(until=1000.0)
        assert profiler.ticks == 10
        counters = [e for e in tracer.events() if e.ph == "C"]
        assert len(counters) == 10
        assert [e.ts_ns for e in counters] == [100.0 * i for i in range(1, 11)]
        assert counters[0].name == "engine"
        assert counters[0].args == {"now": 100.0}

    def test_histograms_skipped_in_counter_tracks(self):
        sim = Simulator()
        registry = MetricRegistry()
        registry.gauge("m.scalar", lambda: 1)
        hist = registry.histogram("m.hist", bounds=[10])
        hist.record(5)
        tracer = Tracer(lambda: sim.now)
        Profiler(sim, registry, tracer, interval_ns=50.0).start()
        sim.run(until=50.0)
        (event,) = [e for e in tracer.events() if e.ph == "C"]
        assert event.args == {"scalar": 1}

    def test_invalid_interval(self):
        with pytest.raises(ConfigError):
            Profiler(Simulator(), MetricRegistry(), interval_ns=0)

    def test_double_start_rejected(self):
        profiler = Profiler(Simulator(), MetricRegistry(), interval_ns=1.0)
        profiler.start()
        with pytest.raises(ConfigError):
            profiler.start()


# ----------------------------------------------------------------------
# Engine metrics (satellite: scheduled/cancelled exposure)
# ----------------------------------------------------------------------
class TestSimulatorMetrics:
    def test_scheduled_and_cancelled_counts(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        doomed = sim.schedule_at(20.0, lambda: None)
        sim.cancel(doomed)
        sim.run()
        assert sim.events_scheduled == 2
        assert sim.events_processed == 1
        assert sim.events_cancelled == 1

    def test_register_metrics(self):
        sim = Simulator()
        registry = MetricRegistry()
        sim.register_metrics(registry)
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        snap = registry.snapshot("engine")
        assert snap["engine.events_processed"] == 1
        assert snap["engine.events_scheduled"] == 1
        assert snap["engine.events_cancelled"] == 0
        assert snap["engine.pending_events"] == 0


# ----------------------------------------------------------------------
# End-to-end wiring
# ----------------------------------------------------------------------
def _strip_wall_time(result):
    d = result.to_json_dict()
    d.pop("wall_time_s", None)
    # Engine mechanics, not simulation statistics: a profiler's periodic
    # ticks are themselves events, so an observed run legitimately
    # processes more of them. The simulation-statistics surface that
    # must stay bit-identical is as_dict(), which excludes both.
    d.pop("sim_events", None)
    return d


class TestSystemTelemetry:
    def test_traced_run_matches_untraced(self):
        """Tracing must not perturb the simulation (determinism)."""
        config = SystemConfig.tiny()
        plain = System(config, "hmmer", Scheme.RRM).run()
        traced_system = System(
            config,
            "hmmer",
            Scheme.RRM,
            telemetry=TelemetryConfig(metrics_interval_s=0.0005),
        )
        traced = traced_system.run()
        assert _strip_wall_time(plain) == _strip_wall_time(traced)
        assert traced_system.telemetry.tracer.events()

    def test_trace_covers_subsystems(self, tmp_path):
        """The exported trace must carry events from >= 4 subsystems."""
        system = System(
            SystemConfig.tiny(),
            "hmmer",
            Scheme.RRM,
            telemetry=TelemetryConfig(metrics_interval_s=0.0005),
        )
        system.run()
        tracer = system.telemetry.tracer
        categories = set(tracer.categories())
        assert {"engine", "memctrl", "cpu", "pcm", "rrm"} <= categories

        path = tracer.export_chrome(tmp_path / "trace.json")
        events = load_trace(path)
        assert validate_chrome_trace(events) == []
        assert len({e.get("cat") for e in events if e["ph"] != "M"}) >= 4

    def test_registry_always_available(self):
        """Harvesting goes through the registry even with telemetry off."""
        system = System(SystemConfig.tiny(), "hmmer", Scheme.RRM)
        assert system.telemetry.enabled is False
        names = system.telemetry.registry.groups()
        assert {"engine", "memctrl", "cpu", "pcm", "rrm"} <= set(names)
        result = system.run()
        snap = system.telemetry.registry.snapshot()
        assert result.reads == snap["memctrl.reads_completed"]
        assert result.instructions == snap["cpu.retired_instructions"]

    def test_detailed_metrics_add_histograms(self):
        system = System(
            SystemConfig.tiny(), "hmmer", Scheme.RRM,
            telemetry=TelemetryConfig(),
        )
        system.run()
        snap = system.telemetry.registry.snapshot()
        hist = snap["memctrl.read_latency_hist_ns"]
        assert hist["count"] > 0


class TestTelemetryConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TelemetryConfig(mode="nope")
        with pytest.raises(ConfigError):
            TelemetryConfig(ring_size=0)
        with pytest.raises(ConfigError):
            TelemetryConfig(metrics_interval_s=0)


# ----------------------------------------------------------------------
# Resilience telemetry (satellite: journal + FailedRun instants)
# ----------------------------------------------------------------------
def _ok_job():
    return 42


def _bad_job():
    raise ValueError("boom")


class TestSupervisorEvents:
    def test_lifecycle_events_for_success(self):
        seen = []
        run_jobs(
            [Job(key=("w", "s"), fn=_ok_job)],
            on_event=lambda name, args: seen.append((name, args)),
        )
        assert [name for name, _ in seen] == ["job.attempt", "job.result"]
        assert seen[0][1]["key"] == ["w", "s"]

    def test_failed_run_emits_instant(self):
        seen = []
        _, failures, _ = run_jobs(
            [Job(key=("w", "s"), fn=_bad_job)],
            retry=RetryPolicy(max_retries=1),
            sleep=lambda s: None,
            on_event=lambda name, args: seen.append((name, args)),
        )
        assert ("w", "s") in failures
        names = [name for name, _ in seen]
        assert names == ["job.attempt", "job.retry", "job.attempt", "job.failed"]
        failed_args = seen[-1][1]
        assert failed_args["kind"] == "error"
        assert failed_args["attempts"] == 2
        assert "boom" in failed_args["message"]


class TestJournalTelemetry:
    def test_appends_emit_instants(self, tmp_path):
        tracer = Tracer(_FakeClock())
        journal = ResultJournal(tmp_path / "j.jsonl", tracer=tracer)
        journal.start({"seed": 1})
        journal.append_result("hmmer", "rrm", {"ipc": 1.0})
        journal.append_failure("mcf", "s7", {"kind": "timeout"})
        events = tracer.events()
        assert [e.name for e in events] == ["journal.append", "journal.append"]
        assert events[0].cat == "journal"
        assert events[0].args["type"] == "result"
        assert events[1].args["workload"] == "mcf"


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
class TestParseDuration:
    def test_suffixes(self):
        assert parse_duration("1ms") == pytest.approx(0.001)
        assert parse_duration("250us") == pytest.approx(250e-6)
        assert parse_duration("10ns") == pytest.approx(10e-9)
        assert parse_duration("1.5s") == pytest.approx(1.5)

    def test_bare_numbers_are_seconds(self):
        assert parse_duration("2") == 2.0
        assert parse_duration(0.25) == 0.25

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_duration("fast")
        with pytest.raises(ConfigError):
            parse_duration("10 parsecs")


# ----------------------------------------------------------------------
# Summary robustness: empty, truncated, and garbage traces
# ----------------------------------------------------------------------
class TestSummaryRobustness:
    def test_empty_event_list_summarizes_and_formats(self):
        summary = summarize_trace([])
        assert summary.n_events == 0
        assert summary.duration_us == 0.0
        text = format_summary(summary)
        assert "events          0" in text
        assert "longest spans" not in text

    def test_metadata_only_trace_formats(self):
        summary = summarize_trace([{"ph": "M", "name": "meta"}])
        assert summary.n_events == 0
        assert "events          0" in format_summary(summary)

    def test_garbage_events_do_not_crash(self):
        # Non-dict rows, None phases, and non-numeric fields all show up
        # in the digest (bucketed under "?") instead of raising.
        events = [
            42,
            {"ph": None, "name": None},
            {"ph": "X", "name": 3, "dur": "slow", "ts": None},
            {"ph": "C", "name": None, "args": None},
        ]
        summary = summarize_trace(events)
        assert summary.n_events == 4
        assert summary.by_phase.get("?") == 2
        text = format_summary(summary)
        assert "?" in text

    def test_load_trace_rejects_non_list_trace_events(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": {}}')
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_load_trace_empty_trace_events_ok(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": []}')
        assert load_trace(path) == []
        assert "no events" in " ".join(validate_chrome_trace([]))


# ----------------------------------------------------------------------
# Registry snapshot/diff edge cases
# ----------------------------------------------------------------------
class TestRegistryEdgeCases:
    def test_prefix_matches_whole_segments_only(self):
        registry = MetricRegistry()
        registry.counter("a.b").inc()
        registry.counter("a.b.c").inc(2)
        registry.counter("a.bc").inc(3)
        assert registry.names("a.b") == ["a.b", "a.b.c"]
        assert registry.snapshot("a.b") == {"a.b": 1, "a.b.c": 2}
        assert registry.snapshot("a") == {"a.b": 1, "a.b.c": 2, "a.bc": 3}
        assert registry.snapshot("a.b.c.d") == {}

    def test_diff_metric_only_in_new_counts_from_zero(self):
        assert MetricRegistry.diff({"fresh": 5}, {}) == {"fresh": 5}

    def test_diff_drops_vanished_metrics(self):
        assert MetricRegistry.diff({}, {"gone": 7}) == {}

    def test_diff_disjoint_snapshots(self):
        out = MetricRegistry.diff({"a": 1}, {"b": 2})
        assert out == {"a": 1}


# ----------------------------------------------------------------------
# Tracer bounds at exact overflow boundaries
# ----------------------------------------------------------------------
class TestTracerBoundaries:
    def test_ring_exact_capacity_drops_nothing(self):
        tracer = Tracer(mode="ring", ring_size=3)
        for i in range(3):
            tracer.instant(f"e{i}")
        assert len(tracer.events()) == 3
        assert tracer.dropped == 0

    def test_ring_one_past_capacity_drops_oldest(self):
        tracer = Tracer(mode="ring", ring_size=3)
        for i in range(4):
            tracer.instant(f"e{i}")
        assert [e.name for e in tracer.events()] == ["e1", "e2", "e3"]
        assert tracer.dropped == 1

    def test_sample_boundary_keeps_first_of_each_stride(self):
        tracer = Tracer(mode="sample", sample_every=3)
        for i in range(3):
            tracer.instant(f"e{i}")
        # Exactly one stride: only its first event is kept.
        assert [e.name for e in tracer.events()] == ["e0"]
        assert tracer.dropped == 2
        tracer.instant("e3")  # first event of the next stride is kept
        assert [e.name for e in tracer.events()] == ["e0", "e3"]
        assert tracer.dropped == 2

    def test_sample_every_one_is_lossless(self):
        tracer = Tracer(mode="sample", sample_every=1)
        for i in range(5):
            tracer.instant(f"e{i}")
        assert len(tracer.events()) == 5
        assert tracer.dropped == 0
