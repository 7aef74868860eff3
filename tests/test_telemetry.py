"""Tests for the telemetry subsystem: registry, tracer, profiler, wiring."""

import json
import math

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
    Telemetry,
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
    def test_gauges_are_pulled_at_snapshot(self):
        registry = MetricRegistry()
        state = {"v": 7}
        registry.gauge("a.pulled", lambda: state["v"])
        registry.gauge("a.rate", lambda: state["v"] / 2)
        assert registry.snapshot() == {"a.pulled": 7, "a.rate": 3.5}
        state["v"] = 9
        assert registry.snapshot()["a.pulled"] == 9
        assert registry.read("a.rate") == 4.5

    def test_read_unknown_metric_rejected(self):
        with pytest.raises(ConfigError):
            MetricRegistry().read("nope")

    def test_duplicate_name_rejected(self):
        registry = MetricRegistry()
        registry.gauge("x.y", lambda: 0)
        with pytest.raises(ConfigError):
            registry.gauge("x.y", lambda: 1)

    def test_bad_names_rejected(self):
        registry = MetricRegistry()
        with pytest.raises(ConfigError):
            registry.gauge("", lambda: 0)
        with pytest.raises(ConfigError):
            registry.gauge(" padded ", lambda: 0)

    def test_names_prefix_filter(self):
        registry = MetricRegistry()
        registry.gauge("memctrl.reads", lambda: 0)
        registry.gauge("memctrl.writes", lambda: 0)
        registry.gauge("memx.other", lambda: 0)
        assert registry.names("memctrl") == ["memctrl.reads", "memctrl.writes"]
        # Prefixes match whole path segments, not raw string prefixes.
        assert registry.names("mem") == []
        assert "memx.other" in registry and len(registry) == 3


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
        tracer = Tracer(ring_size=3)
        for i in range(10):
            tracer.instant(f"e{i}")
        events = tracer.events()
        assert len(events) == 3
        assert [e.name for e in events] == ["e7", "e8", "e9"]
        assert tracer.dropped == 7

    def test_invalid_configuration(self):
        with pytest.raises(ConfigError):
            Tracer(ring_size=0)
        with pytest.raises(ConfigError):
            Tracer(ring_size=-1)

    def test_chrome_export_round_trip(self, tmp_path):
        tracer = Tracer(_FakeClock())
        tracer.set_thread_name(0, "bank0")
        tracer.instant("violation", "memctrl", args={"block": 1})
        tracer.complete("write", "memctrl", 1000.0, 2000.0)
        path = tracer.export(tmp_path / "trace.json")

        raw = json.loads(path.read_text())
        assert "traceEvents" in raw
        assert raw["otherData"] == {
            "clock": "simulation-ns/1000", "dropped_events": 0,
        }
        meta = raw["traceEvents"][0]
        assert meta["ph"] == "M" and meta["args"]["name"] == "bank0"

        events = load_trace(path)
        assert validate_chrome_trace(events) == []
        # Chrome timestamps are microseconds.
        span = [e for e in events if e["ph"] == "X"][0]
        assert span["ts"] == 1.0 and span["dur"] == 2.0

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

        path = tracer.export(tmp_path / "trace.json")
        events = load_trace(path)
        assert validate_chrome_trace(events) == []
        assert len({e.get("cat") for e in events if e["ph"] != "M"}) >= 4

    def test_registry_always_available(self):
        """Harvesting goes through the registry even with telemetry off."""
        system = System(SystemConfig.tiny(), "hmmer", Scheme.RRM)
        assert system.telemetry.enabled is False
        groups = {
            name.split(".", 1)[0] for name in system.telemetry.registry.names()
        }
        assert {"engine", "memctrl", "cpu", "pcm", "rrm"} <= groups
        result = system.run()
        snap = system.telemetry.registry.snapshot()
        assert result.reads == snap["memctrl.reads_completed"]
        assert result.instructions == snap["cpu.retired_instructions"]

    def test_every_metric_is_a_finite_number(self):
        """With trace, periodic sampling, attribution and profiling all on,
        every registered metric reads as one finite int or float."""
        system = System(
            SystemConfig.tiny().with_duration(0.002), "hmmer", Scheme.RRM,
            telemetry=TelemetryConfig(
                metrics_interval_s=0.0005, attribution=True, profile=True
            ),
        )
        system.run()
        snap = system.telemetry.registry.snapshot()
        assert {"attribution", "engine", "memctrl", "rrm"} <= {
            name.split(".", 1)[0] for name in snap
        }
        for name, value in snap.items():
            assert type(value) in (int, float), name
            assert math.isfinite(value), name


class TestTelemetryConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TelemetryConfig(metrics_interval_s=0)
        # The tracer owns the ring bound, so a bad one fails when the
        # run's tracer is built.
        with pytest.raises(ConfigError):
            Telemetry(TelemetryConfig(ring_size=0))

    def test_ring_size_reaches_the_tracer(self):
        tracer = Telemetry(TelemetryConfig(ring_size=2)).tracer
        for name in ("a", "b", "c"):
            tracer.instant(name)
        assert [e.name for e in tracer.events()] == ["b", "c"]
        assert tracer.dropped == 1


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
# Registry snapshot edge cases
# ----------------------------------------------------------------------
class TestRegistryEdgeCases:
    def test_prefix_matches_whole_segments_only(self):
        registry = MetricRegistry()
        registry.gauge("a.b", lambda: 1)
        registry.gauge("a.b.c", lambda: 2)
        registry.gauge("a.bc", lambda: 3)
        assert registry.names("a.b") == ["a.b", "a.b.c"]
        assert registry.snapshot("a.b") == {"a.b": 1, "a.b.c": 2}
        assert registry.snapshot("a") == {"a.b": 1, "a.b.c": 2, "a.bc": 3}
        assert registry.snapshot("a.b.c.d") == {}


# ----------------------------------------------------------------------
# Tracer bounds at exact overflow boundaries
# ----------------------------------------------------------------------
class TestTracerBoundaries:
    def test_ring_exact_capacity_drops_nothing(self):
        tracer = Tracer(ring_size=3)
        for i in range(3):
            tracer.instant(f"e{i}")
        assert len(tracer.events()) == 3
        assert tracer.dropped == 0

    def test_ring_one_past_capacity_drops_oldest(self):
        tracer = Tracer(ring_size=3)
        for i in range(4):
            tracer.instant(f"e{i}")
        assert [e.name for e in tracer.events()] == ["e1", "e2", "e3"]
        assert tracer.dropped == 1

    def test_unbounded_by_default_drops_nothing(self):
        tracer = Tracer()
        for i in range(1000):
            tracer.instant(f"e{i}")
        assert len(tracer.events()) == 1000
        assert tracer.dropped == 0
