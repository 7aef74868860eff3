"""Tests for the live fleet observability layer (repro.obs.live):
exposition, structured logs, heartbeats, the flight recorder, and the
``sweep --metrics-out`` snapshot."""

from __future__ import annotations

import io
import json
import signal
import subprocess
import sys
import time

import pytest

from repro.obs.live import (
    HEARTBEAT_EVENT,
    FleetStatus,
    FlightRecorder,
    StructuredLogger,
    make_heartbeat,
    read_rss_bytes,
    recorder_path_for,
    render_exposition,
    sanitize_metric_name,
)
from repro.resilience import FaultPlan, ResultJournal, RetryPolicy
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.schemes import Scheme
from repro.telemetry import MetricRegistry

#: Event cap that keeps each simulated cell well under a second.
FAST = 20_000


def tiny_config(seed: int = 1) -> SystemConfig:
    return SystemConfig.tiny(seed=seed)


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------
class TestExposition:
    def test_sanitize_metric_name(self):
        assert (
            sanitize_metric_name("memctrl.reads_completed")
            == "repro_memctrl_reads_completed"
        )
        assert sanitize_metric_name("a-b c", namespace="") == "a_b_c"
        assert sanitize_metric_name("0weird", namespace="") == "_0weird"

    def test_counter_and_gauge_families(self):
        registry = MetricRegistry()
        registry.counter("fabric.jobs_completed").inc(3)
        registry.gauge("fleet.rss_bytes", lambda: 1.5)
        text = render_exposition(registry)
        assert "# TYPE repro_fabric_jobs_completed counter" in text
        assert "repro_fabric_jobs_completed 3" in text
        assert "# TYPE repro_fleet_rss_bytes gauge" in text
        assert "repro_fleet_rss_bytes 1.5" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricRegistry()
        hist = registry.histogram("lat", bounds=[1.0, 10.0])
        for v in (0.5, 0.7, 5.0, 50.0):
            hist.record(v)
        lines = render_exposition(registry).splitlines()
        assert "# TYPE repro_lat histogram" in lines
        assert 'repro_lat_bucket{le="1"} 2' in lines
        assert 'repro_lat_bucket{le="10"} 3' in lines
        assert 'repro_lat_bucket{le="+Inf"} 4' in lines
        assert "repro_lat_count 4" in lines
        assert "repro_lat_sum 56.2" in lines

    def test_empty_registry_renders_empty(self):
        assert render_exposition(MetricRegistry()) == ""

    def test_snapshot_is_byte_stable(self):
        registry = MetricRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc()
        first = render_exposition(registry)
        assert first == render_exposition(registry)
        # Sorted by name, not registration order.
        assert first.index("repro_a_first") < first.index("repro_z_last")


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------
class TestStructuredLogger:
    def test_correlation_chain_round_trips(self):
        stream = io.StringIO()
        root = StructuredLogger(stream, fields={"sweep": "sweep-001"}, clock=lambda: 5.0)
        worker_log = root.bind(worker=2)
        attempt_log = worker_log.bind(job="hmmer/RRM", attempt=1)
        attempt_log.event("job.claimed")
        record = json.loads(stream.getvalue().splitlines()[0])
        assert record == {
            "stamp": 5.0,
            "level": "info",
            "event": "job.claimed",
            "sweep": "sweep-001",
            "worker": 2,
            "job": "hmmer/RRM",
            "attempt": 1,
        }
        # Children share the parent's sink and its counters.
        assert root.records_emitted == 1

    def test_broken_stream_counts_drops_not_raises(self):
        stream = io.StringIO()
        stream.close()
        log = StructuredLogger(stream)
        log.event("x")  # must not raise
        registry = MetricRegistry()
        log.register_metrics(registry)
        assert registry.get("obs.log.records_dropped").value() == 1
        assert registry.get("obs.log.records_emitted").value() == 0

    def test_mirror_taps_every_record(self):
        seen = []
        log = StructuredLogger(io.StringIO(), mirror=seen.append)
        log.error("boom", detail="d")
        assert seen[0]["event"] == "boom" and seen[0]["level"] == "error"


# ----------------------------------------------------------------------
# Heartbeats / FleetStatus
# ----------------------------------------------------------------------
class TestFleetStatus:
    def test_fake_clock_drives_staleness(self):
        now = [1000.0]
        fleet = FleetStatus(stale_after_s=10.0, clock=lambda: now[0])
        fleet.observe(make_heartbeat(worker=0, pid=11, jobs_done=1))
        fleet.observe(make_heartbeat(worker=1, pid=12))
        now[0] += 5.0
        assert [r["stale"] for r in fleet.workers()] == [False, False]
        now[0] += 6.0  # worker beats are now 11s old
        workers = fleet.workers()
        assert all(r["stale"] for r in workers)
        assert all(r["age_s"] == pytest.approx(11.0) for r in workers)
        assert fleet.totals()["stale_workers"] == 2
        # A fresh beat from one worker clears only that worker.
        fleet.observe(make_heartbeat(worker=0, pid=11, jobs_done=2))
        assert [r["stale"] for r in fleet.workers()] == [False, True]

    def test_exited_workers_never_go_stale(self):
        now = [0.0]
        fleet = FleetStatus(stale_after_s=1.0, clock=lambda: now[0])
        fleet.observe(make_heartbeat(worker=0, jobs_done=3))
        fleet.mark_done(0)
        now[0] += 100.0
        record = fleet.workers()[0]
        assert record["exited"] and not record["stale"]
        # Its totals still count.
        assert fleet.totals()["jobs_done"] == 3

    def test_totals_aggregate_throughput(self):
        fleet = FleetStatus(clock=lambda: 0.0)
        fleet.observe(
            make_heartbeat(worker=0, busy_s=2.0, sim_events=600, rss_bytes=10)
        )
        fleet.observe(
            make_heartbeat(worker=1, busy_s=2.0, sim_events=200, rss_bytes=30)
        )
        totals = fleet.totals()
        assert totals["workers"] == 2
        assert totals["sim_events"] == 800
        assert totals["sim_events_per_sec"] == pytest.approx(200.0)
        assert totals["rss_bytes"] == 40

    def test_clear_drops_every_worker(self):
        fleet = FleetStatus(clock=lambda: 0.0)
        fleet.observe(make_heartbeat(worker=0))
        fleet.observe(make_heartbeat(worker=1))
        assert [r["worker"] for r in fleet.workers()] == [0, 1]
        fleet.clear()
        assert fleet.workers() == []

    def test_register_metrics_exposes_totals(self):
        fleet = FleetStatus(clock=lambda: 0.0)
        fleet.observe(make_heartbeat(worker=0, jobs_done=4))
        registry = MetricRegistry()
        fleet.register_metrics(registry)
        assert registry.get("fleet.jobs_done").value() == 4.0
        assert registry.get("fleet.heartbeats_seen").value() == 1

    def test_read_rss_bytes_is_positive_here(self):
        assert read_rss_bytes() > 0


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_bounds_and_drop_counting(self, tmp_path):
        recorder = FlightRecorder(
            tmp_path / "f.json", capacity=3, clock=lambda: 0.0
        )
        for i in range(5):
            recorder.record("tick", {"i": i})
        path = recorder.dump("test")
        payload = json.loads(path.read_text())
        assert [r["i"] for r in payload["records"]] == [2, 3, 4]
        assert payload["records_seen"] == 5
        assert payload["records_dropped"] == 2
        assert payload["reason"] == "test"

    def test_dump_carries_context_and_counts(self, tmp_path):
        recorder = FlightRecorder(
            tmp_path / "f.json", clock=lambda: 7.0, context={"worker": 3}
        )
        recorder.record("log", {"event": "x"})
        payload = json.loads(recorder.dump("why").read_text())
        assert payload["context"] == {"worker": 3}
        assert payload["dumped_unix_s"] == 7.0
        assert recorder.dumps_written == 1

    def test_try_dump_swallows_io_failure(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("")  # a *file* where a directory is needed
        recorder = FlightRecorder(target / "f.json")
        assert recorder.try_dump("x") is None
        assert recorder.dump_failures == 1

    def test_mirror_adapts_log_records(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "f.json", clock=lambda: 0.0)
        log = StructuredLogger(io.StringIO(), mirror=recorder.mirror)
        log.event("job.claimed", worker=1)
        payload = json.loads(recorder.dump("x").read_text())
        assert payload["records"][0]["kind"] == "log"
        assert payload["records"][0]["event"] == "job.claimed"

    def test_recorder_path_is_deterministic(self, tmp_path):
        path = recorder_path_for(tmp_path, 3, 4242)
        assert path.name == "flight-w03-p4242.json"
        assert recorder_path_for(tmp_path, 3, 4242) == path

    def test_rejects_zero_capacity(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path / "f.json", capacity=0)

    def test_install_dumps_on_sigterm(self, tmp_path):
        # A real subprocess: the SIGTERM handler must dump and then die
        # with the signal's default disposition (exit by SIGTERM).
        recorder_file = tmp_path / "f.json"
        code = (
            "import signal, sys, time\n"
            "from repro.obs.live import FlightRecorder\n"
            f"r = FlightRecorder({str(recorder_file)!r}).install()\n"
            "r.record('ready')\n"
            "print('up', flush=True)\n"
            "time.sleep(60)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True
        )
        try:
            assert proc.stdout.readline().strip() == "up"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == -signal.SIGTERM
        payload = json.loads(recorder_file.read_text())
        assert payload["reason"] == "sigterm"
        assert [r["kind"] for r in payload["records"]] == ["ready", "signal"]


# ----------------------------------------------------------------------
# Fabric integration: heartbeats, crash linkage, bit identity
# ----------------------------------------------------------------------
class TestFabricIntegration:
    def test_heartbeats_feed_fleet_status(self, tmp_path):
        events = []
        runner = ExperimentRunner(
            tiny_config(),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7],
            max_events=FAST,
            n_jobs=2,
            journal_path=tmp_path / "j.jsonl",
            on_event=lambda name, args: events.append((name, args)),
        )
        runner.run_all()
        beats = [a for n, a in events if n == HEARTBEAT_EVENT]
        assert beats, "workers emitted no heartbeats"
        assert {"worker", "pid", "jobs_done", "busy_s", "sim_events"} <= set(
            beats[0]
        )
        totals = runner.fleet.totals()
        assert totals["jobs_done"] == 1
        assert totals["sim_events"] > 0
        assert totals["sim_events_per_sec"] > 0

    def test_injected_crash_links_flight_recorder(self, tmp_path):
        recorder_dir = tmp_path / "flight"
        runner = ExperimentRunner(
            tiny_config(),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7],
            max_events=FAST,
            n_jobs=2,
            journal_path=tmp_path / "j.jsonl",
            fault_plan=FaultPlan.parse(["crash:0"]),  # crash every attempt
            retry=RetryPolicy(max_retries=1, base_delay_s=0.001),
            recorder_dir=recorder_dir,
        )
        runner.run_all()
        failed = runner.failures[("hmmer", Scheme.STATIC_7)]
        assert failed.kind == "crash"
        assert failed.recorder_path, "failure record lost its recorder link"
        with open(failed.recorder_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["reason"] == "injected-crash"
        kinds = [r["kind"] for r in payload["records"]]
        assert "crash" in kinds  # the fault trigger is the last thing taped
        # The journal's failure record carries the same link, so the
        # crash is explainable from the journal alone.
        contents = ResultJournal.load(tmp_path / "j.jsonl")
        journal_failure = contents.failures[("hmmer", Scheme.STATIC_7.value)]
        assert journal_failure["recorder_path"] == failed.recorder_path

    def test_results_identical_with_observability_on_and_off(self, tmp_path):
        from tests.test_fabric import _comparable

        plain = ExperimentRunner(
            tiny_config(),
            workloads=["hmmer", "GemsFDTD"],
            schemes=[Scheme.STATIC_7],
            max_events=FAST,
            n_jobs=2,
            journal_path=tmp_path / "plain.jsonl",
        )
        plain.run_all()
        observed = ExperimentRunner(
            tiny_config(),
            workloads=["hmmer", "GemsFDTD"],
            schemes=[Scheme.STATIC_7],
            max_events=FAST,
            n_jobs=2,
            journal_path=tmp_path / "observed.jsonl",
            recorder_dir=tmp_path / "flight",
        )
        observed.run_all()
        assert set(plain.results) == set(observed.results)
        for key in plain.results:
            assert _comparable(plain.results[key]) == _comparable(
                observed.results[key]
            ), key


# ----------------------------------------------------------------------
# sweep --metrics-out on the fabric
# ----------------------------------------------------------------------
class TestSweepMetricsOut:
    def test_snapshot_reconciles_with_journal(self, tmp_path, capsys):
        from repro.cli import main

        journal_path = tmp_path / "sweep.jsonl"
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            [
                "sweep", "--config", "tiny", "--duration", "0.002",
                "--workloads", "hmmer", "--schemes", "static-7",
                "--jobs", "2",
                "--journal", str(journal_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        lines = metrics_path.read_text(encoding="utf-8").splitlines()
        assert "repro_fabric_jobs_completed 1" in lines
        assert "repro_fleet_jobs_done 1" in lines
        assert "repro_fleet_workers 2" in lines
        # The snapshot's counters agree with what the journal settled.
        journal = ResultJournal.load(journal_path)
        assert f"repro_fabric_jobs_completed {len(journal.results)}" in lines
        assert f"repro_fabric_jobs_failed {len(journal.failures)}" in lines
        assert f"repro_fleet_jobs_done {len(journal.results)}" in lines
