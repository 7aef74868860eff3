"""Tests for sweep observability: the Prometheus exposition renderer
(``repro.obs.exposition``), the workers' crash flight recorder
(``repro.resilience.flightrecorder``), and the ``sweep --metrics-out``
snapshot."""

from __future__ import annotations

import json
import signal
import subprocess
import sys

import pytest

from repro.obs.exposition import render_exposition, sanitize_metric_name
from repro.resilience import FaultPlan, ResultJournal, RetryPolicy, SweepStats
from repro.resilience.flightrecorder import FlightRecorder, recorder_path_for
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
        """Counts and fractional values both render as gauge families."""
        registry = MetricRegistry()
        registry.gauge("fabric.jobs_completed", lambda: 3)
        registry.gauge("fleet.rss_bytes", lambda: 1.5)
        text = render_exposition(registry)
        assert "# TYPE repro_fabric_jobs_completed gauge" in text
        assert "repro_fabric_jobs_completed 3" in text
        assert "# TYPE repro_fleet_rss_bytes gauge" in text
        assert "repro_fleet_rss_bytes 1.5" in text
        assert text.endswith("\n")

    def test_sweep_stats_golden(self):
        """The ``sweep --metrics-out`` families of a fixed SweepStats,
        byte for byte."""
        stats = SweepStats(
            n_workers=4, jobs_total=6, jobs_completed=4, jobs_failed=1,
            retries=2, respawns=1, wall_s=3.0, busy_s=5.0,
        )
        registry = MetricRegistry()
        stats.register_metrics(registry)
        assert render_exposition(registry) == (
            "# TYPE repro_fabric_jobs_completed gauge\n"
            "repro_fabric_jobs_completed 4\n"
            "# TYPE repro_fabric_jobs_failed gauge\n"
            "repro_fabric_jobs_failed 1\n"
            "# TYPE repro_fabric_queue_depth gauge\n"
            "repro_fabric_queue_depth 1\n"
            "# TYPE repro_fabric_respawns gauge\n"
            "repro_fabric_respawns 1\n"
            "# TYPE repro_fabric_retries gauge\n"
            "repro_fabric_retries 2\n"
            "# TYPE repro_fabric_utilization gauge\n"
            "repro_fabric_utilization 0.4166666667\n"
            "# TYPE repro_fabric_workers gauge\n"
            "repro_fabric_workers 4\n"
        )

    def test_empty_registry_renders_empty(self):
        assert render_exposition(MetricRegistry()) == ""

    def test_snapshot_is_byte_stable(self):
        registry = MetricRegistry()
        registry.gauge("z.last", lambda: 1)
        registry.gauge("a.first", lambda: 1)
        first = render_exposition(registry)
        assert first == render_exposition(registry)
        # Sorted by name, not registration order.
        assert first.index("repro_a_first") < first.index("repro_z_last")


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
            "from repro.resilience.flightrecorder import FlightRecorder\n"
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

    def test_record_inside_dump_does_not_deadlock(self, tmp_path, fresh_python):
        # The SIGTERM handler records before it dumps, so a SIGTERM that
        # lands inside dump() re-enters record(). The clock's second read
        # is dump()'s stamp; there it does what the handler does first.
        # A fresh interpreter with a timeout makes a hang a failure.
        code = (
            "from repro.resilience.flightrecorder import FlightRecorder\n"
            "reads = []\n"
            "def clock():\n"
            "    reads.append(None)\n"
            "    if len(reads) == 2:\n"
            "        recorder.record('signal', {'signal': 15})\n"
            "    return 0.0\n"
            f"recorder = FlightRecorder({str(tmp_path / 'f.json')!r}, clock=clock)\n"
            "recorder.record('ready')\n"
            "payload = recorder.dump('sigterm').read_text()\n"
            "print(recorder.records_seen, payload)\n"
        )
        seen, payload = fresh_python(code, timeout=10).split(" ", 1)
        assert int(seen) == 2
        assert json.loads(payload)["records_seen"] == 2


# ----------------------------------------------------------------------
# Worker integration: crash linkage, bit identity
# ----------------------------------------------------------------------
class TestRecorderWithSweep:
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
# sweep --metrics-out on workers
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
        assert "repro_fabric_workers 2" in lines
        # The snapshot's counters agree with what the journal settled.
        journal = ResultJournal.load(journal_path)
        assert f"repro_fabric_jobs_completed {len(journal.results)}" in lines
        assert f"repro_fabric_jobs_failed {len(journal.failures)}" in lines
