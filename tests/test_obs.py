"""Tests for the performance-observability layer (repro.obs).

Covers the run ledger (durability, fingerprinting), trace diffing, the
progress reporters (including the non-perturbation guarantee), the
offline dashboard, the pinned core suite, and the ``repro-rrm obs`` CLI
surface.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import pytest

from repro.cli import main
from repro.errors import ConfigError, LedgerCorruptError
from repro.obs import (
    CORE_SUITE,
    LedgerEntry,
    RunLedger,
    RunProgress,
    SweepProgress,
    cell_name,
    config_hash,
    diff_traces,
    entries_by_name,
    environment_fingerprint,
    format_trace_diff,
    git_revision,
    metric_series,
    render_dashboard,
    run_core_suite,
    span_stats,
)
from repro.obs.progress import _format_count, _format_eta, _LineWriter
from repro.resilience.journal import sweep_fingerprint
from repro.sim.config import SystemConfig
from repro.sim.runner import run_workload
from repro.sim.schemes import Scheme
from repro.sim.system import System


def _entry(name="core/hmmer/RRM", **metrics) -> LedgerEntry:
    if not metrics:
        metrics = {"ipc": 1.0, "wall_time_s": 1.0}
    return LedgerEntry(kind="bench", name=name, metrics=metrics)


@pytest.fixture(scope="module")
def tiny_result():
    """One real tiny run, shared across the module's integration tests."""
    return run_workload(SystemConfig.tiny(seed=1), "hmmer", Scheme.RRM)


# ======================================================================
# Ledger
# ======================================================================
class TestLedger:
    def test_append_read_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "led.jsonl")
        ledger.append(_entry(ipc=2.0, wall_time_s=0.5))
        ledger.append(_entry(name="core/x/RRM", ipc=1.5, wall_time_s=0.7))
        entries = ledger.read()
        assert [e.name for e in entries] == ["core/hmmer/RRM", "core/x/RRM"]
        assert entries[0].metrics == {"ipc": 2.0, "wall_time_s": 0.5}
        assert entries[0].kind == "bench"
        assert ledger.entries_appended == 2

    def test_append_stamps_record_time(self, tmp_path):
        ledger = RunLedger(tmp_path / "led.jsonl")
        entry = ledger.append(_entry())
        assert entry.recorded_unix_s > 0
        assert ledger.read()[0].recorded_unix_s == entry.recorded_unix_s

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "led.jsonl"
        RunLedger(path).append(_entry())
        with path.open("a", encoding="utf-8") as f:
            f.write('{"kind": "bench", "name": "torn')  # no newline, torn
        entries = RunLedger.load(path)
        assert len(entries) == 1

    def test_corruption_before_final_line_raises(self, tmp_path):
        path = tmp_path / "led.jsonl"
        ledger = RunLedger(path)
        ledger.append(_entry())
        text = path.read_text(encoding="utf-8")
        path.write_text("not json at all\n" + text, encoding="utf-8")
        with pytest.raises(LedgerCorruptError):
            RunLedger.load(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "led.jsonl"
        path.write_text('[1, 2, 3]\n{"kind": "run", "name": "x"}\n')
        with pytest.raises(LedgerCorruptError):
            RunLedger.load(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunLedger.load(tmp_path / "absent.jsonl")

    def test_from_json_dict_filters_non_numeric_metrics(self):
        entry = LedgerEntry.from_json_dict(
            {
                "kind": "run",
                "name": "n",
                "metrics": {"ipc": 1.0, "note": "hi", "flag": True, "n": 3},
            }
        )
        assert entry.metrics == {"ipc": 1.0, "n": 3}

    def test_from_result_names_and_metrics(self, tiny_result):
        entry = LedgerEntry.from_result(tiny_result, SystemConfig.tiny(seed=1))
        assert entry.name == "hmmer/RRM"
        assert entry.metrics["ipc"] == pytest.approx(tiny_result.ipc)
        assert entry.metrics["wall_time_s"] == tiny_result.wall_time_s
        assert entry.fingerprint["seed"] == 1
        assert "config_hash" in entry.fingerprint
        assert all(
            isinstance(v, (int, float)) for v in entry.metrics.values()
        )

    def test_from_result_extra_metrics_win(self, tiny_result):
        entry = LedgerEntry.from_result(
            tiny_result, extra_metrics={"extra.depth": 4, "bad": "nope"}
        )
        assert entry.metrics["extra.depth"] == 4
        assert "bad" not in entry.metrics

    def test_entries_by_name_and_metric_series(self):
        entries = [
            _entry(ipc=1.0),
            _entry(name="other", ipc=9.0),
            _entry(ipc=2.0),
        ]
        grouped = entries_by_name(entries)
        assert set(grouped) == {"core/hmmer/RRM", "other"}
        assert len(grouped["core/hmmer/RRM"]) == 2
        assert metric_series(entries, "core/hmmer/RRM", "ipc") == [1.0, 2.0]
        assert metric_series(entries, "core/hmmer/RRM", "absent") == []


class TestFingerprint:
    def test_config_hash_deterministic_and_seed_sensitive(self):
        a = SystemConfig.tiny(seed=1)
        assert config_hash(a) == config_hash(SystemConfig.tiny(seed=1))
        assert config_hash(a) != config_hash(SystemConfig.tiny(seed=2))

    def test_config_hash_is_journal_digest_prefix(self):
        config = SystemConfig.tiny(seed=4)
        stamp = sweep_fingerprint(config, ["hmmer"], ["RRM"])
        assert config_hash(config) == stamp["config_sha256"][:16]
        assert config_hash(3) == sweep_fingerprint(3, [], [])[
            "config_sha256"
        ][:16]

    def test_journal_stamps_unchanged(self):
        # Stamps written by earlier releases must still match, or their
        # journals would refuse to resume.
        @dataclass
        class Inner:
            rate: float = 0.5
            tags: tuple = ("a", "b")

        @dataclass
        class Config:
            seed: int = 7
            inner: Inner = field(default_factory=Inner)
            blob: object = frozenset({1})

        stamp = sweep_fingerprint(Config(), ["hmmer"], ["RRM"], 100)
        assert stamp == {
            "config_sha256": "947a3a394c345a72a5c64eef49033ecb"
            "4d11b8081d4eb9c415a4238395988e98",
            "spec_sha256": "c0f81b267a6e3dafb9c493fc1b60bcef"
            "bfb045d6f8eaad36d8572702e6edb833",
        }
        assert config_hash(Config()) == "947a3a394c345a72"

    def test_environment_fingerprint_fields(self):
        fp = environment_fingerprint(SystemConfig.tiny(seed=3))
        assert {"git_sha", "python", "repro_version", "config_hash"} <= set(fp)
        assert fp["seed"] == 3

    def test_git_revision_unknown_outside_repo(self, tmp_path):
        assert git_revision(cwd=tmp_path) == "unknown"


# ======================================================================
# Trace diff
# ======================================================================
def _span(name, dur, ts=0.0):
    return {"ph": "X", "name": name, "cat": "c", "ts": ts, "dur": dur}


class TestTraceDiff:
    def test_span_stats_aggregates_complete_events_only(self):
        events = [
            _span("write", 2.0),
            _span("write", 4.0),
            {"ph": "i", "name": "write", "ts": 0.0},
            {"ph": "M", "name": "meta"},
        ]
        stats = span_stats(events)
        assert stats["write"].count == 2
        assert stats["write"].total_us == pytest.approx(6.0)
        assert stats["write"].mean_us == pytest.approx(3.0)
        assert stats["write"].max_us == pytest.approx(4.0)

    def test_diff_alignment_and_ordering(self):
        a = [_span("read", 1.0), _span("read", 1.0), _span("old", 5.0)]
        b = [_span("read", 1.0), _span("fresh", 50.0)]
        diff = diff_traces(a, b)
        assert [r.name for r in diff.added] == ["fresh"]
        assert [r.name for r in diff.removed] == ["old"]
        assert [r.name for r in diff.common] == ["read"]
        # Largest |total delta| first: fresh (+50) > old (-5) > read (-1).
        assert [r.name for r in diff.rows] == ["fresh", "old", "read"]
        read = diff.common[0]
        assert read.count_delta == -1
        assert read.total_delta_us == pytest.approx(-1.0)

    def test_format_reports_counts_and_deltas(self):
        text = format_trace_diff(
            diff_traces([_span("x", 1.0)], [_span("x", 3.0)])
        )
        assert "1 common, 0 added, 0 removed" in text
        assert "dtotal=+2.0us" in text

    def test_format_empty(self):
        assert "no spans" in format_trace_diff(diff_traces([], []))

    def test_percentile_interpolation(self):
        from repro.obs.tracediff import percentile

        assert percentile([], 0.95) == 0.0
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([0.0, 10.0], 0.5) == pytest.approx(5.0)
        assert percentile([0.0, 10.0], 0.95) == pytest.approx(9.5)


# ======================================================================
# Progress reporters
# ======================================================================
class TestRunProgress:
    def test_does_not_perturb_results(self, tiny_result):
        config = SystemConfig.tiny(seed=1)
        system = System(config, "hmmer", Scheme.RRM)
        stream = io.StringIO()
        progress = RunProgress(system, stream=stream, updates=7)
        progress.register_metrics(system.telemetry.registry)
        progress.attach()
        result = system.run()
        progress.close()
        observed = result.as_dict()
        plain = tiny_result.as_dict()
        assert observed == plain
        # The tick at exactly t=duration may or may not run depending on
        # end-of-run ordering; everything before it must have.
        assert progress.ticks >= 6
        lines = [line for line in stream.getvalue().splitlines() if line]
        assert len(lines) == progress.ticks
        assert "ETA" in lines[0] and "ev" in lines[0]
        assert lines[-1].startswith("run ")

    def test_validation(self):
        system = System(SystemConfig.tiny(seed=1), "hmmer", Scheme.RRM)
        with pytest.raises(ConfigError):
            RunProgress(system, updates=0)
        with pytest.raises(ConfigError):
            RunProgress(system, interval_s=0)
        progress = RunProgress(system, stream=io.StringIO())
        progress.attach()
        with pytest.raises(ConfigError):
            progress.attach()

    def test_formatters(self):
        assert _format_eta(5) == "0:05"
        assert _format_eta(3700) == "1:01:40"
        assert _format_eta(float("nan")) == "--:--"
        assert _format_eta(-1) == "--:--"
        assert _format_count(950) == "950"
        assert _format_count(1200) == "1.2k"
        assert _format_count(2.5e6) == "2.5M"


class TestSweepProgress:
    def test_counters_follow_lifecycle(self):
        stream = io.StringIO()
        progress = SweepProgress(3, stream=stream, clock=lambda: 0.0)
        progress.on_event("job.attempt", {"key": "a"})
        progress.on_event("job.result", {"key": "a"})
        progress.on_event("job.attempt", {"key": "b"})
        progress.on_event("job.retry", {"key": "b"})
        progress.on_event("job.attempt", {"key": "b"})
        progress.on_event("job.failed", {"key": "b"})
        progress.on_event("job.unknown", {})  # ignored, no redraw
        progress.close()
        assert progress.completed == 1
        assert progress.failed == 1
        assert progress.retries == 1
        assert progress.running == 0
        lines = stream.getvalue().splitlines()
        assert len(lines) == 6
        assert "2/3 settled" in lines[-1]

    def test_register_metrics(self):
        from repro.telemetry import MetricRegistry

        progress = SweepProgress(1, stream=io.StringIO())
        registry = MetricRegistry()
        progress.register_metrics(registry)
        progress.on_event("job.attempt", {})
        assert registry.get("obs.progress.attempts").value() == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepProgress(-1)

    def test_close_ends_a_redrawn_line(self):
        class FakeTTY(io.StringIO):
            def isatty(self) -> bool:
                return True

        stream = FakeTTY()
        writer = _LineWriter(stream)
        writer.emit("hello")
        writer.close()
        assert stream.getvalue() == "\rhello\n"


# ======================================================================
# Dashboard
# ======================================================================
class TestDashboard:
    def test_self_contained_with_sparklines(self):
        entries = [
            _entry(ipc=v, wall_time_s=1.0 + 0.1 * i)
            for i, v in enumerate((1.0, 1.2, 1.1))
        ]
        html_text = render_dashboard(entries)
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<svg" in html_text
        assert "http" not in html_text  # no external references
        assert "prefers-color-scheme" in html_text

    def test_escapes_names(self):
        entries = [_entry(name="<evil>&name", ipc=1.0)]
        html_text = render_dashboard(entries)
        assert "<evil>" not in html_text
        assert "&lt;evil&gt;" in html_text

    def test_empty_ledger(self):
        html_text = render_dashboard([])
        assert "ledger is empty" in html_text

    def test_flat_series_and_metric_selection(self):
        entries = [_entry(ipc=1.0), _entry(ipc=1.0)]
        html_text = render_dashboard(entries, metrics=["ipc"])
        assert html_text.count("<svg") == 1
        assert "wall_time_s" not in html_text


# ======================================================================
# Pinned core suite
# ======================================================================
class _FakeResult:
    def __init__(self, workload, scheme):
        self.workload = workload
        self.scheme = scheme
        self.wall_time_s = 0.01

    def as_dict(self):
        return {"ipc": 1.5, "refresh_writes": 10, "label": "text"}


class TestBenchSuite:
    def test_suite_records_everywhere(self, tmp_path):
        ledger_path = tmp_path / "led.jsonl"
        bench_json = tmp_path / "BENCH_core.json"
        outcome = run_core_suite(
            ledger_path=ledger_path,
            bench_json_path=bench_json,
            runner=lambda config, w, s, **kw: _FakeResult(w, s),
        )
        assert len(outcome.entries) == len(CORE_SUITE)
        names = [e.name for e in outcome.entries]
        assert names[0] == cell_name(*CORE_SUITE[0])
        assert all(n.startswith("core/") for n in names)
        # Ledger got every cell, with bench kind.
        entries = RunLedger.load(ledger_path)
        assert [e.kind for e in entries] == ["bench"] * len(CORE_SUITE)
        # BENCH_core.json excludes host-dependent wall time.
        payload = json.loads(bench_json.read_text())
        assert payload["suite"] == "core" and payload["schema"] == 1
        assert len(payload["results"]) == len(CORE_SUITE)
        assert all(
            "wall_time_s" not in r["metrics"] for r in payload["results"]
        )

    def test_progress_callback_fires_per_cell(self, tmp_path):
        seen = []
        run_core_suite(
            progress=seen.append,
            runner=lambda config, w, s, **kw: _FakeResult(w, s),
        )
        assert len(seen) == len(CORE_SUITE)


# ======================================================================
# CLI integration
# ======================================================================
class TestObsCLI:
    def test_bench_dashboard_flow(self, capsys, tmp_path):
        """The acceptance path: bench records the suite, the dashboard
        renders it offline."""
        ledger = tmp_path / "led.jsonl"
        bench_json = tmp_path / "BENCH_core.json"
        code = main(
            ["obs", "bench", "--ledger", str(ledger),
             "--bench-json", str(bench_json)]
        )
        assert code == 0
        assert bench_json.exists()
        assert len(RunLedger.load(ledger)) == len(CORE_SUITE)
        capsys.readouterr()

        out_html = tmp_path / "dash.html"
        assert main(
            ["obs", "dashboard", "--ledger", str(ledger),
             "--out", str(out_html)]
        ) == 0
        html_text = out_html.read_text()
        assert "<svg" in html_text and "http" not in html_text

    def test_dashboard_missing_ledger_exit_2(self, capsys, tmp_path):
        out_html = tmp_path / "dash.html"
        assert main(
            ["obs", "dashboard", "--ledger", str(tmp_path / "absent.jsonl"),
             "--out", str(out_html)]
        ) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "absent.jsonl" in err
        assert not out_html.exists()

    def test_removed_gate_subcommands_are_usage_errors(self, capsys, tmp_path):
        baseline = str(tmp_path / "b.json")
        for argv in (
            ["obs", "gate", "--baseline", baseline],
            ["obs", "compare", "--baseline", baseline],
            ["obs", "pin", "--out", baseline],
            ["obs", "bench", "--baseline-out", baseline],
            ["obs", "dashboard", "--baseline", baseline],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage:" in capsys.readouterr().err

    def test_run_with_ledger_and_progress(self, capsys, tmp_path):
        ledger = tmp_path / "led.jsonl"
        code = main(
            ["run", "--config", "tiny", "--workload", "hmmer",
             "--scheme", "static-7", "--ledger", str(ledger), "--progress"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "ledger entry appended" in err
        assert "ETA" in err
        entries = RunLedger.load(ledger)
        assert entries[0].name == "hmmer/Static-7-SETs"
        assert entries[0].kind == "run"

    def test_sweep_with_ledger_and_progress(self, capsys, tmp_path):
        ledger = tmp_path / "led.jsonl"
        code = main(
            ["sweep", "--config", "tiny", "--workloads", "hmmer",
             "--schemes", "static-7", "--ledger", str(ledger), "--progress"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "settled" in err
        entries = RunLedger.load(ledger)
        assert [e.kind for e in entries] == ["sweep"]

    def test_trace_diff_on_real_traces(self, capsys, tmp_path):
        trace_a = tmp_path / "a.json"
        trace_b = tmp_path / "b.json"
        assert main(
            ["run", "--config", "tiny", "--workload", "hmmer",
             "--scheme", "rrm", "--trace", str(trace_a)]
        ) == 0
        assert main(
            ["run", "--config", "tiny", "--workload", "hmmer",
             "--scheme", "static-7", "--trace", str(trace_b)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "diff", str(trace_a), str(trace_b)]) == 0
        out = capsys.readouterr().out
        assert "span names" in out
        # RRM-only refresh spans disappear under static-7.
        assert "removed" in out and "dtotal=" in out

    def test_trace_diff_usage_errors(self, capsys, tmp_path):
        assert main(["trace", "diff", "only-one.json"]) == 2
        assert main(["trace", "a.json", "b.json"]) == 2
        missing = tmp_path / "absent.json"
        assert main(["trace", "diff", str(missing), str(missing)]) == 2
