"""Tests for the command-line interface."""

import json

import pytest

from repro import __version__
from repro.cli import _telemetry_from_args, build_parser, main
from repro.errors import ConfigError
from repro.telemetry import TelemetryConfig
from repro.utils.units import parse_duration


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "GemsFDTD"
        assert args.scheme == "rrm"
        assert args.config == "scaled"

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "--workloads", "hmmer", "mcf", "--jobs", "4"]
        )
        assert args.workloads == ["hmmer", "mcf"]
        assert args.jobs == 4

    def test_sweep_resilience_options(self):
        args = build_parser().parse_args(
            ["sweep", "--timeout", "30", "--retries", "1",
             "--journal", "j.jsonl", "--resume",
             "--inject-faults", "crash:1", "hang:lbm/rrm:1"]
        )
        assert args.timeout == 30.0
        assert args.retries == 1
        assert args.journal == "j.jsonl"
        assert args.resume
        assert args.inject_faults == ["crash:1", "hang:lbm/rrm:1"]

    def test_sweep_resilience_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.timeout is None
        assert args.retries == 2
        assert args.journal is None
        assert not args.resume
        assert args.inject_faults is None
        assert args.trace is None

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_run_telemetry_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.trace is None
        assert args.metrics_interval is None
        assert args.trace_ring_size is None
        assert _telemetry_from_args(args) is None

    def test_run_telemetry_options(self):
        args = build_parser().parse_args(
            ["run", "--trace", "out.json", "--metrics-interval", "250us",
             "--trace-ring-size", "500"]
        )
        assert args.trace == "out.json"
        assert args.metrics_interval == "250us"
        assert args.trace_ring_size == 500

    def test_trace_ring_size_maps_to_telemetry_config(self):
        args = build_parser().parse_args(["run", "--trace-ring-size", "500"])
        # A bound alone would record nothing: tracing still needs --trace.
        with pytest.raises(ConfigError, match="--trace-ring-size"):
            _telemetry_from_args(args)
        args = build_parser().parse_args(
            ["run", "--trace", "t.json", "--trace-ring-size", "500"]
        )
        assert _telemetry_from_args(args) == TelemetryConfig(
            ring_size=500, metrics_interval_s=parse_duration("1ms")
        )

    def test_run_help_mentions_telemetry(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        assert "telemetry" in capsys.readouterr().out

    def test_trace_subcommand_options(self):
        args = build_parser().parse_args(["trace", "t.json", "--check"])
        assert args.file == ["t.json"]
        assert args.check
        assert args.top == 10

    def test_trace_diff_parses(self):
        args = build_parser().parse_args(["trace", "diff", "a.json", "b.json"])
        assert args.file == ["diff", "a.json", "b.json"]

    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == []
        assert args.format == "text"

    def test_lint_options(self):
        args = build_parser().parse_args(
            ["lint", "src/repro", "benchmarks", "--format", "json"]
        )
        assert args.paths == ["src/repro", "benchmarks"]
        assert args.format == "json"
        # Every finding fails and every rule runs: no severity or
        # selection knobs.
        for gone in (["--strict"], ["--select", "RL001"],
                     ["--ignore", "RL001"], ["--baseline", "b.json"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["lint", *gone])

    def test_lint_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--format", "xml"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "7-SETs-Write" in out
        # Retention of the slow mode: 3054.9s in the paper, reproduced to
        # within calibration error.
        assert "3055" in out or "3054.9" in out
        assert "1150" in out

    def test_table8(self, capsys):
        assert main(["table8"]) == 0
        out = capsys.readouterr().out
        assert "96KB" in out and "1.56%" in out
        assert "4x (default)" in out

    def test_run_tiny(self, capsys):
        code = main(
            ["run", "--config", "tiny", "--workload", "hmmer", "--scheme", "static-7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hmmer" in out and "Static-7-SETs" in out

    def test_run_verbose(self, capsys):
        main(
            ["run", "--config", "tiny", "--workload", "hmmer",
             "--scheme", "static-3", "--verbose"]
        )
        out = capsys.readouterr().out
        assert "lifetime_years" in out

    def test_compare_two_schemes(self, capsys):
        code = main(
            ["compare", "--config", "tiny", "--workload", "hmmer",
             "--schemes", "static-7", "static-3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC normalised" in out
        assert "lifetime" in out.lower()

    def test_table3_tiny(self, capsys):
        code = main(["table3", "--config", "tiny", "--workload", "GemsFDTD"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Average Write Interval" in out
        assert "never written" in out

    def test_sensitivity_threshold(self, capsys):
        code = main(
            ["sensitivity", "--config", "tiny", "--parameter", "threshold",
             "--workloads", "hmmer"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hot_threshold=8" in out and "hot_threshold=64" in out

    def test_sweep_json_output(self, capsys, tmp_path):
        out_file = tmp_path / "r.json"
        code = main(
            ["sweep", "--config", "tiny", "--workloads", "hmmer",
             "--schemes", "static-7", "--output", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()

    def test_sweep_resume_requires_journal(self, capsys):
        code = main(
            ["sweep", "--config", "tiny", "--workloads", "hmmer",
             "--schemes", "static-7", "--resume"]
        )
        assert code == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--jobs", "0"],
            ["--inject-faults", "bogus:0:1"],
            ["--retries", "-1"],
            ["--resume", "--journal", "/nonexistent/x.jsonl"],
            ["--workloads", "hmmer", "hmmer"],
            ["--workloads", "nosuch"],
        ],
        ids=[
            "jobs-0",
            "unknown-fault-kind",
            "retries-negative",
            "resume-missing-journal",
            "duplicate-workload",
            "unknown-workload",
        ],
    )
    def test_sweep_config_error_is_one_line(self, capsys, flags):
        code = main(
            ["sweep", "--config", "tiny", "--workloads", "hmmer",
             "--schemes", "static-7", *flags]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "run", "--config", "tiny", "--top", "-2"],
            ["profile", "report", "p.json", "--top", "-1"],
            ["trace", "diff", "a.json", "b.json", "--top", "-1"],
            ["explain", "--config", "tiny", "--top", "-1"],
            ["obs", "dashboard", "--max-points", "0"],
            ["obs", "dashboard", "--max-points", "-1"],
        ],
        ids=[
            "profile-run-top",
            "profile-report-top",
            "trace-diff-top",
            "explain-top",
            "dashboard-max-points-0",
            "dashboard-max-points-negative",
        ],
    )
    def test_out_of_range_limit_is_one_line(self, capsys, argv):
        flag = argv[-2]
        code = main(argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {flag} must be >= ")

    def test_sweep_ledger_order_independent_of_jobs(self, capsys, tmp_path):
        from repro.obs.ledger import RunLedger

        sequences = []
        for jobs in ("1", "2"):
            ledger = tmp_path / f"ledger-{jobs}.jsonl"
            code = main(
                ["sweep", "--config", "tiny", "--duration", "0.002",
                 "--workloads", "hmmer", "GemsFDTD",
                 "--schemes", "rrm", "static-7",
                 "--jobs", jobs, "--ledger", str(ledger)]
            )
            assert code == 0
            sequences.append(
                [(e.kind, e.name) for e in RunLedger.load(ledger)]
            )
        assert len(sequences[0]) == 4
        assert sequences[0] == sequences[1]

    def test_sweep_with_injected_crash_degrades(self, capsys, tmp_path):
        journal = tmp_path / "j.jsonl"
        code = main(
            ["sweep", "--config", "tiny", "--workloads", "hmmer",
             "--schemes", "static-7", "static-3", "--retries", "0",
             "--inject-faults", "crash:1", "--journal", str(journal)]
        )
        assert code == 0  # degraded completion still succeeds
        out = capsys.readouterr().out
        assert "FAIL:crash" in out
        assert "Failed runs" in out
        assert journal.exists()

    def test_run_with_trace(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.json"
        code = main(
            ["run", "--config", "tiny", "--workload", "hmmer",
             "--scheme", "rrm", "--trace", str(trace_file)]
        )
        assert code == 0
        assert "trace written" in capsys.readouterr().err
        raw = json.loads(trace_file.read_text())
        assert raw["traceEvents"]
        categories = {
            e.get("cat") for e in raw["traceEvents"] if e["ph"] != "M"
        }
        assert len(categories) >= 4

    def test_run_refuses_a_ring_bound_without_tracing(self, capsys):
        code = main(["run", "--config", "tiny", "--trace-ring-size", "5"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "--trace-ring-size" in err[0]

    def test_run_rejects_bad_metrics_interval(self, capsys, tmp_path):
        code = main(
            ["run", "--config", "tiny", "--trace", str(tmp_path / "t.json"),
             "--metrics-interval", "sometimes"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_summary_round_trip(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.json"
        assert main(
            ["run", "--config", "tiny", "--workload", "hmmer",
             "--trace", str(trace_file)]
        ) == 0
        capsys.readouterr()
        code = main(["trace", str(trace_file), "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "categories:" in out and "memctrl" in out

    def test_trace_missing_file(self, capsys):
        code = main(["trace", "/nonexistent/trace.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_diff_refuses_check(self, capsys, tmp_path):
        # --check validates one trace; a diff must not drop it silently.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [
            {"name": "span", "cat": "c", "ph": "X", "ts": 0, "dur": -5,
             "pid": 0, "tid": 0},
        ]}))
        assert main(["trace", str(bad), "--check"]) == 1
        capsys.readouterr()
        assert main(["trace", "diff", str(bad), str(bad), "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --check"), lines

    def test_sweep_with_trace(self, capsys, tmp_path):
        trace_file = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--config", "tiny", "--workloads", "hmmer",
             "--schemes", "static-7", "--trace", str(trace_file)]
        )
        assert code == 0
        raw = json.loads(trace_file.read_text())
        names = {e["name"] for e in raw["traceEvents"]}
        assert "job.attempt" in names and "job.result" in names


class TestLintCommand:
    """`repro-rrm lint` exit codes: 0 clean, 1 findings, 2 usage error."""

    DIRTY = "import time\n\n\ndef stamp():\n    return time.time()\n"

    @staticmethod
    def _dirty_file(tmp_path):
        pkg = tmp_path / "src" / "repro" / "engine"
        pkg.mkdir(parents=True)
        target = pkg / "dirty.py"
        target.write_text(TestLintCommand.DIRTY)
        return target

    def test_lint_repo_is_clean(self, capsys):
        # Self-hosting: the default roots, with their reasoned pragmas,
        # must exit 0.
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_findings_exit_1(self, capsys, tmp_path):
        target = self._dirty_file(tmp_path)
        code = main(["lint", str(target)])
        assert code == 1
        out = capsys.readouterr().out
        assert "RL001" in out
        assert "hint:" in out

    def test_lint_any_finding_exits_1(self, capsys, tmp_path):
        # There is no warning level: an RL004 finding fails the run.
        target = tmp_path / "src" / "repro" / "engine" / "due.py"
        target.parent.mkdir(parents=True)
        target.write_text("def due(t_ns, end_ns):\n    return t_ns == end_ns\n")
        assert main(["lint", str(target)]) == 1
        assert "RL004" in capsys.readouterr().out

    def test_lint_missing_path_exit_2(self, capsys):
        code = main(["lint", "/nonexistent/dir"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_lint_json_format(self, capsys, tmp_path):
        target = self._dirty_file(tmp_path)
        code = main(["lint", str(target), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-lint"
        assert payload["counts"]["errors"] == 1
        assert payload["findings"][0]["rule"] == "RL001"


class TestProfileCommands:
    """The `profile` group: exact counts, written, rendered and diffed."""

    #: A tiny cell short enough to run twice per test.
    RUN = ["profile", "run", "--workload", "hmmer", "--config", "tiny",
           "--duration", "0.002", "--seed", "3"]

    def test_parser_profile_run_defaults(self):
        args = build_parser().parse_args(["profile", "run"])
        assert args.profile_command == "run"
        assert args.workload == "GemsFDTD"
        assert args.scheme == "rrm"
        assert args.out == "profile.json"
        assert args.ledger is None
        assert args.top == 15

    def test_parser_profile_diff_defaults(self):
        args = build_parser().parse_args(["profile", "diff", "a.json", "b.json"])
        assert args.a == "a.json"
        assert args.b == "b.json"
        assert not args.check

    def test_parser_profile_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "run", "--interval", "5ms"],
            ["profile", "run", "--tracemalloc"],
            ["profile", "run", "--flamegraph", "f.svg"],
            ["profile", "run", "--folded", "f.folded"],
            ["profile", "report", "p.json", "--flamegraph", "f.svg"],
            ["profile", "report", "p.json", "--folded", "f.folded"],
            ["profile", "diff", "a.json", "b.json", "--tolerance", "0.1"],
            ["sweep", "--profile", "p.json"],
            ["obs", "dashboard", "--profile", "p.json"],
        ],
    )
    def test_removed_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_profile_run_report_diff_round_trip(self, capsys, tmp_path):
        out = tmp_path / "prof.json"
        assert main([*self.RUN, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "event dispatch" in captured.out
        assert "calls in System.run" in captured.out
        payload = json.loads(out.read_text())
        assert payload["schema"] == 2
        assert payload["dispatch_counts"]
        assert payload["ncalls"]
        assert payload["meta"]["seed"] == 3

        assert main(["profile", "report", str(out)]) == 0
        assert "event dispatch" in capsys.readouterr().out

        code = main(["profile", "diff", str(out), str(out), "--check"])
        assert code == 0
        assert "every count is equal" in capsys.readouterr().out

    def test_counts_repeat_across_hash_seeds(self, fresh_python, tmp_path):
        """Two fresh interpreters with different PYTHONHASHSEED count
        the same cell identically, and `diff --check` agrees."""
        paths = []
        for hash_seed in ("0", "7"):
            out = tmp_path / f"prof-{hash_seed}.json"
            argv = [*self.RUN, "--out", str(out)]
            fresh_python(
                f"from repro.cli import main\nraise SystemExit(main({argv!r}))",
                env={"PYTHONHASHSEED": hash_seed},
            )
            paths.append(out)
        a, b = (json.loads(p.read_text()) for p in paths)
        assert a["ncalls"] and a["dispatch_counts"]
        assert a["ncalls"] == b["ncalls"]
        assert a["dispatch_counts"] == b["dispatch_counts"]
        assert main(["profile", "diff", *map(str, paths), "--check"]) == 0

    def test_one_count_edit_fails_check(self, capsys, tmp_path):
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        assert main([*self.RUN, "--out", str(before)]) == 0
        payload = json.loads(before.read_text())
        label = max(payload["ncalls"], key=payload["ncalls"].get)
        payload["ncalls"][label] += 1
        after.write_text(json.dumps(payload))
        capsys.readouterr()

        code = main(["profile", "diff", str(before), str(after), "--check"])
        assert code == 1
        out = capsys.readouterr().out
        assert "1 counts differ" in out
        assert label in out
        # Without --check the same diff is a report, not a failure.
        assert main(["profile", "diff", str(before), str(after)]) == 0

    def test_profile_report_missing_file_exit_2(self, capsys, tmp_path):
        code = main(["profile", "report", str(tmp_path / "absent.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_profile_report_sampler_artifact_exit_2(self, capsys, tmp_path):
        old = tmp_path / "sampled.json"
        old.write_text(json.dumps(
            {"schema": 1, "interval_s": 0.005, "samples": 4,
             "folded": {"repro.sim.system:System.run": 4}}
        ))
        code = main(["profile", "report", str(old)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "has schema 1, not 2" in lines[0]
