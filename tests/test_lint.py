"""Tests for the simulator-invariant static analyzer (repro.lint).

Every rule id is exercised both positively (a fixture snippet that must
trigger it) and negatively (a clean snippet that must not), plus the
pragma suppression round-trips and the JSON report schema.
"""

import ast
import json
import textwrap

import pytest

from repro.errors import ConfigError
from repro.lint import (
    CHECKERS,
    Finding,
    LintReport,
    iter_python_files,
    lint_source,
    render_json,
    render_text,
    run_lint,
)
from repro.lint.context import (
    ORCH_PATH_PACKAGES,
    SIM_PATH_PACKAGES,
    LintModule,
    parse_pragmas,
)

#: A path inside a sim-path package: every rule is active there.
SIM_PATH = "src/repro/engine/example.py"
#: A path outside the sim path: only the package-agnostic rules apply.
NON_SIM_PATH = "src/repro/analysis/example.py"
#: A path inside an orchestration package: RL008, RL011 and RL012 are
#: active there.
ORCH_PATH = "src/repro/resilience/example.py"


def lint(source, relpath=SIM_PATH):
    return lint_source(textwrap.dedent(source), relpath)


def rules_of(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Registry / plumbing
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_shipped_rule_registered(self):
        ids = [c.rule_id for c in CHECKERS]
        assert ids == [
            "RL001", "RL004", "RL005", "RL006",
            "RL008", "RL011", "RL012",
        ]

    def test_rule_ids_unique(self):
        ids = [c.rule_id for c in CHECKERS]
        assert len(ids) == len(set(ids))

    def test_package_detection(self):
        module = LintModule("x = 1\n", "src/repro/pcm/device.py")
        assert module.package == "pcm"
        assert module.package in SIM_PATH_PACKAGES
        top = LintModule("x = 1\n", "src/repro/cli.py")
        assert top.package == ""
        assert top.package not in SIM_PATH_PACKAGES

    def test_sim_path_packages_match_issue_contract(self):
        assert SIM_PATH_PACKAGES == {
            "engine", "pcm", "memctrl", "cache", "core", "cpu", "sim",
            "attribution",
        }

    def test_orch_path_packages_match_issue_contract(self):
        assert ORCH_PATH_PACKAGES == {
            "resilience", "obs", "profiling",
        }
        assert not (ORCH_PATH_PACKAGES & SIM_PATH_PACKAGES)

    def test_orch_path_detection(self):
        module = LintModule("x = 1\n", ORCH_PATH)
        assert module.package == "resilience"
        assert module.package in ORCH_PATH_PACKAGES
        assert module.package not in SIM_PATH_PACKAGES


# ----------------------------------------------------------------------
# RL001 no-wallclock
# ----------------------------------------------------------------------
class TestRL001:
    def test_flags_time_time(self):
        findings = lint(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert "RL001" in rules_of(findings)

    def test_flags_aliased_monotonic(self):
        findings = lint(
            """
            import time as t

            def stamp():
                return t.monotonic()
            """
        )
        assert "RL001" in rules_of(findings)

    def test_flags_from_import_and_datetime(self):
        findings = lint(
            """
            from time import perf_counter
            from datetime import datetime

            def stamp():
                return perf_counter(), datetime.now()
            """
        )
        assert sum(1 for f in findings if f.rule == "RL001") == 2

    def test_clean_simulated_time(self):
        findings = lint(
            """
            def handler(sim):
                return sim.now + 5.0
            """
        )
        assert "RL001" not in rules_of(findings)

    def test_inactive_outside_sim_path(self):
        findings = lint(
            """
            import time

            def stamp():
                return time.time()
            """,
            relpath=NON_SIM_PATH,
        )
        assert "RL001" not in rules_of(findings)

    def test_local_method_named_time_is_clean(self):
        findings = lint(
            """
            class Clock:
                def time(self):
                    return 0.0

            def use(clock):
                return clock.time()
            """
        )
        assert "RL001" not in rules_of(findings)


# ----------------------------------------------------------------------
# RL004 float-time-equality
# ----------------------------------------------------------------------
class TestRL004:
    def test_flags_equality_on_time_suffix(self):
        findings = lint(
            """
            def due(deadline_ns, t_ns):
                return deadline_ns == t_ns
            """
        )
        hits = [f for f in findings if f.rule == "RL004"]
        assert len(hits) == 1

    def test_flags_inequality_on_now(self):
        findings = lint(
            """
            def moved(sim, start):
                return sim.now != start
            """
        )
        assert "RL004" in rules_of(findings)

    def test_clean_order_comparison(self):
        findings = lint(
            """
            def due(deadline_ns, t_ns):
                return t_ns >= deadline_ns
            """
        )
        assert "RL004" not in rules_of(findings)

    def test_clean_none_check(self):
        findings = lint(
            """
            def unset(deadline_ns):
                return deadline_ns == None
            """
        )
        assert "RL004" not in rules_of(findings)

    def test_clean_tolerance_comparison(self):
        findings = lint(
            """
            import pytest

            def close(measured_ns, expected):
                assert measured_ns == pytest.approx(expected)
            """
        )
        assert "RL004" not in rules_of(findings)

    def test_clean_non_time_identifiers(self):
        findings = lint(
            """
            def same(count, other_count):
                return count == other_count
            """
        )
        assert "RL004" not in rules_of(findings)


# ----------------------------------------------------------------------
# RL005 metrics-coverage
# ----------------------------------------------------------------------
class TestRL005:
    def test_flags_counter_class_without_registration(self):
        findings = lint(
            """
            class Widget:
                def __init__(self):
                    self.hits = 0

                def touch(self):
                    self.hits += 1
            """
        )
        hits = [f for f in findings if f.rule == "RL005"]
        assert len(hits) == 1
        assert "hits" in hits[0].message
        assert "Widget" in hits[0].message

    def test_clean_with_register_metrics(self):
        findings = lint(
            """
            class Widget:
                def __init__(self):
                    self.hits = 0

                def touch(self):
                    self.hits += 1

                def register_metrics(self, registry, prefix):
                    registry.gauge(f"{prefix}.hits", lambda: self.hits)
            """
        )
        assert "RL005" not in rules_of(findings)

    def test_clean_private_and_non_counter_attrs(self):
        findings = lint(
            """
            class Cursor:
                def __init__(self):
                    self._clock = 0
                    self.position = 0

                def advance(self):
                    self._clock += 1
                    self.position += 3
            """
        )
        assert "RL005" not in rules_of(findings)

    def test_clean_owner_incrementing_stats_struct(self):
        findings = lint(
            """
            class Owner:
                def __init__(self, stats):
                    self.stats = stats

                def work(self):
                    self.stats.reads += 1
            """
        )
        assert "RL005" not in rules_of(findings)

    def test_inactive_outside_sim_path(self):
        findings = lint(
            """
            class Widget:
                def touch(self):
                    self.hits += 1
            """,
            relpath=NON_SIM_PATH,
        )
        assert "RL005" not in rules_of(findings)


# ----------------------------------------------------------------------
# RL006 event-discipline
# ----------------------------------------------------------------------
class TestRL006:
    def test_flags_negative_delay(self):
        findings = lint(
            """
            def go(sim, cb):
                sim.schedule_after(-5.0, cb)
            """
        )
        assert "RL006" in rules_of(findings)

    def test_flags_absolute_literal_schedule_at(self):
        findings = lint(
            """
            def go(sim, cb):
                sim.schedule_at(100.0, cb)
            """
        )
        assert "RL006" in rules_of(findings)

    def test_flags_non_positive_period(self):
        findings = lint(
            """
            def go(sim, cb):
                sim.schedule_periodic(0, cb)
            """
        )
        assert "RL006" in rules_of(findings)

    def test_flags_clock_mutation_through_other_object(self):
        findings = lint(
            """
            def warp(sim, t):
                sim._now = t
            """
        )
        assert "RL006" in rules_of(findings)

    def test_clean_now_relative_scheduling(self):
        findings = lint(
            """
            def go(sim, cb, delay):
                sim.schedule_after(delay, cb)
                sim.schedule_at(sim.now + 10.0, cb)
            """
        )
        assert "RL006" not in rules_of(findings)

    def test_clean_self_clock_ownership(self):
        findings = lint(
            """
            class Engine:
                def __init__(self):
                    self._now = 0.0

                def _advance(self, t):
                    self._now = t
            """
        )
        assert "RL006" not in rules_of(findings)


# ----------------------------------------------------------------------
# Enclosing-function lookup (read by RL008 and RL011)
# ----------------------------------------------------------------------
class TestLintModule:
    def test_enclosing_function_qualnames(self):
        module = LintModule(
            textwrap.dedent(
                """
                X = 1

                def helper():
                    def inner():
                        pass

                class Journal:
                    def append(self):
                        helper()

                    class Entry:
                        def render(self):
                            pass
                """
            ),
            ORCH_PATH,
        )
        owners = {
            node.name: module.enclosing_function(node)
            for node in module.walk()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert {name: owner and owner[0] for name, owner in owners.items()} == {
            "helper": "helper",
            "inner": "helper",
            "Journal": None,
            "append": "Journal.append",
            "Entry": None,
            "render": "Entry.render",
        }
        assert module.enclosing_function(module.tree.body[0]) is None
        call = next(n for n in module.walk() if isinstance(n, ast.Call))
        qualname, func = module.enclosing_function(call)
        assert qualname == "Journal.append" and func.name == "append"


# ----------------------------------------------------------------------
# RL008 atomic-persistence
# ----------------------------------------------------------------------
class TestRL008:
    def test_flags_bare_write_text(self):
        findings = lint(
            """
            def pin(path, payload):
                path.write_text(payload)
            """,
            relpath=ORCH_PATH,
        )
        assert "RL008" in rules_of(findings)

    def test_flags_open_for_write_and_json_dump(self):
        findings = lint(
            """
            import json

            def dump(path, payload):
                with open(path, "w") as fh:
                    json.dump(payload, fh)
            """,
            relpath=ORCH_PATH,
        )
        assert sum(1 for f in findings if f.rule == "RL008") == 2

    def test_clean_tmp_plus_os_replace(self):
        findings = lint(
            """
            import os

            def pin(path, tmp, payload):
                tmp.write_text(payload)
                os.replace(tmp, path)
            """,
            relpath=ORCH_PATH,
        )
        assert "RL008" not in rules_of(findings)

    def test_clean_atomic_helper_call(self):
        findings = lint(
            """
            import json
            from repro.utils.persist import save_json

            def pin(path, payload):
                save_json(path, payload)
            """,
            relpath=ORCH_PATH,
        )
        assert "RL008" not in rules_of(findings)

    def test_clean_read_modes(self):
        findings = lint(
            """
            def load(path):
                with open(path, "r+b") as fh:
                    return fh.read()
            """,
            relpath=ORCH_PATH,
        )
        assert "RL008" not in rules_of(findings)

    def test_inactive_outside_orch_path(self):
        findings = lint(
            """
            def pin(path, payload):
                path.write_text(payload)
            """,
            relpath=NON_SIM_PATH,
        )
        assert "RL008" not in rules_of(findings)


# ----------------------------------------------------------------------
# RL011 wallclock-lease-logic
# ----------------------------------------------------------------------
class TestRL011:
    def test_flags_wallclock_deadline(self):
        findings = lint(
            """
            import time

            def wait(timeout_s):
                deadline = time.monotonic() + timeout_s
                while time.monotonic() < deadline:
                    pass
            """,
            relpath=ORCH_PATH,
        )
        assert sum(1 for f in findings if f.rule == "RL011") == 2

    def test_flags_wallclock_lease_expiry(self):
        findings = lint(
            """
            import time

            def is_expired(lease):
                return time.time() > lease.expires_unix_s
            """,
            relpath=ORCH_PATH,
        )
        assert "RL011" in rules_of(findings)

    def test_clean_injected_clock(self):
        findings = lint(
            """
            import time

            def wait(timeout_s, clock=time.monotonic):
                deadline = clock() + timeout_s
                while clock() < deadline:
                    pass
            """,
            relpath=ORCH_PATH,
        )
        assert "RL011" not in rules_of(findings)

    def test_clean_measurement_in_lease_function(self):
        findings = lint(
            """
            import time

            def run(timeout_s):
                started = time.monotonic()
                elapsed_s = time.monotonic() - started
                return elapsed_s
            """,
            relpath=ORCH_PATH,
        )
        assert "RL011" not in rules_of(findings)

    def test_clean_no_lease_vocabulary(self):
        findings = lint(
            """
            import time

            def stamp():
                return time.time()
            """,
            relpath=ORCH_PATH,
        )
        assert "RL011" not in rules_of(findings)

    def test_inactive_outside_orch_path(self):
        findings = lint(
            """
            import time

            def wait(timeout_s):
                deadline = time.monotonic() + timeout_s
            """,
            relpath=NON_SIM_PATH,
        )
        assert "RL011" not in rules_of(findings)


# ----------------------------------------------------------------------
# RL012 silent-swallow
# ----------------------------------------------------------------------
class TestRL012:
    def test_flags_swallowing_pass(self):
        findings = lint(
            """
            def pump(queue):
                try:
                    queue.get()
                except Exception:
                    pass
            """,
            relpath=ORCH_PATH,
        )
        assert "RL012" in rules_of(findings)

    def test_flags_bare_except_continue(self):
        findings = lint(
            """
            def serve(jobs):
                for job in jobs:
                    try:
                        job()
                    except:
                        continue
            """,
            relpath=ORCH_PATH,
        )
        assert "RL012" in rules_of(findings)

    def test_clean_logging_handler(self):
        findings = lint(
            """
            def serve(self, job):
                try:
                    job()
                except Exception as exc:
                    self._log(f"failed: {exc}")
            """,
            relpath=ORCH_PATH,
        )
        assert "RL012" not in rules_of(findings)

    def test_clean_counter_bump(self):
        findings = lint(
            """
            def pump(self, queue):
                try:
                    queue.get()
                except Exception:
                    self.events_dropped += 1
            """,
            relpath=ORCH_PATH,
        )
        assert "RL012" not in rules_of(findings)

    def test_clean_error_capture_and_raise(self):
        findings = lint(
            """
            def settle(state, job):
                try:
                    job()
                except Exception as exc:
                    state.error = str(exc)
                try:
                    job()
                except BaseException:
                    raise
            """,
            relpath=ORCH_PATH,
        )
        assert "RL012" not in rules_of(findings)

    def test_narrow_except_not_flagged(self):
        findings = lint(
            """
            def load(path):
                try:
                    return path.read_text()
                except OSError:
                    pass
            """,
            relpath=ORCH_PATH,
        )
        assert "RL012" not in rules_of(findings)

    def test_inactive_outside_orch_path(self):
        findings = lint(
            """
            def pump(queue):
                try:
                    queue.get()
                except Exception:
                    pass
            """,
            relpath=NON_SIM_PATH,
        )
        assert "RL012" not in rules_of(findings)


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
class TestPragmas:
    def test_same_line_disable(self):
        findings = lint(
            """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=RL001 -- host stamp
            """
        )
        assert "RL001" not in rules_of(findings)

    def test_disable_is_rule_specific(self):
        findings = lint(
            """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=RL004 -- wrong rule
            """
        )
        assert "RL001" in rules_of(findings)

    def test_multi_rule_disable(self):
        findings = lint(
            """
            import time

            def due(sim):
                return time.time() == sim.now  # repro-lint: disable=RL001,RL004 -- fixture
            """
        )
        assert rules_of(findings) == set()

    def test_disable_all(self):
        # One pragma form: `disable=all` and `disable-file=` suppress
        # nothing; each excused finding names its rule.
        findings = lint(
            """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=all -- fixture
            """
        )
        assert "RL001" in rules_of(findings)

    def test_disable_file(self):
        findings = lint(
            """
            # repro-lint: disable-file=RL001 -- host-side helpers
            import time

            def stamp():
                return time.time()
            """
        )
        assert "RL001" in rules_of(findings)

    def test_pragma_on_multiline_statement_span(self):
        findings = lint(
            """
            def go(sim, cb):
                sim.schedule_at(
                    100.0,
                    cb,
                )  # repro-lint: disable=RL006 -- fixture
            """
        )
        assert "RL006" not in rules_of(findings)

    def test_disable_new_concurrency_rule(self):
        findings = lint(
            """
            import time

            def lease_expired(deadline):
                return time.time() > deadline  # repro-lint: disable=RL011 -- fixture
            """,
            relpath=ORCH_PATH,
        )
        assert "RL011" not in rules_of(findings)

    def test_disable_swallow_rule_on_handler_line(self):
        findings = lint(
            """
            def pump(queue):
                try:
                    queue.get()
                except Exception:  # repro-lint: disable=RL012 -- fixture
                    pass
            """,
            relpath=ORCH_PATH,
        )
        assert "RL012" not in rules_of(findings)

    def test_parse_pragmas_shapes(self):
        assert parse_pragmas(
            [
                "x = 1  # repro-lint: disable=RL001, rl004 -- reason",
                "# repro-lint: disable-file=RL005 -- reason",
            ]
        ) == {1: {"RL001", "RL004"}}

    @pytest.mark.parametrize(
        "pragma",
        [
            "# repro-lint: disable=RL001",
            "# repro-lint: disable=RL001 --",
            "# repro-lint: disable=RL001 --   ",
        ],
    )
    def test_pragma_without_reason_suppresses_nothing(self, pragma):
        source = f"import time\n\ndef stamp():\n    return time.time()  {pragma}\n"
        assert "RL001" in rules_of(lint_source(source, SIM_PATH))
        reasoned = source.replace(pragma, "# repro-lint: disable=RL001 -- why")
        assert "RL001" not in rules_of(lint_source(reasoned, SIM_PATH))

    def test_file_pragma_without_reason_suppresses_nothing(self):
        assert parse_pragmas(
            ["# repro-lint: disable-file=RL005", "x = 1  # repro-lint: disable=RL001"]
        ) == {}

    def test_pragma_inside_a_string_suppresses_nothing(self):
        findings = lint(
            '''
            """Grammar: # repro-lint: disable-file=RL001 -- docs"""
            import time

            def stamp():
                hint = "# repro-lint: disable=RL001 -- a hint"; return time.time()
            '''
        )
        assert "RL001" in rules_of(findings)

    def test_form_feed_keeps_pragma_lines_in_step(self):
        source = (
            "import time\n# page \x0c break\n\ndef stamp():\n"
            "    return time.time()  # repro-lint: disable=RL001 -- why\n"
        )
        assert "RL001" not in rules_of(lint_source(source, SIM_PATH))

    def test_pragma_in_a_trailing_comment_suppresses(self):
        findings = lint(
            """
            import time

            def stamp():
                return time.time(), "#"  # repro-lint: disable=RL001 -- why
            """
        )
        assert "RL001" not in rules_of(findings)


# ----------------------------------------------------------------------
# run_lint end-to-end (tmp tree) + reporters
# ----------------------------------------------------------------------
DIRTY_SOURCE = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)


def _make_tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "engine"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text(DIRTY_SOURCE)
    (pkg / "clean.py").write_text("def f(sim):\n    return sim.now\n")
    return tmp_path


class TestRunLint:
    def test_scans_directory_and_reports(self, tmp_path, monkeypatch):
        _make_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        report = run_lint(["src/repro"])
        assert report.files_scanned == 2
        assert len(report.findings) == 1
        assert report.findings[0].rule == "RL001"
        assert report.findings[0].path.endswith("dirty.py")
        assert report.exit_code() == 1

    def test_missing_path_raises_config_error(self):
        with pytest.raises(ConfigError):
            run_lint(["/definitely/not/a/path"])

    def test_parse_error_becomes_rl000(self, tmp_path, monkeypatch):
        pkg = tmp_path / "src" / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "broken.py").write_text("def f(:\n")
        monkeypatch.chdir(tmp_path)
        report = run_lint(["src/repro"])
        assert [f.rule for f in report.findings] == ["RL000"]
        assert report.exit_code() == 1

    def test_iter_python_files_sorted_unique(self, tmp_path):
        _make_tree(tmp_path)
        root = str(tmp_path / "src")
        files = iter_python_files([root, root])
        assert files == sorted(set(files))
        assert all(f.endswith(".py") for f in files)

    def test_every_finding_exits_1(self):
        finding = Finding(rule="RL004", path="x.py", line=1, col=0, message="m")
        assert LintReport(findings=[finding], files_scanned=1).exit_code() == 1
        assert LintReport(files_scanned=1).exit_code() == 0


class TestReporters:
    @staticmethod
    def _report():
        finding = Finding(
            rule="RL001",
            path="src/repro/engine/dirty.py",
            line=4,
            col=11,
            message="wall-clock read `time.time()` on the simulation path",
            hint="use Simulator.now",
            context="return time.time()",
        )
        return LintReport(findings=[finding], files_scanned=2)

    def test_text_report_contains_location_and_summary(self):
        text = render_text(self._report())
        assert "src/repro/engine/dirty.py:4:12: RL001" in text
        assert "hint: use Simulator.now" in text
        assert "1 error(s)" in text

    def test_json_schema_stable(self):
        payload = json.loads(render_json(self._report()))
        assert set(payload) == {
            "version", "tool", "files_scanned", "rules_active", "counts",
            "findings",
        }
        assert payload["version"] == 4
        assert payload["tool"] == "repro-lint"
        assert payload["rules_active"] == [c.rule_id for c in CHECKERS]
        assert payload["counts"] == {"errors": 1, "by_rule": {"RL001": 1}}
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "hint", "context",
        }
        assert finding["line"] == 4 and finding["col"] == 11

    def test_json_round_trips_through_loads(self):
        assert json.loads(render_json(LintReport(files_scanned=0)))[
            "findings"
        ] == []


# ----------------------------------------------------------------------
# Self-hosting: the repository obeys its own invariants
# ----------------------------------------------------------------------
class TestSelfHosting:
    def test_repo_lints_clean_under_strict(self):
        # Every finding fails the run; only reasoned pragmas excuse one.
        report = run_lint()  # default roots
        assert report.clean, "\n".join(f.render() for f in report.findings)
        assert report.exit_code() == 0
