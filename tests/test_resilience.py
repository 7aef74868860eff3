"""Tests for the resilience layer: supervisor, retries, journal, faults."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import (
    CheckpointCorruptError,
    ConfigError,
    JobCrashedError,
    JobTimeoutError,
    ReproError,
    ResilienceError,
)
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    Job,
    ResultJournal,
    RetryPolicy,
    run_jobs,
    run_with_retry,
)
from repro.sim.config import SystemConfig
from repro.sim.metrics import SimResult
from repro.sim.runner import ExperimentRunner, run_workload
from repro.sim.schemes import Scheme

# Fast-failing policies so failure-path tests don't sleep for real.
NO_RETRY = RetryPolicy(max_retries=0, base_delay_s=0.0)
QUICK_RETRY = RetryPolicy(max_retries=2, base_delay_s=0.001, max_delay_s=0.01)


# ----------------------------------------------------------------------
# Job functions for the in-process sweep loop
# ----------------------------------------------------------------------
def _double(x):
    return 2 * x


def _boom():
    raise ValueError("boom")


def _bad_config():
    raise ConfigError("deterministically wrong")


class TestRetryPolicy:
    def test_schedule_is_deterministic_per_seed(self):
        policy = RetryPolicy(max_retries=4, base_delay_s=0.1)
        a = policy.schedule(("w", "s"), seed=42)
        b = policy.schedule(("w", "s"), seed=42)
        assert a == b
        assert policy.schedule(("w", "s"), seed=43) != a
        assert policy.schedule(("other", "s"), seed=42) != a

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_retries=6, base_delay_s=0.1, backoff_factor=2.0,
            max_delay_s=0.4, jitter_fraction=0.0,
        )
        assert policy.schedule(("k",), seed=1) == pytest.approx(
            [0.1, 0.2, 0.4, 0.4, 0.4, 0.4]
        )

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter_fraction=0.25)
        for attempt in (1, 2):
            delay = policy.delay_s(("k",), attempt, seed=7)
            base = min(policy.base_delay_s * 2 ** (attempt - 1), policy.max_delay_s)
            assert base * 0.75 <= delay <= base * 1.25

    def test_config_errors_not_retried(self):
        policy = RetryPolicy(max_retries=5)
        assert not policy.should_retry(1, "ConfigError")
        assert not policy.should_retry(1, "TraceFormatError")
        assert policy.should_retry(1, "ValueError")
        assert not policy.should_retry(6, "ValueError")


class TestFaultSpecs:
    def test_parse_forms(self):
        assert FaultSpec.parse("crash:1") == FaultSpec("crash", "1", None)
        assert FaultSpec.parse("hang:GemsFDTD/rrm") == FaultSpec(
            "hang", "GemsFDTD/rrm", None
        )
        assert FaultSpec.parse("crash:0:1") == FaultSpec("crash", "0", 1)

    @pytest.mark.parametrize(
        "bad", ["crash", "explode:1", "crash:1:zero", "crash:1:0", "a:b:c:d"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigError):
            FaultSpec.parse(bad)

    def test_bind_resolves_index_and_name(self):
        keys = [("hmmer", "Static-7-SETs"), ("hmmer", "RRM")]
        plan = FaultPlan.parse(["crash:1", "hang:hmmer/static-7"]).bind(keys)
        assert plan.fault_for(("hmmer", "RRM"), 1) == "crash"
        assert plan.fault_for(("hmmer", "Static-7-SETs"), 1) == "hang"

    def test_bind_rejects_unknown_targets(self):
        keys = [("hmmer", "RRM")]
        with pytest.raises(ConfigError):
            FaultPlan.parse(["crash:5"]).bind(keys)
        with pytest.raises(ConfigError):
            FaultPlan.parse(["crash:lbm/rrm"]).bind(keys)

    def test_max_fires_limits_attempts(self):
        plan = FaultPlan.parse(["crash:0:2"]).bind([("w", "s")])
        assert plan.fault_for(("w", "s"), 1) == "crash"
        assert plan.fault_for(("w", "s"), 2) == "crash"
        assert plan.fault_for(("w", "s"), 3) is None


class TestSupervisorInline:
    """The sweep loop with ``workers=0``: every attempt in this process."""

    def test_results_in_order(self):
        seen = []
        results, failures, stats = run_jobs(
            [Job(key=(i,), fn=_double, args=(i,)) for i in range(3)],
            retry=NO_RETRY,
            on_result=lambda key, value, attempts: seen.append(
                (key, value, attempts)
            ),
        )
        assert results == {(0,): 0, (1,): 2, (2,): 4}
        assert not failures
        assert seen == [((0,), 0, 1), ((1,), 2, 1), ((2,), 4, 1)]
        assert stats.jobs_completed == 3 and stats.n_workers == 1

    def test_error_degrades_to_failed_run(self):
        slept = []
        results, failures, stats = run_jobs(
            [Job(key=("bad",), fn=_boom), Job(key=("good",), fn=_double, args=(1,))],
            retry=QUICK_RETRY,
            sleep=slept.append,
        )
        assert results == {("good",): 2}
        failed = failures[("bad",)]
        assert failed.kind == "error"
        assert failed.attempts == 3  # 1 try + 2 retries
        assert "boom" in failed.message
        # Each retry waited out its backoff before the next attempt.
        assert len(slept) == 2 and stats.retries == 2

    def test_config_error_fails_fast(self):
        _, failures, _ = run_jobs(
            [Job(key=("cfg",), fn=_bad_config)],
            retry=QUICK_RETRY,
            sleep=lambda s: None,
        )
        assert failures[("cfg",)].attempts == 1

    def test_run_with_retry_raises_structured_error(self):
        with pytest.raises(JobCrashedError):
            run_with_retry(_boom, key=("x",), retry=NO_RETRY)
        assert run_with_retry(_double, (21,), key=("x",), retry=NO_RETRY) == 42

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            run_jobs([Job(key=("k",), fn=_double, args=(1,))] * 2)


class TestJournal:
    def test_append_is_atomic_and_loadable(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ResultJournal(path)
        journal.start({"seed": 3})
        journal.append_result("w1", "s1", {"ipc": 1.0})
        journal.append_failure("w2", "s1", {"kind": "crash"})
        assert list(tmp_path.glob("j.jsonl.tmp*")) == []
        contents = ResultJournal.load(path)
        assert contents.meta["seed"] == 3
        assert contents.results[("w1", "s1")] == {"ipc": 1.0}
        assert contents.failures[("w2", "s1")] == {"kind": "crash"}
        assert not contents.truncated

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ResultJournal(path)
        journal.start({"seed": 1})
        journal.append_result("w1", "s1", {"ipc": 1.0})
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"type": "result", "workload": "w2", "sch')
        contents = ResultJournal.load(path)
        assert contents.truncated
        assert list(contents.results) == [("w1", "s1")]

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [
            json.dumps({"type": "meta", "version": 1}),
            "NOT JSON AT ALL",
            json.dumps(
                {"type": "result", "workload": "w", "scheme": "s", "result": {}}
            ),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointCorruptError):
            ResultJournal.load(path)

    def test_resume_from_drops_failures(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ResultJournal(path)
        journal.start({"seed": 1})
        journal.append_result("w1", "s1", {"ipc": 1.0}, attempts=2)
        journal.append_failure("w2", "s1", {"kind": "timeout"})
        fresh = ResultJournal(path)
        fresh.resume_from(ResultJournal.load(path), {"seed": 1})
        contents = ResultJournal.load(path)
        assert list(contents.results) == [("w1", "s1")]
        assert contents.attempts == {("w1", "s1"): 2}
        assert not contents.failures


class TestRunnerValidation:
    def test_n_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentRunner(SystemConfig.tiny(), n_jobs=0)
        with pytest.raises(ConfigError):
            ExperimentRunner(SystemConfig.tiny(), n_jobs=-2)

    def test_max_events_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentRunner(SystemConfig.tiny(), max_events=0)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentRunner(SystemConfig.tiny(), timeout_s=0)


class TestSimResultRoundTrip:
    def test_journal_serialization_is_lossless(self):
        result = run_workload(
            SystemConfig.tiny(), "hmmer", Scheme.STATIC_7, max_events=20_000
        )
        rebuilt = SimResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict()))
        )
        assert rebuilt == result


@pytest.fixture(scope="module")
def crashed_sweep(tmp_path_factory):
    """A 1x2 sweep where the Static-3 job always crashes."""
    journal = tmp_path_factory.mktemp("sweep") / "journal.jsonl"
    runner = ExperimentRunner(
        SystemConfig.tiny(),
        workloads=["hmmer"],
        schemes=[Scheme.STATIC_7, Scheme.STATIC_3],
        retry=NO_RETRY,
        fault_plan=FaultPlan.parse(["crash:hmmer/static-3"]),
        journal_path=journal,
    )
    runner.run_all()
    return runner, journal


class TestRunnerFailurePaths:
    def test_crash_mid_sweep_degrades(self, crashed_sweep):
        runner, _ = crashed_sweep
        assert runner.has_result("hmmer", Scheme.STATIC_7)
        assert not runner.has_result("hmmer", Scheme.STATIC_3)
        failed = runner.failures[("hmmer", Scheme.STATIC_3)]
        assert failed.kind == "crash"
        with pytest.raises(ConfigError, match="crash"):
            runner.result("hmmer", Scheme.STATIC_3)

    def test_aggregation_skips_failed_cells(self, crashed_sweep):
        runner, _ = crashed_sweep
        assert runner.completed_workloads(Scheme.STATIC_3) == []
        assert runner.ipc_series(Scheme.STATIC_3) == []
        assert math.isnan(runner.geomean_ipc(Scheme.STATIC_3))
        assert math.isnan(
            runner.geomean_speedup(Scheme.STATIC_3, Scheme.STATIC_7)
        )
        assert runner.geomean_ipc(Scheme.STATIC_7) > 0

    def test_reports_annotate_failures(self, crashed_sweep):
        from repro.analysis.report import (
            energy_report,
            failure_report,
            lifetime_report,
            performance_report,
            wear_report,
        )

        runner, _ = crashed_sweep
        assert "FAIL:crash" in performance_report(runner)
        assert "FAIL:crash" in lifetime_report(runner)
        assert "n/a" in wear_report(runner)
        assert "n/a" in energy_report(runner)
        assert "crash" in failure_report(runner)

    def test_save_json_includes_failures(self, crashed_sweep, tmp_path):
        runner, _ = crashed_sweep
        path = tmp_path / "out.json"
        path.write_text("pre-existing", encoding="utf-8")
        runner.save_json(path)
        records = json.loads(path.read_text())
        by_status = {r["status"] for r in records}
        assert by_status == {"ok", "failed"}
        (failed,) = [r for r in records if r["status"] == "failed"]
        assert failed["scheme"] == "Static-3-SETs"
        assert failed["kind"] == "crash"
        assert list(tmp_path.glob("out.json.tmp*")) == []

    def test_journal_records_both_outcomes(self, crashed_sweep):
        _, journal = crashed_sweep
        contents = ResultJournal.load(journal)
        assert list(contents.results) == [("hmmer", "Static-7-SETs")]
        assert list(contents.failures) == [("hmmer", "Static-3-SETs")]


# ----------------------------------------------------------------------
# Isolation on one worker process
# ----------------------------------------------------------------------
#: Event cap that keeps each tiny cell around a tenth of a second.
FAST = 5_000

#: Per-attempt limit: an order of magnitude above a FAST cell's run
#: time, short enough that the hung cell settles in a few seconds.
HANG_TIMEOUT_S = 2.0


@pytest.fixture(scope="module")
def one_worker_sweep(tmp_path_factory):
    """A 3x2 sweep with crash, hang and corrupt faults, ``n_jobs=1``.

    The timeout and the fault plan send it to a single worker process: hmmer/Static-7 crashes on every attempt, hmmer/Static-3
    hangs, GemsFDTD/Static-7 returns a corrupt result, GemsFDTD/Static-3
    crashes on its first attempt only, and both mcf cells are clean.
    """
    journal = tmp_path_factory.mktemp("one-worker") / "journal.jsonl"
    events = []
    runner = ExperimentRunner(
        SystemConfig.tiny(),
        workloads=["hmmer", "GemsFDTD", "mcf"],
        schemes=[Scheme.STATIC_7, Scheme.STATIC_3],
        max_events=FAST,
        timeout_s=HANG_TIMEOUT_S,
        retry=RetryPolicy(max_retries=1, base_delay_s=0.001, max_delay_s=0.01),
        fault_plan=FaultPlan.parse(
            [
                "crash:hmmer/static-7",
                "hang:hmmer/static-3",
                "corrupt:GemsFDTD/static-7",
                "crash:GemsFDTD/static-3:1",
            ]
        ),
        journal_path=journal,
        on_event=lambda name, args: events.append((name, args)),
    )
    runner.run_all()
    return runner, journal, events


class TestOneWorkerFabric:
    def test_runs_on_one_worker(self, one_worker_sweep):
        runner, _, _ = one_worker_sweep
        assert runner.stats.n_workers == 1
        assert runner.stats.respawns >= 1

    def test_worker_crash_is_isolated(self, one_worker_sweep):
        runner, _, _ = one_worker_sweep
        failed = runner.failures[("hmmer", Scheme.STATIC_7)]
        assert failed.kind == "crash"
        assert failed.attempts == 2
        assert isinstance(failed.to_error(), JobCrashedError)
        assert isinstance(failed.to_error(), ResilienceError)
        assert isinstance(failed.to_error(), ReproError)
        # The respawned worker went on to finish the clean cells.
        assert runner.has_result("mcf", Scheme.STATIC_7)
        assert runner.has_result("mcf", Scheme.STATIC_3)

    def test_hang_hits_timeout(self, one_worker_sweep):
        runner, _, _ = one_worker_sweep
        failed = runner.failures[("hmmer", Scheme.STATIC_3)]
        assert failed.kind == "timeout"
        assert failed.attempts == 2
        assert isinstance(failed.to_error(), JobTimeoutError)

    def test_corrupt_fault_caught_by_validation(self, one_worker_sweep):
        runner, _, _ = one_worker_sweep
        failed = runner.failures[("GemsFDTD", Scheme.STATIC_7)]
        assert failed.kind == "corrupt"
        assert "CorruptResultError" in failed.message

    def test_retry_then_succeed(self, one_worker_sweep):
        runner, journal, events = one_worker_sweep
        key = ("GemsFDTD", Scheme.STATIC_3.value)
        assert ("GemsFDTD", Scheme.STATIC_3) not in runner.failures
        retried = [
            args["attempt"]
            for name, args in events
            if name == "job.retry" and tuple(args["key"]) == key
        ]
        assert retried == [1]
        assert ResultJournal.load(journal).attempts[key] == 2
        # The retried cell is the same simulation the in-process path runs.
        expected = run_workload(
            SystemConfig.tiny(), "GemsFDTD", Scheme.STATIC_3, max_events=FAST
        )
        assert runner.result("GemsFDTD", Scheme.STATIC_3).as_dict() == (
            expected.as_dict()
        )

    def test_journal_records_every_outcome(self, one_worker_sweep):
        _, journal, _ = one_worker_sweep
        contents = ResultJournal.load(journal)
        assert set(contents.results) == {
            ("GemsFDTD", Scheme.STATIC_3.value),
            ("mcf", Scheme.STATIC_7.value),
            ("mcf", Scheme.STATIC_3.value),
        }
        kinds = {key: record["kind"] for key, record in contents.failures.items()}
        assert kinds == {
            ("hmmer", Scheme.STATIC_7.value): "crash",
            ("hmmer", Scheme.STATIC_3.value): "timeout",
            ("GemsFDTD", Scheme.STATIC_7.value): "corrupt",
        }


class TestRunnerResume:
    def test_resume_reruns_only_missing(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        first = ExperimentRunner(
            SystemConfig.tiny(),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7, Scheme.STATIC_3],
            retry=NO_RETRY,
            fault_plan=FaultPlan.parse(["crash:hmmer/static-3"]),
            journal_path=journal,
        )
        first.run_all()
        # Simulate a crash mid-append: torn trailing write.
        with journal.open("a", encoding="utf-8") as fh:
            fh.write('{"type": "result", "workload": "hm')

        second = ExperimentRunner(
            SystemConfig.tiny(),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7, Scheme.STATIC_3],
            retry=NO_RETRY,
        )
        reran = []
        second.resume(journal, progress=lambda w, s, r: reran.append((w, s)))
        # Only the journaled failure re-ran; the surviving result was reused.
        assert reran == [("hmmer", Scheme.STATIC_3)]
        assert len(second.results) == 2
        assert not second.failures
        assert second.result("hmmer", Scheme.STATIC_7).ipc == first.result(
            "hmmer", Scheme.STATIC_7
        ).ipc
        # The journal now holds both results and no failure records.
        contents = ResultJournal.load(journal)
        assert len(contents.results) == 2
        assert not contents.failures and not contents.truncated

    def test_resume_without_journal_raises(self):
        runner = ExperimentRunner(SystemConfig.tiny(), workloads=["hmmer"])
        with pytest.raises(ConfigError):
            runner.resume()


class TestSweepCacheJournal:
    def test_bench_cache_resumes_from_journal(self, tmp_path, monkeypatch):
        from benchmarks.common import SweepCache

        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        monkeypatch.setenv(
            "REPRO_BENCH_JOURNAL", str(tmp_path / "bench.jsonl")
        )
        first = SweepCache()
        result = first.get("hmmer", Scheme.STATIC_7)
        assert first.runs_executed == 1
        # A new session (fresh cache) reloads the cell instead of re-running.
        second = SweepCache()
        reloaded = second.get("hmmer", Scheme.STATIC_7)
        assert second.runs_executed == 0
        assert reloaded.ipc == result.ipc
        assert reloaded.scheme is Scheme.STATIC_7


class TestDeterminism:
    def _run(self):
        runner = ExperimentRunner(
            SystemConfig.tiny(seed=5),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7],
            retry=QUICK_RETRY,
            fault_plan=FaultPlan.parse(["crash:0:1"]),  # retry succeeds
        )
        runner.run_all()
        return runner

    def test_same_seed_same_results_and_schedule(self):
        a, b = self._run(), self._run()
        assert not a.failures and not b.failures
        da = a.result("hmmer", Scheme.STATIC_7).to_json_dict()
        db = b.result("hmmer", Scheme.STATIC_7).to_json_dict()
        # Wall time measures the host, not the simulation.
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert da == db
        # The jitter schedule itself is a pure function of the seed.
        policy = QUICK_RETRY
        key = ("hmmer", Scheme.STATIC_7.value)
        assert policy.schedule(key, seed=5) == policy.schedule(key, seed=5)
