"""Tests for sweeps on worker processes: the journal their coordinator
writes, the sweep loop's worker pool, and the satellite observability
pieces."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import CheckpointCorruptError, ConfigError
from repro.obs.ledger import KIND_SWEEP, LedgerEntry, RunLedger
from repro.resilience import FaultPlan, ResultJournal, RetryPolicy
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner, run_workload
from repro.sim.schemes import Scheme

#: Event cap that keeps each simulated cell well under a second.
FAST = 20_000


def tiny_config(seed: int = 1) -> SystemConfig:
    return SystemConfig.tiny(seed=seed)


def _running(pid: int) -> bool:
    """Whether *pid* is a live (not exited, not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


# ----------------------------------------------------------------------
# ResultJournal
# ----------------------------------------------------------------------
class TestResultJournal:
    def keys(self, n=6):
        return [(f"w{i}", "rrm") for i in range(n)]

    def test_torn_tail_is_repaired_on_next_append(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ResultJournal(path)
        journal.start({})
        journal.append_result("w0", "rrm", {"ok": 1})
        # Simulate a writer dying mid-line (no trailing newline).
        with open(path, "ab") as fh:
            fh.write(b'{"type": "torn-fragm')
        journal.append_result("w1", "rrm", {"ok": 1})
        # The fragment was truncated away; the strict loader sees a
        # clean journal with both complete records.
        assert b"torn-fragm" not in path.read_bytes()
        contents = ResultJournal.load(path)
        assert ("w0", "rrm") in contents.results
        assert ("w1", "rrm") in contents.results

    def test_loads_with_plain_result_journal(self, tmp_path):
        """Journals of the earlier work-queue executor load: their lease
        records are ignored, and resume_from drops them from the file."""
        path = tmp_path / "j.jsonl"
        journal = ResultJournal(path)
        journal.start({"seed": 7})
        keys = self.keys(2)
        journal.append(
            {"type": "claim", "workload": keys[0][0], "scheme": keys[0][1],
             "worker": 0, "attempt": 1, "expires_unix_s": 1.0}
        )
        journal.append(
            {"type": "release", "workload": keys[1][0], "scheme": keys[1][1],
             "worker": 0, "reason": "crash"}
        )
        journal.append(
            {"type": "result", "workload": keys[0][0], "scheme": keys[0][1],
             "result": {"ok": 1}, "worker": 0}
        )
        contents = ResultJournal.load(path)
        assert contents.meta["seed"] == 7
        assert contents.results == {keys[0]: {"ok": 1}}
        ResultJournal(path).resume_from(contents, {"seed": 7})
        types = [json.loads(line)["type"] for line in path.read_text().splitlines()]
        assert types == ["meta", "result"]


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestSweepFingerprint:
    def test_resume_refuses_mismatched_config(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        runner = ExperimentRunner(
            tiny_config(seed=1),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7],
            max_events=FAST,
            journal_path=journal,
        )
        runner.run_all()
        other = ExperimentRunner(
            tiny_config(seed=2),  # different seed -> different config hash
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7],
            max_events=FAST,
            journal_path=journal,
        )
        with pytest.raises(CheckpointCorruptError, match="different sweep"):
            other.resume()

    def test_resume_refuses_mismatched_spec(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        runner = ExperimentRunner(
            tiny_config(),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7],
            max_events=FAST,
            journal_path=journal,
        )
        runner.run_all()
        other = ExperimentRunner(
            tiny_config(),
            workloads=["hmmer", "GemsFDTD"],  # widened sweep
            schemes=[Scheme.STATIC_7],
            max_events=FAST,
            journal_path=journal,
        )
        with pytest.raises(CheckpointCorruptError, match="spec_sha256"):
            other.resume()

    def test_legacy_journal_without_fingerprint_resumes(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        runner = ExperimentRunner(
            tiny_config(),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7],
            max_events=FAST,
            journal_path=journal,
        )
        runner.run_all()
        # Strip the fingerprint, as a pre-fabric journal would look.
        lines = journal.read_text().splitlines()
        meta = json.loads(lines[0])
        meta.pop("fingerprint")
        journal.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        again = ExperimentRunner(
            tiny_config(),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7],
            max_events=FAST,
            journal_path=journal,
        )
        results = again.resume()
        assert len(results) == 1


# ----------------------------------------------------------------------
# The worker pool
# ----------------------------------------------------------------------
#: to_json_dict fields that legitimately differ between hosts/runs.
HOST_DEPENDENT = {"wall_time_s"}


def _comparable(result) -> dict:
    return {
        k: v
        for k, v in result.to_json_dict().items()
        if k not in HOST_DEPENDENT
    }


class TestRunJobsOnWorkers:
    """The sweep loop's worker pool, driven through the runner."""

    WORKLOADS = ["hmmer", "GemsFDTD"]
    SCHEMES = [Scheme.STATIC_7]

    def test_bit_identical_to_serial(self, tmp_path):
        serial = ExperimentRunner(
            tiny_config(),
            workloads=self.WORKLOADS,
            schemes=self.SCHEMES,
            max_events=FAST,
        )
        serial.run_all()
        fabric = ExperimentRunner(
            tiny_config(),
            workloads=self.WORKLOADS,
            schemes=self.SCHEMES,
            max_events=FAST,
            n_jobs=2,
            journal_path=tmp_path / "j.jsonl",
        )
        fabric.run_all()
        assert set(serial.results) == set(fabric.results)
        for key in serial.results:
            assert _comparable(serial.results[key]) == _comparable(
                fabric.results[key]
            ), key
        stats = fabric.stats
        assert stats.n_workers == 2
        assert stats.jobs_completed == 2
        assert stats.jobs_failed == 0
        assert stats.wall_s > 0
        assert 0.0 < stats.utilization <= 1.0
        # The coordinator is the journal's only writer: no lock sidecar.
        assert list(tmp_path.glob("*.lock")) == []

    def test_crash_injection_recovers(self, tmp_path):
        plan = FaultPlan.parse(["crash:0:1"])
        events = []
        runner = ExperimentRunner(
            tiny_config(),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7, Scheme.RRM],
            max_events=FAST,
            n_jobs=2,
            journal_path=tmp_path / "j.jsonl",
            fault_plan=plan,
            retry=RetryPolicy(max_retries=2, base_delay_s=0.001),
            on_event=lambda name, args: events.append(name),
        )
        runner.run_all()
        assert len(runner.results) == 2 and not runner.failures
        assert runner.stats.respawns >= 1
        assert "job.retry" in events and "fabric.respawn" in events
        # The journal records the crashed first attempt in the attempt
        # count of the successful rerun — deterministic attempts.
        assert ResultJournal.load(tmp_path / "j.jsonl").attempts == {
            ("hmmer", Scheme.STATIC_7.value): 2,
            ("hmmer", Scheme.RRM.value): 1,
        }

    def test_fault_plan_attempts_independent_of_workers(self, tmp_path):
        attempts = []
        for n_jobs in (1, 4):
            journal = tmp_path / f"j{n_jobs}.jsonl"
            runner = ExperimentRunner(
                tiny_config(),
                workloads=self.WORKLOADS,
                schemes=[Scheme.STATIC_7, Scheme.RRM],
                max_events=FAST,
                n_jobs=n_jobs,
                journal_path=journal,
                fault_plan=FaultPlan.parse(["crash:1:1"]),
                retry=RetryPolicy(max_retries=2, base_delay_s=0.001),
            )
            runner.run_all()
            assert not runner.failures
            attempts.append(ResultJournal.load(journal).attempts)
        assert attempts[0] == attempts[1]
        assert attempts[0][("hmmer", Scheme.RRM.value)] == 2
        assert sum(attempts[0].values()) == 5

    def test_sigkilled_worker_is_retried(self, fresh_python, tmp_path):
        """A worker SIGKILLed mid-attempt wakes the coordinator through
        its sentinel; the cell is retried on a fresh worker. Runs in a
        fresh interpreter, so a hang fails the test instead of stalling
        the suite."""
        (tmp_path / "killer.py").write_text(
            "import os, signal\n"
            "from pathlib import Path\n"
            "from repro.sim.runner import run_workload\n"
            "from repro.sim.schemes import Scheme\n"
            f"MARKER = Path({str(tmp_path / 'killed')!r})\n"
            "def run_job(config, workload, scheme_value, max_events):\n"
            "    if workload == 'GemsFDTD' and not MARKER.exists():\n"
            "        MARKER.touch()\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return run_workload(config, workload, Scheme(scheme_value),\n"
            "                        max_events=max_events)\n",
            encoding="utf-8",
        )
        journal = tmp_path / "j.jsonl"
        fresh_python(
            "import sys\n"
            f"sys.path.insert(0, {str(tmp_path)!r})\n"
            "import killer\n"
            "import repro.sim.runner as runner_module\n"
            "from repro.resilience import RetryPolicy\n"
            "from repro.sim.config import SystemConfig\n"
            "from repro.sim.schemes import Scheme\n"
            "runner_module._run_job = killer.run_job\n"
            "runner = runner_module.ExperimentRunner(\n"
            "    SystemConfig.tiny(1), ['hmmer', 'GemsFDTD'], [Scheme.STATIC_7],\n"
            f"    max_events={FAST}, n_jobs=2, journal_path={str(journal)!r},\n"
            "    retry=RetryPolicy(max_retries=1, base_delay_s=0.001),\n"
            ")\n"
            "runner.run_all()\n"
            "assert not runner.failures, runner.failures\n"
        )
        assert (tmp_path / "killed").exists()
        assert ResultJournal.load(journal).attempts == {
            ("hmmer", Scheme.STATIC_7.value): 1,
            ("GemsFDTD", Scheme.STATIC_7.value): 2,
        }

    @pytest.mark.skipif(not Path("/proc/self").exists(), reason="needs /proc")
    def test_workers_exit_when_the_coordinator_is_killed(self, tmp_path):
        """SIGKILL the coordinator mid-sweep: its workers find their
        pipes closed and exit instead of waiting for work forever."""
        import repro

        pids = tmp_path / "pids"
        pids.mkdir()
        (tmp_path / "napper.py").write_text(
            "import os, time\n"
            "from pathlib import Path\n"
            "from repro.sim.runner import run_workload\n"
            "from repro.sim.schemes import Scheme\n"
            "def run_job(config, workload, scheme_value, max_events):\n"
            f"    (Path({str(pids)!r}) / str(os.getpid())).touch()\n"
            "    time.sleep(0.5)\n"
            "    return run_workload(config, workload, Scheme(scheme_value),\n"
            "                        max_events=max_events)\n",
            encoding="utf-8",
        )
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(tmp_path)!r})\n"
            "import napper\n"
            "import repro.sim.runner as runner_module\n"
            "from repro.sim.config import SystemConfig\n"
            "from repro.sim.schemes import Scheme\n"
            "runner_module._run_job = napper.run_job\n"
            "runner_module.ExperimentRunner(\n"
            "    SystemConfig.tiny(1), ['hmmer', 'GemsFDTD', 'mcf'],\n"
            "    [Scheme.STATIC_7, Scheme.RRM], max_events=2000, n_jobs=2,\n"
            ").run_all()\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        coordinator = subprocess.Popen(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}
        )
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = [int(p.name) for p in pids.iterdir()]
            assert len(workers) == 2, "workers never started"
            coordinator.kill()
            coordinator.wait(timeout=30)
            deadline = time.monotonic() + 30
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(_running, workers)), "orphaned workers"
        finally:
            coordinator.kill()
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)

    def test_exhausted_retries_become_failure(self, tmp_path):
        plan = FaultPlan.parse(["crash:0"])  # crash every attempt
        runner = ExperimentRunner(
            tiny_config(),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7],
            max_events=FAST,
            n_jobs=2,
            journal_path=tmp_path / "j.jsonl",
            fault_plan=plan,
            retry=RetryPolicy(max_retries=1, base_delay_s=0.001),
        )
        runner.run_all()
        assert not runner.results
        failed = runner.failures[("hmmer", Scheme.STATIC_7)]
        assert failed.kind == "crash"

    def test_resume_composes_with_jobs(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        first = ExperimentRunner(
            tiny_config(),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7, Scheme.RRM],
            max_events=FAST,
            n_jobs=2,
            journal_path=journal,
        )
        first.run_all()
        # Drop one result, as an interrupted sweep would have.
        lines = [
            line
            for line in journal.read_text().splitlines()
            if not (
                json.loads(line).get("type") == "result"
                and json.loads(line).get("scheme") == Scheme.RRM.value
            )
        ]
        journal.write_text("\n".join(lines) + "\n")
        second = ExperimentRunner(
            tiny_config(),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7, Scheme.RRM],
            max_events=FAST,
            n_jobs=2,
            journal_path=journal,
        )
        second.resume()
        assert set(second.results) == set(first.results)
        # Only the dropped cell re-ran.
        assert second.stats.jobs_completed == 1

    def test_ledger_shards_merge_to_sweep_order(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        runner = ExperimentRunner(
            tiny_config(),
            workloads=self.WORKLOADS,
            schemes=self.SCHEMES,
            max_events=FAST,
            n_jobs=2,
            journal_path=tmp_path / "j.jsonl",
            ledger_path=ledger_path,
        )
        runner.run_all()
        entries = RunLedger.load(ledger_path)
        assert [e.name for e in entries] == sorted(e.name for e in entries)
        assert len(entries) == 2
        assert all(e.kind == KIND_SWEEP for e in entries)
        assert all("sim_events_per_sec" in e.metrics for e in entries)
        # The coordinator wrote the ledger itself: no per-worker shards.
        assert list(tmp_path.glob("*.part.jsonl")) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            ExperimentRunner(tiny_config(), n_jobs=0)
        with pytest.raises(ConfigError):
            ExperimentRunner(tiny_config(), n_jobs=2, timeout_s=-1)


# ----------------------------------------------------------------------
# Ledger throughput metrics
# ----------------------------------------------------------------------
class TestLedgerSatellites:
    def test_from_result_records_throughput(self):
        result = run_workload(
            tiny_config(), "hmmer", Scheme.STATIC_7, max_events=FAST
        )
        entry = LedgerEntry.from_result(result, tiny_config())
        assert entry.metrics["sim_events"] == float(result.sim_events)
        assert entry.metrics["sim_events_per_sec"] == pytest.approx(
            result.sim_events / result.wall_time_s
        )
        # The reporting view stays unchanged — sim_events is not a
        # simulation statistic and must not widen the bit-identity
        # comparison surface.
        assert "sim_events" not in result.as_dict()

    def test_sim_events_round_trips_through_journal(self):
        result = run_workload(
            tiny_config(), "hmmer", Scheme.STATIC_7, max_events=FAST
        )
        assert result.sim_events > 0
        from repro.sim.metrics import SimResult

        again = SimResult.from_json_dict(result.to_json_dict())
        assert again.sim_events == result.sim_events
        # Legacy journal records (no sim_events) still load.
        legacy = result.to_json_dict()
        legacy.pop("sim_events")
        assert SimResult.from_json_dict(legacy).sim_events == 0
