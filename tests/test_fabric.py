"""Tests for the sharded sweep fabric: locking, shared journal, executor,
and the satellite observability pieces."""

from __future__ import annotations

import io
import json
import multiprocessing
import threading
import time

import pytest

from repro.errors import (
    CheckpointCorruptError,
    ConfigError,
    LockTimeoutError,
)
from repro.fabric import Claim, FabricExecutor, FileLock, SharedJournal
from repro.obs.ledger import KIND_SWEEP, LedgerEntry, RunLedger, merge_ledgers
from repro.obs.progress import SweepProgress, _LineWriter
from repro.resilience import FaultPlan, ResultJournal, RetryPolicy
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner, run_workload
from repro.sim.schemes import Scheme

#: Event cap that keeps each simulated cell well under a second.
FAST = 20_000


def tiny_config(seed: int = 1) -> SystemConfig:
    return SystemConfig.tiny(seed=seed)


# ----------------------------------------------------------------------
# Module-level worker functions (picklable / spawn-able)
# ----------------------------------------------------------------------
def _locked_increment(path, counter, rounds) -> None:
    for _ in range(rounds):
        with FileLock(path, timeout_s=30.0):
            value = int(counter.read_text() or "0")
            time.sleep(0.0005)  # widen the race window
            counter.write_text(str(value + 1))


def _hammer_claims(journal_path, worker_id, shard, all_keys) -> None:
    journal = SharedJournal(journal_path)
    while True:
        claim = journal.claim_next(
            worker_id, shard, all_keys, lease_s=60.0
        )
        if claim is None:
            if not journal.unsettled(all_keys):
                return
            time.sleep(0.001)
            continue
        journal.append_result(
            claim.key[0],
            claim.key[1],
            {"attempt": claim.attempt, "worker": worker_id},
            worker=worker_id,
        )


# ----------------------------------------------------------------------
# FileLock
# ----------------------------------------------------------------------
class TestFileLock:
    def test_mutual_exclusion_across_processes(self, tmp_path):
        target = tmp_path / "protected"
        counter = tmp_path / "counter"
        counter.write_text("0")
        rounds, n_procs = 20, 3
        procs = [
            multiprocessing.Process(
                target=_locked_increment, args=(target, counter, rounds)
            )
            for _ in range(n_procs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
        assert int(counter.read_text()) == rounds * n_procs

    def test_timeout_raises(self, tmp_path):
        target = tmp_path / "t"
        held = FileLock(target, timeout_s=5.0).acquire()
        try:
            with pytest.raises(LockTimeoutError):
                FileLock(target, timeout_s=0.05).acquire()
        finally:
            held.release()

    def test_release_allows_reacquire(self, tmp_path):
        lock = FileLock(tmp_path / "t", timeout_s=1.0)
        with lock:
            pass
        with lock:
            pass  # no deadlock, no stale state

    def test_injected_clock_drives_timeout(self, tmp_path):
        # With a fake clock the deadline expires on the second reading —
        # no real waiting, which is the whole point of injecting it.
        target = tmp_path / "t"
        held = FileLock(target, timeout_s=5.0).acquire()
        ticks = iter([0.0, 100.0, 200.0])
        try:
            with pytest.raises(LockTimeoutError):
                FileLock(
                    target, timeout_s=5.0, clock=lambda: next(ticks)
                ).acquire()
        finally:
            held.release()


# ----------------------------------------------------------------------
# SharedJournal
# ----------------------------------------------------------------------
class TestSharedJournal:
    def keys(self, n=6):
        return [(f"w{i}", "rrm") for i in range(n)]

    def test_claim_prefers_own_shard_then_steals(self, tmp_path):
        journal = SharedJournal(tmp_path / "j.jsonl")
        journal.start({})
        keys = self.keys(4)
        shard0 = keys[0::2]
        claim = journal.claim_next(0, shard0, keys, lease_s=60.0)
        assert claim == Claim(keys[0], 1, False, claim.expires_unix_s)
        # Drain the shard; the next claim must be a steal, in sweep order.
        journal.append_result(*keys[0], {"ok": 1})
        journal.append_result(*keys[2], {"ok": 1})
        stolen = journal.claim_next(0, shard0, keys, lease_s=60.0)
        assert stolen.key == keys[1] and stolen.stolen

    def test_outstanding_lease_blocks_reclaim_until_expiry(self, tmp_path):
        journal = SharedJournal(tmp_path / "j.jsonl")
        journal.start({})
        keys = self.keys(1)
        now = [1000.0]
        clock = lambda: now[0]  # noqa: E731
        first = journal.claim_next(0, keys, keys, lease_s=10.0, clock=clock)
        assert first.attempt == 1
        assert journal.claim_next(1, keys, keys, lease_s=10.0, clock=clock) is None
        now[0] += 11.0  # lease expired: claimable again, next attempt
        second = journal.claim_next(1, keys, keys, lease_s=10.0, clock=clock)
        assert second.key == keys[0] and second.attempt == 2

    def test_release_returns_job_to_queue(self, tmp_path):
        journal = SharedJournal(tmp_path / "j.jsonl")
        journal.start({})
        keys = self.keys(1)
        claim = journal.claim_next(0, keys, keys, lease_s=60.0)
        journal.release(claim.key, 0, "retry")
        again = journal.claim_next(1, keys, keys, lease_s=60.0)
        assert again.key == keys[0] and again.attempt == 2

    def test_concurrent_claim_hammer_exactly_once(self, tmp_path):
        """N processes racing over one journal settle every job exactly
        once and leave no torn lines."""
        path = tmp_path / "j.jsonl"
        SharedJournal(path).start({"seed": 1})
        keys = self.keys(12)
        n_procs = 4
        procs = [
            multiprocessing.Process(
                target=_hammer_claims,
                args=(path, i, keys[i::n_procs], keys),
            )
            for i in range(n_procs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        # Every line parses (no torn writes) ...
        for line in path.read_text().splitlines():
            json.loads(line)
        # ... and the merge is exactly-once over the full key set.
        contents = ResultJournal.load(path)
        assert set(contents.results) == set(keys)
        assert not contents.failures
        # Claims never outnumber what a live fleet could issue: one per
        # settled job here, since leases were long and nothing crashed.
        assert all(len(c) == 1 for c in contents.claims.values())

    def test_torn_tail_is_repaired_on_next_append(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SharedJournal(path)
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
        """Fabric journals stay readable by the serial loader, leases
        and all — and resume_from drops the leases."""
        path = tmp_path / "j.jsonl"
        journal = SharedJournal(path)
        journal.start({"seed": 7})
        keys = self.keys(2)
        journal.claim_next(0, keys, keys, lease_s=60.0)
        journal.append_result(*keys[0], {"ok": 1}, worker=0)
        contents = ResultJournal.load(path)
        assert contents.meta["seed"] == 7
        assert keys[0] in contents.claims
        serial = ResultJournal(path)
        serial.resume_from(contents, {"seed": 7})
        resumed = ResultJournal.load(path)
        assert not resumed.claims and not resumed.releases
        assert keys[0] in resumed.results


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
# FabricExecutor
# ----------------------------------------------------------------------
#: to_json_dict fields that legitimately differ between hosts/runs.
HOST_DEPENDENT = {"wall_time_s"}


def _comparable(result) -> dict:
    return {
        k: v
        for k, v in result.to_json_dict().items()
        if k not in HOST_DEPENDENT
    }


class TestFabricExecutor:
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
        stats = fabric.fabric_stats
        assert stats.n_workers == 2
        assert stats.jobs_completed == 2
        assert stats.jobs_failed == 0
        assert stats.wall_s > 0
        assert 0.0 < stats.utilization <= 1.0
        # A healthy run drops no worker events, and the counter is part
        # of the stats surface so a sick event channel is visible.
        assert stats.events_dropped == 0

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
        assert runner.fabric_stats.respawns >= 1
        assert "job.retry" in events and "fabric.respawn" in events
        # The journal records the crashed first attempt as claim #1 and
        # the successful rerun as claim #2 — deterministic attempts.
        contents = ResultJournal.load(tmp_path / "j.jsonl")
        crashed_key = next(
            key for key, claims in contents.claims.items() if len(claims) > 1
        )
        assert len(contents.claims[crashed_key]) == 2

    def test_dead_worker_lease_recovered_despite_stale_attempt(self, tmp_path):
        """A worker that dies before its last events are drained leaves
        the coordinator's view on a job it already settled; the lease it
        holds on its next job must still be released for a retry."""
        from repro.fabric.executor import _WorkerSlot

        done, next_job = ("hmmer", "Static-7-SETs"), ("hmmer", "RRM")
        journal = SharedJournal(tmp_path / "j.jsonl")
        journal.start({"seed": 1})
        keys = [done, next_job]
        assert journal.claim_next(0, keys, keys, lease_s=300.0).key == done
        journal.append_failure(*done, {"kind": "corrupt"}, worker=0)
        assert journal.claim_next(0, keys, keys, lease_s=300.0).key == next_job
        slot = _WorkerSlot(worker_id=0, shard=keys, active=(done, 1, 0.0))
        executor = FabricExecutor(1, retry=RetryPolicy(max_retries=1))
        executor._settle_orphan(
            journal, slot, "crash", "JobCrashedError", "worker died"
        )
        assert journal.load().releases[next_job][0]["reason"] == "crash"
        assert executor.stats.releases == 1

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
        assert second.fabric_stats.jobs_completed == 1

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
        # No stray part files left behind.
        assert list(tmp_path.glob("*.part.jsonl")) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            FabricExecutor(0)
        with pytest.raises(ConfigError):
            FabricExecutor(2, lease_s=0)
        with pytest.raises(ConfigError):
            FabricExecutor(2, timeout_s=-1)


# ----------------------------------------------------------------------
# Ledger merge + throughput metrics
# ----------------------------------------------------------------------
class TestLedgerSatellites:
    def _entry(self, name, recorded, **metrics):
        return LedgerEntry(
            kind=KIND_SWEEP, name=name, metrics=metrics,
            recorded_unix_s=recorded,
        )

    def test_merge_ledgers_sorts_and_dedupes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ledger_a, ledger_b = RunLedger(a), RunLedger(b)
        ledger_a.append(self._entry("w2/rrm", 5.0, ipc=1.0))
        ledger_a.append(self._entry("w1/rrm", 6.0, ipc=2.0))
        # Duplicate cell from a lease-expiry race: first record wins.
        ledger_b.append(self._entry("w1/rrm", 7.0, ipc=2.0))
        out = tmp_path / "merged.jsonl"
        merged = merge_ledgers(
            [a, b, tmp_path / "missing.jsonl"], out
        )
        assert [e.name for e in merged] == ["w1/rrm", "w2/rrm"]
        assert len(RunLedger.load(out)) == 2

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


# ----------------------------------------------------------------------
# SweepProgress concurrency
# ----------------------------------------------------------------------
class _ReentrancySpyStream(io.StringIO):
    """A fake TTY that detects interleaved writes from two threads."""

    def __init__(self) -> None:
        super().__init__()
        self._inside = threading.Semaphore(1)
        self.torn = False

    def isatty(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if not self._inside.acquire(blocking=False):
            self.torn = True
        try:
            time.sleep(0.0002)  # widen the race window
            return super().write(text)
        finally:
            self._inside.release()


class TestSweepProgressConcurrency:
    def test_concurrent_emits_do_not_tear(self):
        stream = _ReentrancySpyStream()
        progress = SweepProgress(100, stream=stream)
        threads = [
            threading.Thread(
                target=lambda: [
                    progress.on_event("job.result", {}) for _ in range(25)
                ]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not stream.torn
        assert progress.completed == 100

    def test_line_writer_serializes_close(self):
        stream = _ReentrancySpyStream()
        writer = _LineWriter(stream)
        writer.emit("hello")
        writer.close()
        assert stream.getvalue().endswith("\n")
