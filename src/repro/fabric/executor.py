"""The multiprocess work-stealing executor.

:class:`FabricExecutor` shards a sweep's (workload, scheme) jobs across
N worker processes over one shared checkpoint journal
(:class:`~repro.resilience.journal.ResultJournal`). Each worker owns a
round-robin shard of the matrix and drains it first; when its shard is
empty it *steals* unclaimed jobs from the rest of the sweep, so an
unlucky shard full of slow cells never idles the fleet.

Everything hard rides on the journal:

- **exactly-once** — a job is done when its result/failure record is
  durable; duplicated execution in a lease race merges harmlessly
  because results are deterministic per seed;
- **crash recovery** — the coordinator watches worker processes, turns a
  dead worker's outstanding lease into a retry (or a structured
  ``crash`` failure once retries are exhausted) and respawns the slot;
- **timeouts** — a worker that sits on one claim past ``timeout_s`` is
  killed and its lease settled the same way;
- **resume** — an interrupted fabric sweep resumes through the ordinary
  :meth:`ExperimentRunner.resume` path, because the journal *is* the
  queue.

Results are bit-identical to serial execution for the same seeds: the
fabric only changes *where* each deterministic simulation runs.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.resilience.faultinject import FaultPlan, corrupt_result, trigger_fault
from repro.resilience.journal import Key, ResultJournal
from repro.resilience.policy import RetryPolicy
from repro.resilience.supervisor import FailedRun, Job, run_attempt
from repro.sim.metrics import SimResult
from repro.sim.runner import _run_job, _validate_sim_result
from repro.sim.schemes import Scheme

if TYPE_CHECKING:
    from repro.obs.live.heartbeat import FleetStatus

#: Coordinator poll period: drain events, check liveness, check the
#: journal for completion.
_POLL_S = 0.05

#: How long an idle worker sleeps before re-polling the queue (another
#: worker holds the remaining leases; they may yet be released).
_WORKER_IDLE_S = 0.05

#: Grace period after SIGTERM before a worker is SIGKILL'd.
_TERM_GRACE_S = 2.0

#: Minimum idle-loop interval between worker heartbeats. Claims and
#: settles always beat immediately; the throttle only bounds the idle
#: chatter on the event queue.
_HEARTBEAT_S = 1.0


@dataclass
class FabricStats:
    """Fleet-level counters, published as ``fabric.*`` telemetry."""

    n_workers: int = 0
    jobs_total: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_stolen: int = 0
    retries: int = 0
    releases: int = 0
    respawns: int = 0
    #: Advisory lifecycle events workers dropped because the event
    #: queue was unusable (dead coordinator); journal records are
    #: unaffected.
    events_dropped: int = 0
    wall_s: float = 0.0
    #: Per-worker wall seconds spent inside simulations.
    worker_busy_s: Dict[int, float] = field(default_factory=dict)

    @property
    def queue_depth(self) -> int:
        """Jobs not yet settled."""
        return max(self.jobs_total - self.jobs_completed - self.jobs_failed, 0)

    @property
    def utilization(self) -> float:
        """Mean fraction of fleet wall time spent simulating."""
        if not self.wall_s or not self.n_workers:
            return 0.0
        busy = sum(self.worker_busy_s.values())
        return min(busy / (self.wall_s * self.n_workers), 1.0)

    def register_metrics(self, registry, prefix: str = "fabric") -> None:
        """Publish the fleet counters into a telemetry registry."""
        registry.gauge(f"{prefix}.workers", lambda: self.n_workers)
        registry.gauge(f"{prefix}.jobs_completed", lambda: self.jobs_completed)
        registry.gauge(f"{prefix}.jobs_failed", lambda: self.jobs_failed)
        registry.gauge(f"{prefix}.jobs_stolen", lambda: self.jobs_stolen)
        registry.gauge(f"{prefix}.queue_depth", lambda: self.queue_depth)
        registry.gauge(f"{prefix}.retries", lambda: self.retries)
        registry.gauge(f"{prefix}.respawns", lambda: self.respawns)
        registry.gauge(f"{prefix}.events_dropped", lambda: self.events_dropped)
        registry.gauge(f"{prefix}.utilization", lambda: self.utilization)


@dataclass
class FabricOutcome:
    """What one fabric sweep produced (journal-reconciled, exactly-once)."""

    results: Dict[Key, SimResult] = field(default_factory=dict)
    failures: Dict[Key, FailedRun] = field(default_factory=dict)
    stats: FabricStats = field(default_factory=FabricStats)
    #: The workers' last heartbeats.
    fleet: Optional[FleetStatus] = None
    journal_path: Optional[Path] = None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _fabric_worker_main(
    worker_id: int,
    journal_path,
    config,
    shard: List[Key],
    all_keys: List[Key],
    max_events: Optional[int],
    lease_s: float,
    retry: RetryPolicy,
    seed: int,
    fault_plan: Optional[FaultPlan],
    ledger_part,
    recorder_dir,
    events,
) -> None:
    """Worker process entry point: claim, simulate, settle, repeat.

    Lives at module level so every multiprocessing start method can
    pickle it. All communication is one-way: durable records go to the
    shared journal, advisory lifecycle events go to the *events* queue.
    """
    from repro.obs.live.heartbeat import HEARTBEAT_EVENT, make_heartbeat
    from repro.obs.live.slog import StructuredLogger

    journal = ResultJournal(journal_path)
    ledger = None
    if ledger_part is not None:
        from repro.obs.ledger import KIND_SWEEP, LedgerEntry, RunLedger

        ledger = RunLedger(ledger_part)

    recorder = None
    if recorder_dir is not None:
        from repro.obs.live.flightrecorder import (
            FlightRecorder,
            recorder_path_for,
        )

        recorder = FlightRecorder(
            recorder_path_for(recorder_dir, worker_id, os.getpid()),
            context={"worker": worker_id, "pid": os.getpid()},
        ).install()
    log = StructuredLogger(
        sys.stderr,
        fields={"worker": worker_id},
        mirror=recorder.mirror if recorder is not None else None,
    )

    events_dropped = 0

    def emit(name: str, args: dict) -> None:
        # A dead coordinator must not crash the worker, but dropped
        # events leave evidence: a counter (reported with worker.done)
        # and one structured log line per outage. Every event also
        # lands in the flight recorder's ring so a post-mortem sees
        # what the worker was doing right before it died.
        nonlocal events_dropped
        if recorder is not None:
            recorder.record(name, dict(args))
        try:
            events.put((worker_id, name, args))
        except Exception as exc:  # noqa: BLE001 - any queue failure
            events_dropped += 1
            if events_dropped == 1:
                log.error(
                    "fabric.event_channel.down",
                    error=f"{type(exc).__name__}: {exc}",
                    detail="dropping lifecycle events; journal records "
                    "remain authoritative",
                )

    busy_s = 0.0
    jobs_done = 0
    stolen = 0
    sim_events_total = 0
    beat_stamp = -_HEARTBEAT_S

    def beat(job: Optional[str], attempt: int) -> None:
        nonlocal beat_stamp
        beat_stamp = time.monotonic()
        emit(
            HEARTBEAT_EVENT,
            make_heartbeat(
                worker=worker_id, job=job, attempt=attempt,
                jobs_done=jobs_done, busy_s=busy_s,
                sim_events=sim_events_total,
            ),
        )

    try:
        beat(None, 0)
        while True:
            claim = journal.claim_next(
                worker_id, shard, all_keys, lease_s=lease_s
            )
            if claim is None:
                if not journal.unsettled(all_keys):
                    break
                idle_stamp = time.monotonic()
                if idle_stamp - beat_stamp >= _HEARTBEAT_S:
                    beat(None, 0)
                time.sleep(_WORKER_IDLE_S)
                continue
            workload, scheme_value = claim.key
            if claim.stolen:
                stolen += 1
                emit(
                    "fabric.steal",
                    {"key": list(claim.key), "worker": worker_id},
                )
            emit(
                "job.attempt",
                {"key": list(claim.key), "attempt": claim.attempt,
                 "worker": worker_id},
            )
            beat(f"{workload}/{scheme_value}", claim.attempt)
            cell = (config, workload, scheme_value, max_events)
            fault = (
                fault_plan.fault_for(claim.key, claim.attempt)
                if fault_plan
                else None
            )
            if fault is None:
                job = Job(key=claim.key, fn=_run_job, args=cell)
            else:
                job = Job(key=claim.key, fn=_run_faulted_job,
                          args=(fault, *cell))
                # A crash fault is os._exit: no excepthook, no atexit,
                # no SIGTERM handler. Dump the recorder *before* pulling
                # the trigger so the crash is explainable from its
                # artifact.
                if recorder is not None:
                    recorder.record(
                        "fault.trigger",
                        {"kind": fault, "key": list(claim.key),
                         "attempt": claim.attempt},
                    )
                    if fault == "crash":
                        recorder.try_dump("injected-crash")
                if fault == "crash":
                    # Flush the buffered lifecycle events too: exiting
                    # mid-flush would lose them, or leave the shared
                    # queue's writer lock held and silence the fleet.
                    events.close()
                    events.join_thread()
            started = time.monotonic()
            outcome = run_attempt(
                job, claim.attempt, validate=_validate_sim_result,
                retry=retry, seed=seed, started=started, clock=time.monotonic,
            )
            busy_s += time.monotonic() - started
            if outcome.retry_delay_s is not None:
                journal.release(
                    claim.key, worker_id, f"retry:{outcome.error}"
                )
                emit(
                    "job.retry",
                    {"key": list(claim.key), "attempt": claim.attempt,
                     "delay_s": outcome.retry_delay_s,
                     "error": outcome.error, "worker": worker_id},
                )
                beat(None, 0)
                time.sleep(outcome.retry_delay_s)
                continue
            failed = outcome.failed
            if failed is not None:
                if recorder is not None:
                    failed.recorder_path = str(recorder.path)
                    recorder.record("job.failed", failed.as_dict())
                    recorder.try_dump("job-failed")
                journal.append_failure(
                    workload, scheme_value, failed.as_dict(), worker=worker_id
                )
                emit("job.failed", failed.as_dict())
                beat(None, 0)
                continue
            result = outcome.value
            jobs_done += 1
            sim_events_total += result.sim_events
            result_dict = result.to_json_dict()
            journal.append_result(
                workload, scheme_value, result_dict, worker=worker_id
            )
            if ledger is not None:
                ledger.append(
                    LedgerEntry.from_result(result, config, kind=KIND_SWEEP)
                )
            emit(
                "job.result",
                {"key": list(claim.key), "attempts": claim.attempt,
                 "worker": worker_id, "result": result_dict},
            )
            beat(None, 0)
    finally:
        beat(None, 0)
        emit(
            "fabric.worker.done",
            {"worker": worker_id, "busy_s": busy_s, "jobs": jobs_done,
             "stolen": stolen, "events_dropped": events_dropped},
        )


def _run_faulted_job(fault, config, workload, scheme_value, max_events):
    """A sweep cell with its injected fault: ``crash``/``hang``/``error``
    fire before the simulation, ``corrupt`` mangles its result."""
    trigger_fault(fault)  # crash/hang never return
    result = _run_job(config, workload, scheme_value, max_events)
    return corrupt_result(result) if fault == "corrupt" else result


@dataclass
class _WorkerSlot:
    """One fleet slot: a shard, its current process, and its active claim."""

    worker_id: int
    shard: List[Key]
    process: Optional[multiprocessing.process.BaseProcess] = None
    #: (key, attempt, monotonic start) of the job the worker last
    #: attempted and has not yet settled; drives the timeout watchdog.
    active: Optional[Tuple[Key, int, float]] = None
    done: bool = False


class FabricExecutor:
    """Runs one sweep across a fleet of worker processes.

    Args:
        n_jobs: worker process count.
        journal_path: the shared queue/checkpoint journal. ``None``
            uses a throwaway journal in a temp directory (parallelism
            without persistence).
        lease_s: claim lease duration; a crashed worker's job becomes
            stealable after this long even if the coordinator also died.
        timeout_s: per-attempt wall-clock limit, enforced by killing the
            worker (its whole process: one claim at a time per worker).
        retry: retry policy for failed/crashed/timed-out attempts.
        fault_plan: optional fault injection (bound to the job keys).
        seed: seeds the retry jitter schedule.
        ledger_path: when set, each worker appends its cells to a
            ``<ledger>.w<N>.part.jsonl`` shard and the coordinator
            merges the shards deterministically on completion
            (:func:`repro.obs.ledger.merge_ledgers`).
        on_event: observability hook ``(name, args)`` receiving the
            supervisor-compatible job lifecycle stream (``job.attempt``
            / ``job.result`` / ``job.retry`` / ``job.failed``) plus
            fabric events (``fabric.steal``, ``fabric.respawn``,
            ``fabric.release``, ``fabric.worker.done``). ``job.result``
            args exclude the result payload; payloads are delivered
            through ``on_result``.
        on_result: ``(key, SimResult)`` fired in completion order.
        on_failure: ``(FailedRun)`` fired when a job exhausts retries.
        clock: monotonic clock used for coordinator timeout/grace
            decisions and heartbeat staleness; injectable so expiry
            paths are testable without sleeping (RL011).
        recorder_dir: when set, each worker keeps a crash flight
            recorder whose dump lands here
            (:func:`repro.obs.live.flightrecorder.recorder_path_for`);
            crash/timeout failure records link the dump via
            ``recorder_path``.
    """

    def __init__(
        self,
        n_jobs: int,
        *,
        journal_path=None,
        lease_s: float = 300.0,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        seed: int = 0,
        ledger_path=None,
        on_event: Optional[Callable[[str, dict], None]] = None,
        on_result: Optional[Callable[[Key, SimResult], None]] = None,
        on_failure: Optional[Callable[[FailedRun], None]] = None,
        clock: Callable[[], float] = time.monotonic,
        recorder_dir=None,
    ) -> None:
        if n_jobs < 1:
            raise ConfigError(f"n_jobs must be >= 1, got {n_jobs}")
        if lease_s <= 0:
            raise ConfigError(f"lease_s must be positive, got {lease_s}")
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigError(f"timeout_s must be positive, got {timeout_s}")
        from repro.obs.live.heartbeat import HEARTBEAT_EVENT, FleetStatus

        self._heartbeat_event = HEARTBEAT_EVENT
        self.n_jobs = n_jobs
        self.journal_path = journal_path
        self.lease_s = lease_s
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self.fault_plan = fault_plan
        self.seed = seed
        self.ledger_path = ledger_path
        self.on_event = on_event
        self.on_result = on_result
        self.on_failure = on_failure
        self._clock = clock
        self.recorder_dir = recorder_dir
        #: The current (or last) sweep's counters and worker heartbeats;
        #: :meth:`run` starts fresh ones and returns them on its outcome.
        self.stats = FabricStats(n_workers=n_jobs)
        self.fleet = FleetStatus(clock=clock)

    def _emit(self, name: str, args: dict) -> None:
        if self.on_event is not None:
            self.on_event(name, args)

    # ------------------------------------------------------------------
    def run(
        self,
        config,
        workloads: Sequence[str],
        schemes: Sequence[Scheme],
        *,
        max_events: Optional[int] = None,
        meta: Optional[dict] = None,
        fresh: bool = True,
    ) -> FabricOutcome:
        """Execute the sweep matrix and return the merged outcome.

        With ``fresh=True`` the journal is (re)started with *meta*; with
        ``fresh=False`` the existing journal is taken as-is — results
        already in it are treated as done (the resume path).
        """
        keys: List[Key] = [
            (w, s.value) for w in workloads for s in schemes
        ]
        if len(set(keys)) != len(keys):
            raise ConfigError("sweep job keys must be unique")
        if self.fault_plan:
            self.fault_plan.bind(keys)

        tmp_dir = None
        journal_path = self.journal_path
        if journal_path is None:
            tmp_dir = tempfile.TemporaryDirectory(prefix="repro-fabric-")
            journal_path = Path(tmp_dir.name) / "journal.jsonl"
            fresh = True
        journal = ResultJournal(journal_path)
        if fresh or not Path(journal_path).exists():
            journal.start(meta or {})

        from repro.obs.live.heartbeat import FleetStatus

        self.stats = FabricStats(n_workers=self.n_jobs, jobs_total=len(keys))
        self.fleet = FleetStatus(clock=self._clock)
        if self.recorder_dir is not None:
            Path(self.recorder_dir).mkdir(parents=True, exist_ok=True)
        started = time.monotonic()
        try:
            delivered = self._supervise(journal, config, keys, max_events)
            outcome = self._reconcile(journal, keys, delivered)
        finally:
            self.stats.wall_s = time.monotonic() - started
            if tmp_dir is not None:
                outcome_journal = None
                tmp_dir.cleanup()
            else:
                outcome_journal = Path(journal_path)
        outcome.stats = self.stats
        outcome.fleet = self.fleet
        outcome.journal_path = outcome_journal
        if self.ledger_path is not None:
            from repro.obs.ledger import merge_ledgers

            parts = [
                self._ledger_part(slot_id) for slot_id in range(self.n_jobs)
            ]
            merge_ledgers(parts, self.ledger_path)
            for part in parts:
                Path(part).unlink(missing_ok=True)
        return outcome

    def _ledger_part(self, worker_id: int):
        base = Path(self.ledger_path)
        return base.with_name(f"{base.name}.w{worker_id}.part.jsonl")

    # ------------------------------------------------------------------
    def _spawn(self, ctx, slot: _WorkerSlot, journal_path, config, keys,
               max_events, events) -> None:
        ledger_part = (
            self._ledger_part(slot.worker_id)
            if self.ledger_path is not None
            else None
        )
        slot.process = ctx.Process(
            target=_fabric_worker_main,
            args=(
                slot.worker_id,
                journal_path,
                config,
                slot.shard,
                keys,
                max_events,
                self.lease_s,
                self.retry,
                self.seed,
                self.fault_plan,
                ledger_part,
                self.recorder_dir,
                events,
            ),
            daemon=True,
        )
        slot.active = None
        slot.done = False
        slot.process.start()

    def _supervise(self, journal, config, keys, max_events) -> Dict[Key, SimResult]:
        """The coordinator loop: spawn, watch, heal, finish."""
        ctx = multiprocessing.get_context()
        events = ctx.Queue()
        slots = [
            _WorkerSlot(worker_id=i, shard=keys[i :: self.n_jobs])
            for i in range(self.n_jobs)
        ]
        delivered: Dict[Key, SimResult] = {}
        for slot in slots:
            self._spawn(ctx, slot, journal.path, config, keys, max_events,
                        events)
        try:
            while True:
                drained = self._drain_events(events, slots, delivered)
                healed = self._heal(ctx, journal, config, slots, keys,
                                    max_events, events)
                if not journal.unsettled(keys):
                    break
                if not drained and not healed:
                    time.sleep(_POLL_S)
            # Give workers a moment to notice completion and exit, then
            # drain their final lifecycle events.
            deadline = self._clock() + _TERM_GRACE_S
            while self._clock() < deadline and any(
                slot.process is not None and slot.process.is_alive()
                for slot in slots
            ):
                self._drain_events(events, slots, delivered)
                time.sleep(_POLL_S)
            self._drain_events(events, slots, delivered)
        finally:
            for slot in slots:
                _kill(slot.process)
        return delivered

    def _drain_events(self, events, slots, delivered) -> bool:
        """Pump the worker event queue; returns True if anything arrived."""
        drained = False
        while True:
            try:
                worker_id, name, args = events.get_nowait()
            except queue_module.Empty:
                return drained
            drained = True
            slot = self._slot(slots, worker_id)
            if name == "job.attempt":
                if slot is not None:
                    slot.active = (
                        tuple(args["key"]), args["attempt"], self._clock()
                    )
                self._emit(name, args)
            elif name == "job.result":
                key = tuple(args["key"])
                if slot is not None:
                    slot.active = None
                self.stats.jobs_completed += 1
                result = SimResult.from_json_dict(args["result"])
                delivered[key] = result
                self._emit(
                    name,
                    {k: v for k, v in args.items() if k != "result"},
                )
                if self.on_result is not None:
                    self.on_result(key, result)
            elif name == "job.failed":
                key = tuple(args["key"])
                if slot is not None:
                    slot.active = None
                self.stats.jobs_failed += 1
                self._emit(name, args)
                if self.on_failure is not None:
                    self.on_failure(FailedRun.from_dict(args))
            elif name == "job.retry":
                if slot is not None:
                    slot.active = None
                self.stats.retries += 1
                self._emit(name, args)
            elif name == "fabric.steal":
                self.stats.jobs_stolen += 1
                self._emit(name, args)
            elif name == "fabric.worker.done":
                if slot is not None:
                    slot.done = True
                self.stats.worker_busy_s[worker_id] = (
                    self.stats.worker_busy_s.get(worker_id, 0.0)
                    + args.get("busy_s", 0.0)
                )
                self.stats.events_dropped += args.get("events_dropped", 0)
                self.fleet.mark_done(worker_id)
                self._emit(name, args)
            elif name == self._heartbeat_event:
                self.fleet.observe(args)
                self._emit(name, args)
            else:
                self._emit(name, args)

    @staticmethod
    def _slot(slots, worker_id) -> Optional[_WorkerSlot]:
        return slots[worker_id] if 0 <= worker_id < len(slots) else None

    # ------------------------------------------------------------------
    def _heal(self, ctx, journal, config, slots, keys, max_events,
              events) -> bool:
        """Detect dead/overdue workers, settle their leases, respawn."""
        healed = False
        now = self._clock()
        for slot in slots:
            process = slot.process
            if process is None:
                continue
            overdue = (
                self.timeout_s is not None
                and slot.active is not None
                and now - slot.active[2] >= self.timeout_s
            )
            if process.is_alive() and not overdue:
                continue
            if process.is_alive():  # overdue: kill the hung worker
                _kill(process)
                kind, error_type = "timeout", "JobTimeoutError"
                message = (
                    f"exceeded {self.timeout_s:.3g}s wall-clock timeout"
                )
            else:
                process.join()
                if slot.done or not journal.unsettled(keys):
                    # Clean exit at end of queue; nothing to heal.
                    slot.process = None
                    continue
                kind, error_type = "crash", "JobCrashedError"
                message = (
                    "worker died without a result "
                    f"(exit code {process.exitcode})"
                )
            healed = True
            self._settle_orphan(
                journal, slot, kind, error_type, message
            )
            if journal.unsettled(keys):
                self.stats.respawns += 1
                self._emit(
                    "fabric.respawn",
                    {"worker": slot.worker_id, "reason": kind},
                )
                self._spawn(ctx, slot, journal.path, config, keys,
                            max_events, events)
        return healed

    def _settle_orphan(self, journal, slot, kind, error_type, message):
        """Turn a dead worker's outstanding lease into a retry or failure."""
        contents = journal.read()
        settled = contents.settled()
        orphans: List[Tuple[Key, int]] = []
        if slot.active is not None and slot.active[0] not in settled:
            key, attempt, _ = slot.active
            orphans.append((key, attempt))
        else:
            # No event for the current attempt reached us (the worker may
            # have died right after claiming, or before its last events
            # were drained, leaving *active* on a settled job); recover
            # the lease from the journal.
            for key, claims in contents.claims.items():
                if key in settled:
                    continue
                releases = contents.releases.get(key, ())
                if len(claims) > len(releases) and (
                    claims[-1].get("worker") == slot.worker_id
                ):
                    orphans.append((key, claims[-1].get("attempt", 1)))
        slot.active = None
        for key, attempt in orphans:
            if self.retry.should_retry(attempt, error_type):
                self.stats.releases += 1
                journal.release(key, slot.worker_id, kind)
                self._emit(
                    "fabric.release",
                    {"key": list(key), "worker": slot.worker_id,
                     "reason": kind, "attempt": attempt},
                )
                self._emit(
                    "job.retry",
                    {"key": list(key), "attempt": attempt, "delay_s": 0.0,
                     "error": error_type, "worker": slot.worker_id},
                )
                self.stats.retries += 1
            else:
                failed = FailedRun(
                    key=key, kind=kind,
                    message=f"{message} (after {attempt} attempts)",
                    attempts=attempt,
                    recorder_path=self._slot_recorder_path(slot),
                )
                journal.append_failure(
                    key[0], key[1], failed.as_dict(), worker=slot.worker_id
                )
                self.stats.jobs_failed += 1
                self._emit("job.failed", failed.as_dict())
                if self.on_failure is not None:
                    self.on_failure(failed)

    def _slot_recorder_path(self, slot) -> Optional[str]:
        """A dead worker's flight-recorder dump path, if one was written.

        The worker dumped *before* dying (pre-``os._exit`` for injected
        crashes, in the SIGTERM handler for timeout kills), so by
        settle time the file either exists or never will.
        """
        process = slot.process
        if self.recorder_dir is None or process is None or process.pid is None:
            return None
        from repro.obs.live.flightrecorder import recorder_path_for

        path = recorder_path_for(
            self.recorder_dir, slot.worker_id, process.pid
        )
        return str(path) if path.exists() else None

    # ------------------------------------------------------------------
    def _reconcile(self, journal, keys, delivered) -> FabricOutcome:
        """The journal is the truth; events were just the live stream."""
        contents = journal.read()
        outcome = FabricOutcome()
        for key in keys:
            if key in contents.results:
                outcome.results[key] = (
                    delivered.get(key)
                    or SimResult.from_json_dict(contents.results[key])
                )
            elif key in contents.failures:
                outcome.failures[key] = FailedRun.from_dict(
                    contents.failures[key]
                )
        return outcome


def _kill(process) -> None:
    if process is None:
        return
    if not process.is_alive():
        process.join()
        return
    process.terminate()
    process.join(_TERM_GRACE_S)
    if process.is_alive():
        process.kill()
        process.join()
