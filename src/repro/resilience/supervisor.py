"""The sweep loop: one coordinator settles every job of every sweep.

:func:`run_jobs` takes each job to a result or to a structured
:class:`FailedRun`. It is the one place where attempts are counted,
retries are scheduled, deadlines are checked and outcomes are reported,
so the caller's ``on_result``/``on_failure`` callbacks (the sweep
runner's journal writer) run in this process only. Every attempt goes
through :func:`run_attempt`, in one of two places:

- **in-process**, one job after another, when ``workers`` is 0;
- **on worker processes** (:func:`_worker_main`) otherwise. Each worker
  has its own ``multiprocessing.Pipe``: ``(job, attempt, fault)`` goes
  out and the :class:`AttemptOutcome` comes back. The coordinator waits
  on the pipes and the process sentinels with one
  ``multiprocessing.connection.wait``. A dead worker wakes it at once
  through its sentinel. A hung one is caught by the coordinator's own
  clock against the attempt's dispatch time. Either becomes a retry or a
  ``crash``/``timeout`` failure, and the slot gets a fresh process the
  next time it takes a job.

Jobs are dispatched in order. A retried job goes back to the head of
the queue and waits out its backoff there, so attempt numbers, injected
faults and retry delays are the same under any worker count.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.errors import (
    CorruptResultError,
    JobCrashedError,
    JobTimeoutError,
)
from repro.resilience.faultinject import FaultPlan, corrupt_result, trigger_fault
from repro.resilience.policy import RetryPolicy

#: Grace period after SIGTERM (or after the stop message at the end of a
#: sweep) before a worker is SIGKILL'd.
_TERM_GRACE_S = 2.0


@dataclass(frozen=True)
class Job:
    """One supervised unit of work.

    ``fn`` is any callable, called as ``fn(*args)``; on worker processes
    both must pickle. ``key`` identifies the job in results, failures
    and journals — for sweeps it is ``(workload, scheme_name)``.
    """

    key: Tuple
    fn: Callable
    args: Tuple = ()


@dataclass
class FailedRun:
    """A job that exhausted its retries; the degraded stand-in for a result."""

    key: Tuple
    kind: str  # "timeout" | "crash" | "error" | "corrupt"
    message: str
    attempts: int
    elapsed_s: float = 0.0
    #: Path of the worker's flight-recorder dump, when one was written
    #: (worker processes with a recorder dir); the post-mortem pointer
    #: that makes a ``crash`` failure explainable.
    recorder_path: Optional[str] = None

    _ERROR_TYPES = {
        "timeout": JobTimeoutError,
        "crash": JobCrashedError,
        "corrupt": CorruptResultError,
    }

    def to_error(self) -> Exception:
        """The matching exception, for callers that want to raise."""
        return self._ERROR_TYPES.get(self.kind, JobCrashedError)(
            f"{self.key}: {self.message} (after {self.attempts} attempts)"
        )

    def as_dict(self) -> dict:
        d = {
            "key": list(self.key),
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
        }
        if self.recorder_path is not None:
            d["recorder_path"] = self.recorder_path
        return d


class AttemptOutcome(NamedTuple):
    """How one attempt ended: exactly one of a validated *value*, a
    scheduled retry (*retry_delay_s*), or a final *failed* record."""

    value: Any = None
    #: Exception type name of a failed attempt (retried or final).
    error: Optional[str] = None
    retry_delay_s: Optional[float] = None
    failed: Optional[FailedRun] = None


def run_attempt(
    job: Job,
    attempt: int,
    *,
    validate: Optional[Callable[[Tuple, object], Optional[str]]],
    retry: RetryPolicy,
    seed: int,
) -> AttemptOutcome:
    """Run attempt number *attempt* of *job*, in-process or in a worker.

    Calls the job and validates its value; a validation message raises
    :class:`CorruptResultError`. Any exception then goes to
    :func:`failed_attempt` as kind ``corrupt`` or ``error``.
    """
    try:
        value = job.fn(*job.args)
        problem = validate(job.key, value) if validate else None
        if problem is not None:
            raise CorruptResultError(problem)
        return AttemptOutcome(value=value)
    except Exception as exc:  # noqa: BLE001 - degrade, don't unwind
        error_type = type(exc).__name__
        return failed_attempt(
            job.key,
            attempt,
            error_type,
            "corrupt" if isinstance(exc, CorruptResultError) else "error",
            f"{error_type}: {exc}",
            retry=retry,
            seed=seed,
        )


def failed_attempt(
    key: Tuple,
    attempt: int,
    error_type: str,
    kind: str,
    message: str,
    *,
    retry: RetryPolicy,
    seed: int,
) -> AttemptOutcome:
    """A retry (:meth:`RetryPolicy.should_retry`, with the seeded
    :meth:`RetryPolicy.delay_s`) or a final :class:`FailedRun` of
    *kind*; its ``elapsed_s`` is stamped by the coordinator."""
    if retry.should_retry(attempt, error_type):
        return AttemptOutcome(
            error=error_type, retry_delay_s=retry.delay_s(key, attempt, seed)
        )
    return AttemptOutcome(
        error=error_type,
        failed=FailedRun(key=key, kind=kind, message=message, attempts=attempt),
    )


@dataclass
class SweepStats:
    """Counters of one :func:`run_jobs` call, published as ``fabric.*``
    telemetry (the gauge names predate the one loop)."""

    #: Concurrent attempt slots: the worker count, or 1 in-process.
    n_workers: int = 1
    jobs_total: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    retries: int = 0
    respawns: int = 0
    wall_s: float = 0.0
    #: Seconds the slots spent on attempts, summed over slots.
    busy_s: float = 0.0

    @property
    def queue_depth(self) -> int:
        """Jobs not yet settled."""
        return max(self.jobs_total - self.jobs_completed - self.jobs_failed, 0)

    @property
    def utilization(self) -> float:
        """Mean fraction of the slots' wall time spent on attempts."""
        if not self.wall_s:
            return 0.0
        return min(self.busy_s / (self.wall_s * self.n_workers), 1.0)

    def register_metrics(self, registry, prefix: str = "fabric") -> None:
        """Publish the counters into a telemetry registry."""
        registry.gauge(f"{prefix}.workers", lambda: self.n_workers)
        registry.gauge(f"{prefix}.jobs_completed", lambda: self.jobs_completed)
        registry.gauge(f"{prefix}.jobs_failed", lambda: self.jobs_failed)
        registry.gauge(f"{prefix}.queue_depth", lambda: self.queue_depth)
        registry.gauge(f"{prefix}.retries", lambda: self.retries)
        registry.gauge(f"{prefix}.respawns", lambda: self.respawns)
        registry.gauge(f"{prefix}.utilization", lambda: self.utilization)


class SweepOutcome(NamedTuple):
    """What :func:`run_jobs` settled, keyed by job key."""

    results: Dict[Tuple, Any]
    failures: Dict[Tuple, FailedRun]
    stats: SweepStats


@dataclass
class _Cell:
    """One job's coordinator-side state."""

    job: Job
    attempts: int = 0
    #: Coordinator clock at the first dispatch.
    started: float = 0.0
    #: Earliest coordinator clock for the next dispatch (retry backoff).
    not_before: float = 0.0


class _Coordinator:
    """Attempt counts, the dispatch queue and outcome reporting."""

    def __init__(self, jobs, n_workers, retry, seed, on_event, on_result,
                 on_failure, clock) -> None:
        self.queue = deque(_Cell(job) for job in jobs)
        self.retry = retry
        self.seed = seed
        self.on_event = on_event
        self.on_result = on_result
        self.on_failure = on_failure
        self.clock = clock
        self.results: Dict[Tuple, Any] = {}
        self.failures: Dict[Tuple, FailedRun] = {}
        self.stats = SweepStats(n_workers=max(n_workers, 1), jobs_total=len(jobs))

    def emit(self, name: str, worker: Optional[int], args: dict) -> None:
        if self.on_event is not None:
            if worker is not None:
                args["worker"] = worker
            self.on_event(name, args)

    def wait_s(self) -> float:
        """Seconds until the head of the queue may be dispatched."""
        return self.queue[0].not_before - self.clock()

    def dispatch(self, worker: Optional[int] = None) -> _Cell:
        """Take the head of the queue for its next attempt."""
        cell = self.queue.popleft()
        cell.attempts += 1
        if cell.attempts == 1:
            cell.started = self.clock()
        self.emit(
            "job.attempt", worker,
            {"key": list(cell.job.key), "attempt": cell.attempts},
        )
        return cell

    def settle(self, cell: _Cell, outcome: AttemptOutcome,
               worker: Optional[int] = None) -> None:
        """Report an attempt's outcome, or requeue the job for a retry."""
        key = cell.job.key
        if outcome.retry_delay_s is not None:
            self.stats.retries += 1
            self.emit(
                "job.retry", worker,
                {"key": list(key), "attempt": cell.attempts,
                 "delay_s": outcome.retry_delay_s, "error": outcome.error},
            )
            cell.not_before = self.clock() + outcome.retry_delay_s
            self.queue.appendleft(cell)
        elif outcome.failed is not None:
            failed = outcome.failed
            failed.elapsed_s = self.clock() - cell.started
            self.stats.jobs_failed += 1
            self.failures[key] = failed
            self.emit("job.failed", worker, failed.as_dict())
            if self.on_failure is not None:
                self.on_failure(failed)
        else:
            self.stats.jobs_completed += 1
            self.results[key] = outcome.value
            self.emit(
                "job.result", worker,
                {"key": list(key), "attempts": cell.attempts},
            )
            if self.on_result is not None:
                self.on_result(key, outcome.value, cell.attempts)

    def lost(self, cell: _Cell, worker: int, kind: str, message: str,
             recorder_path: Optional[str]) -> None:
        """Settle an attempt whose worker died (``crash``) or was killed
        (``timeout``) before it answered."""
        error_type = "JobTimeoutError" if kind == "timeout" else "JobCrashedError"
        outcome = failed_attempt(
            cell.job.key, cell.attempts, error_type, kind,
            f"{message} (after {cell.attempts} attempts)",
            retry=self.retry, seed=self.seed,
        )
        if outcome.failed is not None:
            outcome.failed.recorder_path = recorder_path
        self.settle(cell, outcome, worker)


def run_jobs(
    jobs: Sequence[Job],
    *,
    retry: Optional[RetryPolicy] = None,
    seed: int = 0,
    validate: Optional[Callable[[Tuple, object], Optional[str]]] = None,
    workers: int = 0,
    timeout_s: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    recorder_dir=None,
    on_event: Optional[Callable[[str, dict], None]] = None,
    on_result: Optional[Callable[[Tuple, Any, int], None]] = None,
    on_failure: Optional[Callable[[FailedRun], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> SweepOutcome:
    """Settle every job; returns the results, failures and counters.

    Args:
        retry: the :class:`RetryPolicy`; ``None`` uses defaults.
        seed: seeds the retry jitter schedule.
        validate: optional ``(key, value) -> Optional[str]``; a returned
            message marks the result corrupt.
        workers: worker processes; 0 runs every attempt in this process.
            Workers are spawned, so a script that asks for them must
            guard its entry point with ``if __name__ == "__main__":``.
        timeout_s: per-attempt wall-clock limit (worker processes only;
            the hung worker is killed).
        fault_plan: bound fault plan; its faults fire inside the workers.
        recorder_dir: directory for the workers' crash flight recorders;
            ``crash``/``timeout`` failures then link the dump.
        on_event: ``(name, args)`` observer of every lifecycle transition
            — ``job.attempt``, ``job.result``, ``job.retry``,
            ``job.failed`` and, on workers, ``fabric.respawn`` (whose
            args, like the others' there, carry ``worker``).
        on_result: ``(key, value, attempts)``, fired as each job settles.
        on_failure: ``(FailedRun)``, fired when a job exhausts retries.
        sleep: in-process backoff; injectable for tests.
        clock: monotonic clock for backoff, deadlines and elapsed time;
            injectable so expiry paths are testable without sleeping
            (RL011).
    """
    keys = [job.key for job in jobs]
    if len(set(keys)) != len(keys):
        raise ValueError("job keys must be unique")
    coordinator = _Coordinator(
        jobs, workers, retry or RetryPolicy(), seed, on_event, on_result,
        on_failure, clock,
    )
    started = clock()
    try:
        if workers:
            _run_on_workers(
                coordinator, workers, validate, timeout_s, fault_plan,
                recorder_dir,
            )
        else:
            _run_in_process(coordinator, validate, sleep)
    finally:
        coordinator.stats.wall_s = clock() - started
    return SweepOutcome(
        coordinator.results, coordinator.failures, coordinator.stats
    )


def _run_in_process(coordinator: _Coordinator, validate, sleep) -> None:
    clock = coordinator.clock
    while coordinator.queue:
        wait_s = coordinator.wait_s()
        if wait_s > 0:
            sleep(wait_s)
        cell = coordinator.dispatch()
        began = clock()
        outcome = run_attempt(
            cell.job, cell.attempts, validate=validate,
            retry=coordinator.retry, seed=coordinator.seed,
        )
        coordinator.stats.busy_s += clock() - began
        coordinator.settle(cell, outcome)


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def _worker_main(conn, worker_id: int, validate, retry, seed,
                 recorder_dir) -> None:
    """Worker process entry point: receive an attempt, run it, answer.

    A ``None`` message, or a closed pipe, ends the worker. Workers are
    spawned, so only the coordinator holds the other end of the pipe:
    its death, even by SIGKILL, ends every idle worker.
    """
    recorder = None
    if recorder_dir is not None:
        from repro.resilience.flightrecorder import FlightRecorder, recorder_path_for

        recorder = FlightRecorder(
            recorder_path_for(recorder_dir, worker_id, os.getpid()),
            context={"worker": worker_id, "pid": os.getpid()},
        ).install()
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        job, attempt, fault = task
        if recorder is not None:
            recorder.record(
                "job.attempt", {"key": list(job.key), "attempt": attempt}
            )
        if fault is not None:
            # A crash fault is os._exit: no excepthook, no atexit, no
            # SIGTERM handler. Dump the recorder *before* pulling the
            # trigger so the crash is explainable from its artifact.
            if recorder is not None:
                recorder.record(
                    "fault.trigger",
                    {"kind": fault, "key": list(job.key), "attempt": attempt},
                )
                if fault == "crash":
                    recorder.try_dump("injected-crash")
            job = Job(key=job.key, fn=_run_faulted, args=(fault, job.fn, *job.args))
        outcome = run_attempt(
            job, attempt, validate=validate, retry=retry, seed=seed
        )
        if outcome.failed is not None and recorder is not None:
            outcome.failed.recorder_path = str(recorder.path)
            recorder.record("job.failed", outcome.failed.as_dict())
            recorder.try_dump("job-failed")
        try:
            conn.send(outcome)
        except OSError:  # the coordinator is gone; so is the sweep
            return


def _run_faulted(fault: str, fn: Callable, *args):
    """A job with its injected fault: ``crash``/``hang``/``error`` fire
    before the job runs, ``corrupt`` mangles its value."""
    trigger_fault(fault)  # crash/hang never return
    value = fn(*args)
    return corrupt_result(value) if fault == "corrupt" else value


@dataclass
class _Slot:
    """One worker slot: its process, its pipe, and the attempt it runs."""

    worker_id: int
    process: Any = None
    conn: Any = None
    cell: Optional[_Cell] = None
    #: Coordinator clock when :attr:`cell` was sent.
    since: float = 0.0
    #: Why the slot's last process ended early, until it is respawned.
    lost: Optional[str] = None


def _run_on_workers(coordinator: _Coordinator, n_workers: int, validate,
                    timeout_s, fault_plan, recorder_dir) -> None:
    """Feed the queue to *n_workers* processes until every job settles."""
    import multiprocessing
    from multiprocessing.connection import wait

    # Spawned, not forked: a worker inherits no lock a coordinator
    # thread held, and no other worker's pipe.
    ctx = multiprocessing.get_context("spawn")
    clock = coordinator.clock
    slots = [_Slot(worker_id) for worker_id in range(n_workers)]

    def spawn(slot: _Slot) -> None:
        if slot.lost is not None:
            coordinator.stats.respawns += 1
            coordinator.emit(
                "fabric.respawn", slot.worker_id, {"reason": slot.lost}
            )
        slot.conn, child = ctx.Pipe()
        slot.process = ctx.Process(
            target=_worker_main,
            args=(child, slot.worker_id, validate, coordinator.retry,
                  coordinator.seed, recorder_dir),
            daemon=True,
        )
        slot.process.start()
        child.close()
        slot.lost = None

    def lose(slot: _Slot, kind: str, message: str) -> None:
        """Kill the slot's worker and settle the attempt it held."""
        _kill(slot.process)
        slot.conn.close()
        cell, slot.cell = slot.cell, None
        coordinator.stats.busy_s += clock() - slot.since
        coordinator.lost(
            cell, slot.worker_id, kind, message,
            _recorder_dump(recorder_dir, slot),
        )
        slot.process = slot.conn = None
        slot.lost = kind

    def died(slot: _Slot) -> None:
        # The pipe hit EOF or the sentinel fired: the process is gone or
        # going; reap it so its exit code is known.
        slot.process.join(_TERM_GRACE_S)
        lose(slot, "crash",
             f"worker died without a result (exit code "
             f"{slot.process.exitcode})")

    def collect(slot: _Slot) -> None:
        try:
            outcome = slot.conn.recv() if slot.conn.poll() else None
        except (EOFError, OSError):  # closed pipe, or an answer cut short
            outcome = None
        if outcome is None:
            died(slot)
            return
        cell, slot.cell = slot.cell, None
        coordinator.stats.busy_s += clock() - slot.since
        coordinator.settle(cell, outcome, slot.worker_id)

    try:
        while True:
            for slot in slots:
                if slot.cell is not None or not coordinator.queue:
                    continue
                if coordinator.wait_s() > 0:
                    break
                if slot.process is None:
                    spawn(slot)
                cell = coordinator.dispatch(slot.worker_id)
                fault = (
                    fault_plan.fault_for(cell.job.key, cell.attempts)
                    if fault_plan else None
                )
                slot.cell, slot.since = cell, clock()
                try:
                    slot.conn.send((cell.job, cell.attempts, fault))
                except OSError:  # the idle worker had died
                    died(slot)
            busy = [slot for slot in slots if slot.cell is not None]
            if not busy and not coordinator.queue:
                return
            wake_at = [slot.since + timeout_s for slot in busy] if timeout_s else []
            if coordinator.queue and len(busy) < n_workers:
                wake_at.append(coordinator.queue[0].not_before)
            ready = wait(
                [slot.conn for slot in busy]
                + [slot.process.sentinel for slot in busy],
                max(min(wake_at) - clock(), 0.0) if wake_at else None,
            )
            now = clock()
            for slot in busy:
                if slot.conn in ready or slot.process.sentinel in ready:
                    collect(slot)
                elif timeout_s is not None and now - slot.since >= timeout_s:
                    lose(slot, "timeout",
                         f"exceeded {timeout_s:.3g}s wall-clock timeout")
    finally:
        for slot in slots:
            if slot.process is not None and slot.process.is_alive():
                try:
                    slot.conn.send(None)
                except OSError:
                    pass
        for slot in slots:
            if slot.process is not None:
                slot.process.join(_TERM_GRACE_S)
                _kill(slot.process)
                slot.conn.close()


def _recorder_dump(recorder_dir, slot: _Slot) -> Optional[str]:
    """A lost worker's flight-recorder dump path, if one was written.

    The worker dumped *before* dying (before ``os._exit`` for injected
    crashes, in the SIGTERM handler for timeout kills), so once the
    process is reaped the file either exists or never will.
    """
    if recorder_dir is None or slot.process.pid is None:
        return None
    from repro.resilience.flightrecorder import recorder_path_for

    path = recorder_path_for(recorder_dir, slot.worker_id, slot.process.pid)
    return str(path) if path.exists() else None


def _kill(process) -> None:
    if not process.is_alive():
        process.join()
        return
    process.terminate()
    process.join(_TERM_GRACE_S)
    if process.is_alive():
        process.kill()
        process.join()


# ----------------------------------------------------------------------
def run_with_retry(
    fn: Callable,
    args: Tuple = (),
    *,
    key: Tuple = ("job",),
    retry: Optional[RetryPolicy] = None,
    seed: int = 0,
    sleep: Callable[[float], None] = time.sleep,
):
    """Run one in-process call under the retry policy; raise on final failure.

    The single-job convenience wrapper for callers (benchmarks, examples)
    that want bounded retries without a sweep.
    """
    outcome = run_jobs(
        [Job(key=key, fn=fn, args=args)], retry=retry, seed=seed, sleep=sleep
    )
    if key in outcome.failures:
        raise outcome.failures[key].to_error()
    return outcome.results[key]
