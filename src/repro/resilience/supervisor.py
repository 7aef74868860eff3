"""Supervised in-process job execution: retries, validation, failures.

:class:`JobSupervisor` runs jobs one after another in the calling
process. Each failed attempt gets a bounded, deterministically-jittered
retry (see :class:`~repro.resilience.policy.RetryPolicy`), each result
can be validated, and a job that exhausts its retries degrades to a
structured :class:`FailedRun` record instead of an exception that
unwinds the sweep.

Isolation lives elsewhere: a sweep that needs a wall-clock timeout, a
fault plan, or worker processes runs on the fabric
(:class:`~repro.fabric.executor.FabricExecutor`), whose workers run
each attempt through the same :func:`run_attempt` and produce the same
:class:`FailedRun` records (kinds ``timeout`` and ``crash`` included).
:meth:`repro.sim.runner.ExperimentRunner.run_all` picks one or the
other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import (
    CorruptResultError,
    JobCrashedError,
    JobTimeoutError,
)
from repro.resilience.policy import RetryPolicy


@dataclass(frozen=True)
class Job:
    """One supervised unit of work.

    ``fn`` is any callable, called in-process as ``fn(*args)``; ``key``
    identifies the job in results, failures and journals — for sweeps it
    is ``(workload, scheme_name)``.
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
    #: (fabric workers with a recorder dir); the post-mortem pointer
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

    @classmethod
    def from_dict(cls, d: dict) -> "FailedRun":
        return cls(
            key=tuple(d["key"]),
            kind=d["kind"],
            message=d["message"],
            attempts=d["attempts"],
            elapsed_s=d.get("elapsed_s", 0.0),
            recorder_path=d.get("recorder_path"),
        )


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
    started: float,
    clock: Callable[[], float],
) -> AttemptOutcome:
    """Run attempt number *attempt* of *job*, for every sweep executor.

    Calls the job and validates its value; a validation message raises
    :class:`CorruptResultError`. Any exception then either schedules a
    retry (:meth:`RetryPolicy.should_retry`, with the seeded
    :meth:`RetryPolicy.delay_s`) or becomes a :class:`FailedRun` of kind
    ``corrupt`` or ``error`` whose ``elapsed_s`` counts from *started*
    on *clock*. The caller sleeps, journals and reports.
    """
    try:
        value = job.fn(*job.args)
        problem = validate(job.key, value) if validate else None
        if problem is not None:
            raise CorruptResultError(problem)
        return AttemptOutcome(value=value)
    except Exception as exc:  # noqa: BLE001 - degrade, don't unwind
        error_type = type(exc).__name__
        if retry.should_retry(attempt, error_type):
            return AttemptOutcome(
                error=error_type,
                retry_delay_s=retry.delay_s(job.key, attempt, seed),
            )
        return AttemptOutcome(
            error=error_type,
            failed=FailedRun(
                key=job.key,
                kind=(
                    "corrupt" if isinstance(exc, CorruptResultError) else "error"
                ),
                message=f"{error_type}: {exc}",
                attempts=attempt,
                elapsed_s=clock() - started,
            ),
        )


class JobSupervisor:
    """Runs jobs in-process to completion-or-structured-failure.

    Args:
        retry: the :class:`RetryPolicy`; ``None`` uses defaults.
        seed: seeds the retry jitter schedule.
        validate: optional ``(key, value) -> Optional[str]``; a returned
            message marks the result corrupt.
        sleep: injection point for tests; must accept seconds.
        clock: monotonic clock used for elapsed-time accounting;
            injectable so retry paths are testable without sleeping
            (RL011).
        on_event: optional ``(name, args) -> None`` observability hook
            fired on every lifecycle transition — ``job.attempt``,
            ``job.result``, ``job.retry``, ``job.failed`` — with a dict
            of the transition's details. Exceptions in the hook
            propagate; keep it cheap and non-throwing (the sweep runner
            forwards these to a wall-clock tracer).
    """

    def __init__(
        self,
        *,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        validate: Optional[Callable[[Tuple, object], Optional[str]]] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        on_event: Optional[Callable[[str, dict], None]] = None,
    ) -> None:
        self.retry = retry or RetryPolicy()
        self.seed = seed
        self.validate = validate
        self._sleep = sleep
        self._clock = clock
        self.on_event = on_event
        self.retries_scheduled: List[Tuple[Tuple, int, float]] = []

    def _emit(self, name: str, **args) -> None:
        if self.on_event is not None:
            self.on_event(name, args)

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[Job],
        on_result: Optional[Callable[[Tuple, object], None]] = None,
        on_failure: Optional[Callable[[FailedRun], None]] = None,
    ) -> Tuple[Dict[Tuple, object], Dict[Tuple, FailedRun]]:
        """Run every job; returns ``(results, failures)`` keyed by job key.

        Callbacks fire in completion order, as each job settles — so even
        if the sweep is interrupted later, everything reported so far has
        already been delivered (and journaled, if the caller journals).
        """
        keys = [job.key for job in jobs]
        if len(set(keys)) != len(keys):
            raise ValueError("job keys must be unique")
        self.retries_scheduled = []
        results: Dict[Tuple, object] = {}
        failures: Dict[Tuple, FailedRun] = {}
        for job in jobs:
            started = self._clock()
            attempt = 0
            while True:
                attempt += 1
                self._emit("job.attempt", key=list(job.key), attempt=attempt)
                outcome = run_attempt(
                    job, attempt, validate=self.validate, retry=self.retry,
                    seed=self.seed, started=started, clock=self._clock,
                )
                if outcome.retry_delay_s is not None:
                    delay = outcome.retry_delay_s
                    self.retries_scheduled.append((job.key, attempt, delay))
                    self._emit(
                        "job.retry",
                        key=list(job.key),
                        attempt=attempt,
                        delay_s=delay,
                        error=outcome.error,
                    )
                    self._sleep(delay)
                    continue
                if outcome.failed is not None:
                    failures[job.key] = outcome.failed
                    self._emit("job.failed", **outcome.failed.as_dict())
                    if on_failure:
                        on_failure(outcome.failed)
                    break
                results[job.key] = outcome.value
                self._emit("job.result", key=list(job.key), attempts=attempt)
                if on_result:
                    on_result(job.key, outcome.value)
                break
        return results, failures


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
    that want bounded retries without the full supervisor loop.
    """
    supervisor = JobSupervisor(retry=retry, seed=seed, sleep=sleep)
    results, failures = supervisor.run([Job(key=key, fn=fn, args=args)])
    if key in failures:
        raise failures[key].to_error()
    return results[key]
