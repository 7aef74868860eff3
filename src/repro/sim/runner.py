"""Experiment orchestration: sweeps over workloads and schemes.

Runs are independent. A plain sweep runs them one by one in-process
under the :mod:`repro.resilience` supervisor (bounded deterministic
retries, result validation); a sweep that needs isolation — worker
processes, a wall-clock timeout or injected faults — runs on the fabric
(:class:`~repro.fabric.executor.FabricExecutor`), with one worker when
``n_jobs`` is 1. Either way one bad job degrades to a structured
:class:`FailedRun` instead of aborting the sweep. With a
``journal_path`` every settled job is checkpointed to an append-only
JSONL journal, and :meth:`resume` restarts an interrupted sweep from its
surviving results. Aggregation helpers follow the paper's reporting
conventions and tolerate sweeps with failed cells.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import CheckpointCorruptError, ConfigError
from repro.resilience import (
    FailedRun,
    FaultPlan,
    Job,
    JobSupervisor,
    ResultJournal,
    RetryPolicy,
)
from repro.resilience.journal import sweep_fingerprint
from repro.sim.config import SystemConfig
from repro.sim.metrics import SimResult
from repro.sim.schemes import Scheme, all_schemes
from repro.sim.system import System
from repro.telemetry import TelemetryConfig
from repro.utils.persist import atomic_write_text
from repro.telemetry.trace import NULL_TRACER
from repro.utils.mathx import geomean
from repro.workloads.mixes import all_workload_names

ResultKey = Tuple[str, Scheme]


def run_workload(
    config: SystemConfig,
    workload: str,
    scheme: Scheme,
    *,
    track_wear_per_block: bool = False,
    max_events: Optional[int] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> SimResult:
    """Build and run one system; the basic unit of every experiment."""
    system = System(
        config,
        workload,
        scheme,
        track_wear_per_block=track_wear_per_block,
        telemetry=telemetry,
    )
    return system.run(max_events=max_events)


def _run_job(config, workload, scheme_value, max_events) -> SimResult:
    """Supervised-job entry point for the in-process sweep."""
    return run_workload(
        config, workload, Scheme(scheme_value), max_events=max_events
    )


def _validate_sim_result(key, value) -> Optional[str]:
    """Result validation for both executors; non-None marks corruption."""
    workload, scheme_value = key
    if not isinstance(value, SimResult):
        return f"expected a SimResult, got {type(value).__name__}"
    if value.workload != workload or value.scheme.value != scheme_value:
        return (
            f"result is for ({value.workload}, {value.scheme.value}), "
            f"not ({workload}, {scheme_value})"
        )
    if not math.isfinite(value.ipc) or value.ipc < 0:
        return f"non-finite or negative IPC: {value.ipc}"
    return None


class ExperimentRunner:
    """Sweeps workloads x schemes and aggregates results.

    Where a sweep runs is decided by one predicate
    (:meth:`_runs_in_process`): in-process when ``n_jobs == 1`` and
    there is no *timeout_s* and no *fault_plan*;
    otherwise on ``FabricExecutor(n_jobs)``, one worker included.
    Results are bit-identical either way for the same seeds.

    Args:
        n_jobs: fabric worker processes; the N workers share the journal
            as a work-stealing queue.
        timeout_s: optional per-attempt wall-clock limit per job; a hung
            attempt's worker is killed (runs on the fabric).
        retry: retry policy for failed jobs (default: 2 retries with
            exponential backoff and seeded jitter).
        journal_path: optional JSONL checkpoint journal; every settled
            job is appended atomically so a crashed sweep can resume.
        lease_s: fabric claim lease duration (unused in-process).
        ledger_path: optional run ledger receiving one entry per cell
            the sweep ran, sorted by workload then scheme. In-process
            the runner appends them after the sweep; fabric workers
            append per-worker shards that are merged in the same order.
        fault_plan: optional fault-injection plan (tests / drills; runs
            on the fabric, so an injected crash kills a worker, not the
            caller).
        tracer: optional wall-clock :class:`~repro.telemetry.Tracer`
            (``Tracer.wallclock()``); job lifecycle transitions and
            journal appends are recorded as instant events (category
            ``sweep`` / ``journal``), giving an orchestration timeline.
        on_event: optional ``(name, args)`` observer for the same
            supervisor lifecycle events the tracer sees (``job.attempt``
            / ``job.result`` / ``job.retry`` / ``job.failed``); used by
            :class:`~repro.obs.progress.SweepProgress`.
        recorder_dir: optional directory for per-worker crash flight
            recorders when the sweep runs on the fabric; crash/timeout
            failure records then carry a ``recorder_path`` post-mortem
            pointer.
    """

    def __init__(
        self,
        config: SystemConfig,
        workloads: Optional[Iterable[str]] = None,
        schemes: Optional[Iterable[Scheme]] = None,
        *,
        max_events: Optional[int] = None,
        n_jobs: int = 1,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        journal_path=None,
        lease_s: float = 300.0,
        ledger_path=None,
        fault_plan: Optional[FaultPlan] = None,
        tracer=NULL_TRACER,
        on_event=None,
        recorder_dir=None,
    ) -> None:
        if n_jobs < 1:
            raise ConfigError(f"n_jobs must be >= 1, got {n_jobs}")
        if max_events is not None and max_events < 1:
            raise ConfigError(f"max_events must be >= 1, got {max_events}")
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigError(f"timeout_s must be positive, got {timeout_s}")
        self.config = config
        self.workloads = list(workloads) if workloads else all_workload_names()
        self.schemes = list(schemes) if schemes else all_schemes()
        self.max_events = max_events
        self.n_jobs = n_jobs
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self.journal_path = journal_path
        self.lease_s = lease_s
        self.ledger_path = ledger_path
        self.fault_plan = fault_plan
        self.tracer = tracer
        self.on_event = on_event
        self.recorder_dir = recorder_dir
        self.results: Dict[ResultKey, SimResult] = {}
        self.failures: Dict[ResultKey, FailedRun] = {}
        #: Live FabricStats during a fabric sweep (set before the fleet
        #: starts, zeroed in place per sweep), so observers can scrape
        #: mid-run.
        self.fabric_stats = None
        #: Live FleetStatus (aggregated worker heartbeats) during a
        #: fabric sweep.
        self.fleet = None
        self._journal: Optional[ResultJournal] = None
        self._resumed = False

    def _on_supervisor_event(self, name: str, args: dict) -> None:
        """Forward supervisor lifecycle transitions to the sweep tracer
        and to any external observer (e.g. a progress reporter)."""
        self.tracer.instant(name, "sweep", args=args)
        if self.on_event is not None:
            self.on_event(name, args)

    def _runs_in_process(self) -> bool:
        """Whether the sweep runs in this process rather than on the fabric.

        Worker processes, timeouts and injected faults all need a
        process to kill or crash, so any of them sends the sweep to the
        fabric.
        """
        return self.n_jobs == 1 and self.timeout_s is None and not self.fault_plan

    # ------------------------------------------------------------------
    def run_all(self, progress=None) -> Dict[ResultKey, SimResult]:
        """Run every (workload, scheme) pair not yet cached.

        Results are harvested as jobs complete: the ``progress`` callback
        fires in completion order and every finished result is in
        ``self.results`` (and the journal) even if a later job fails. A
        job that exhausts its retries lands in ``self.failures`` as a
        :class:`FailedRun` instead of raising.

        Args:
            progress: Optional callable ``(workload, scheme, result)``
                invoked after each run (e.g. to print a line).
        """
        if not self._runs_in_process():
            return self._run_fabric(progress)
        jobs = [
            Job(
                key=(workload, scheme.value),
                fn=_run_job,
                args=(self.config, workload, scheme.value, self.max_events),
            )
            for workload in self.workloads
            for scheme in self.schemes
            if (workload, scheme) not in self.results
        ]
        if not jobs:
            return self.results

        journal = self._ensure_journal()

        def on_result(key, result) -> None:
            workload, scheme_value = key
            scheme = Scheme(scheme_value)
            self.results[(workload, scheme)] = result
            self.failures.pop((workload, scheme), None)
            if journal is not None:
                journal.append_result(
                    workload, scheme_value, result.to_json_dict()
                )
            if progress is not None:
                progress(workload, scheme, result)

        def on_failure(failed: FailedRun) -> None:
            workload, scheme_value = failed.key
            self.failures[(workload, Scheme(scheme_value))] = failed
            if journal is not None:
                journal.append_failure(workload, scheme_value, failed.as_dict())

        supervisor = JobSupervisor(
            retry=self.retry,
            seed=self.config.seed,
            validate=_validate_sim_result,
            on_event=(
                self._on_supervisor_event
                if (self.tracer.enabled or self.on_event is not None)
                else None
            ),
        )
        supervisor.run(jobs, on_result=on_result, on_failure=on_failure)
        if self.ledger_path is not None:
            self._append_ledger(job.key for job in jobs)
        return self.results

    def _append_ledger(self, keys) -> None:
        """Append the cells among *keys* that produced a result, sorted
        by workload then scheme (the order the fabric's merge yields)."""
        from repro.obs.ledger import KIND_SWEEP, LedgerEntry, RunLedger

        ledger = RunLedger(self.ledger_path)
        for workload, scheme_value in sorted(keys):
            result = self.results.get((workload, Scheme(scheme_value)))
            if result is not None:
                ledger.append(
                    LedgerEntry.from_result(result, self.config, kind=KIND_SWEEP)
                )

    def _run_fabric(self, progress=None) -> Dict[ResultKey, SimResult]:
        """Route the sweep through the sharded multiprocess fabric."""
        from repro.fabric.executor import FabricExecutor

        remaining = [
            (workload, scheme)
            for workload in self.workloads
            for scheme in self.schemes
            if (workload, scheme) not in self.results
        ]
        if not remaining:
            return self.results

        def on_result(key, result) -> None:
            workload, scheme_value = key
            scheme = Scheme(scheme_value)
            self.results[(workload, scheme)] = result
            self.failures.pop((workload, scheme), None)
            if progress is not None:
                progress(workload, scheme, result)

        def on_failure(failed: FailedRun) -> None:
            workload, scheme_value = failed.key
            self.failures[(workload, Scheme(scheme_value))] = failed

        executor = FabricExecutor(
            self.n_jobs,
            journal_path=self.journal_path,
            lease_s=self.lease_s,
            timeout_s=self.timeout_s,
            retry=self.retry,
            fault_plan=self.fault_plan,
            seed=self.config.seed,
            ledger_path=self.ledger_path,
            on_event=(
                self._on_supervisor_event
                if (self.tracer.enabled or self.on_event is not None)
                else None
            ),
            on_result=on_result,
            on_failure=on_failure,
            recorder_dir=self.recorder_dir,
        )
        # Expose the live observability surfaces before the fleet
        # starts: stats reset in place, so mid-sweep scrapes see
        # current numbers through these references.
        self.fabric_stats = executor.stats
        self.fleet = executor.fleet
        outcome = executor.run(
            self.config,
            self.workloads,
            self.schemes,
            max_events=self.max_events,
            meta=self._journal_meta(),
            # resume() already seeded the journal with surviving results;
            # a fresh start here would wipe them.
            fresh=not self._resumed,
        )
        # The journal is the truth; events were only the live stream.
        for (workload, scheme_value), result in outcome.results.items():
            self.results[(workload, Scheme(scheme_value))] = result
        for (workload, scheme_value), failed in outcome.failures.items():
            key = (workload, Scheme(scheme_value))
            if key not in self.results:
                self.failures[key] = failed
        return self.results

    def _ensure_journal(self) -> Optional[ResultJournal]:
        """The active journal, starting a fresh one on first use."""
        if self.journal_path is None:
            return None
        if self._journal is None:
            self._journal = ResultJournal(self.journal_path, tracer=self.tracer)
            self._journal.start(self._journal_meta())
        return self._journal

    def _journal_meta(self) -> dict:
        return {
            "seed": self.config.seed,
            "workloads": list(self.workloads),
            "schemes": [s.value for s in self.schemes],
            "fingerprint": sweep_fingerprint(
                self.config,
                self.workloads,
                [s.value for s in self.schemes],
                self.max_events,
            ),
        }

    def _validate_fingerprint(self, path, meta: Optional[dict]) -> None:
        """Refuse to resume a journal written for a different sweep.

        Journals carry a ``fingerprint`` in their meta record (config
        hash + sweep-spec hash). A mismatch means the resuming runner
        would silently mix results from different configurations, so it
        raises :class:`CheckpointCorruptError` instead. Journals from
        before fingerprinting (no ``fingerprint`` key) are trusted
        as-is.
        """
        recorded = (meta or {}).get("fingerprint")
        if not isinstance(recorded, dict):
            return
        expected = sweep_fingerprint(
            self.config,
            self.workloads,
            [s.value for s in self.schemes],
            self.max_events,
        )
        mismatched = [
            name
            for name in ("config_sha256", "spec_sha256")
            if recorded.get(name) != expected[name]
        ]
        if mismatched:
            detail = ", ".join(
                f"{name}: journal {str(recorded.get(name))[:12]}… != "
                f"sweep {expected[name][:12]}…"
                for name in mismatched
            )
            raise CheckpointCorruptError(
                f"{path}: journal belongs to a different sweep ({detail}). "
                "Resuming would mix results across configurations; re-run "
                "with the journal's original config/workloads/schemes/"
                "max-events, or delete the journal to start over."
            )

    # ------------------------------------------------------------------
    def resume(self, path=None, progress=None) -> Dict[ResultKey, SimResult]:
        """Restart an interrupted sweep from its checkpoint journal.

        Loads every surviving result from *path* (default: this runner's
        ``journal_path``), then runs only the missing pairs — jobs the
        journal recorded as failed, jobs lost to a truncated final line,
        and jobs never reached. Journaling continues into the same file.
        """
        path = path if path is not None else self.journal_path
        if path is None:
            raise ConfigError("resume() needs a journal path")
        contents = ResultJournal.load(path)
        self._validate_fingerprint(path, contents.meta)
        domain = {
            (w, s.value) for w in self.workloads for s in self.schemes
        }
        for (workload, scheme_value), record in contents.results.items():
            if (workload, scheme_value) not in domain:
                continue
            result = SimResult.from_json_dict(record)
            problem = _validate_sim_result((workload, scheme_value), result)
            if problem is not None:
                continue  # journaled garbage: just re-run the pair
            self.results[(workload, Scheme(scheme_value))] = result
        # Journaled failures are *not* preloaded into self.failures: their
        # pairs are missing from self.results, so run_all re-runs them.
        self.journal_path = path
        self._journal = ResultJournal(path, tracer=self.tracer)
        self._journal.resume_from(contents, self._journal_meta())
        self._resumed = True
        return self.run_all(progress=progress)

    # ------------------------------------------------------------------
    # Aggregation (the paper's reporting conventions)
    # ------------------------------------------------------------------
    def result(self, workload: str, scheme: Scheme) -> SimResult:
        try:
            return self.results[(workload, scheme)]
        except KeyError:
            failed = self.failures.get((workload, scheme))
            if failed is not None:
                raise ConfigError(
                    f"run for ({workload}, {scheme.value}) failed: "
                    f"{failed.kind} — {failed.message}"
                ) from None
            raise ConfigError(
                f"no result for ({workload}, {scheme.value}); run run_all() first"
            ) from None

    def has_result(self, workload: str, scheme: Scheme) -> bool:
        return (workload, scheme) in self.results

    def completed_workloads(self, *schemes: Scheme) -> List[str]:
        """Workloads with a result under every given scheme, sweep order."""
        return [
            w
            for w in self.workloads
            if all((w, s) in self.results for s in schemes)
        ]

    def ipc_series(self, scheme: Scheme) -> List[float]:
        """Per-workload IPC, skipping failed/missing cells."""
        return [
            self.results[(w, scheme)].ipc
            for w in self.completed_workloads(scheme)
        ]

    def normalized_ipc(self, scheme: Scheme, baseline: Scheme) -> List[float]:
        """Per-workload IPC normalised to *baseline* (Figures 2 and 7).

        Workloads missing either cell are skipped, so a sweep containing
        failed runs still aggregates over its surviving pairs.
        """
        return [
            self.results[(w, scheme)].ipc / self.results[(w, baseline)].ipc
            for w in self.completed_workloads(scheme, baseline)
        ]

    def geomean_ipc(self, scheme: Scheme) -> float:
        series = self.ipc_series(scheme)
        return geomean(series) if series else float("nan")

    def geomean_speedup(self, scheme: Scheme, baseline: Scheme) -> float:
        series = self.normalized_ipc(scheme, baseline)
        return geomean(series) if series else float("nan")

    def lifetime_series(self, scheme: Scheme) -> List[float]:
        return [
            self.results[(w, scheme)].lifetime_years
            for w in self.completed_workloads(scheme)
        ]

    def geomean_lifetime(self, scheme: Scheme) -> float:
        series = self.lifetime_series(scheme)
        return geomean(series) if series else float("nan")

    # ------------------------------------------------------------------
    def save_json(self, path) -> None:
        """Persist all settled runs as JSON (one record per run).

        Successful runs carry ``"status": "ok"``; failed runs appear as
        ``"status": "failed"`` records with the failure's kind, message
        and attempt count, so downstream tooling sees the full sweep
        outcome. The write is atomic (tmp file + ``os.replace``) so a
        mid-write crash cannot truncate an existing results file.
        """
        records = [
            {"status": "ok", **result.as_dict()}
            for result in self.results.values()
        ]
        records.extend(
            {
                "status": "failed",
                "workload": workload,
                "scheme": scheme.value,
                "kind": failed.kind,
                "message": failed.message,
                "attempts": failed.attempts,
            }
            for (workload, scheme), failed in self.failures.items()
        )
        path = Path(path)
        atomic_write_text(path, json.dumps(records, indent=2))
