"""Resilient experiment orchestration.

The pieces a long sweep needs to survive real infrastructure: one sweep
loop (:func:`run_jobs`) with bounded deterministic retries, result
validation, structured failure records, and optional worker processes
for wall-clock timeouts and crash isolation; crash-safe JSONL
checkpointing with resume; and a deterministic fault-injection harness
used by tests and operational drills alike. See DESIGN.md, "Resilient
sweeps".
"""

from repro.resilience.faultinject import FaultPlan, FaultSpec
from repro.resilience.journal import JournalContents, ResultJournal
from repro.resilience.policy import RetryPolicy
from repro.resilience.supervisor import (
    FailedRun,
    Job,
    SweepOutcome,
    SweepStats,
    run_jobs,
    run_with_retry,
)

__all__ = [
    "FailedRun",
    "FaultPlan",
    "FaultSpec",
    "Job",
    "JournalContents",
    "ResultJournal",
    "RetryPolicy",
    "SweepOutcome",
    "SweepStats",
    "run_jobs",
    "run_with_retry",
]
