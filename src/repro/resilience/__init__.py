"""Resilient experiment orchestration.

The pieces a long sweep needs to survive real infrastructure: supervised
in-process execution (bounded deterministic retries, result validation,
structured failure records), crash-safe JSONL checkpointing with resume,
and a deterministic fault-injection harness used by tests and
operational drills alike. Timeouts and worker-crash isolation come from
the fabric (:mod:`repro.fabric`). See DESIGN.md, "Resilient sweeps".
"""

from repro.resilience.faultinject import FaultPlan, FaultSpec
from repro.resilience.journal import JournalContents, ResultJournal
from repro.resilience.policy import RetryPolicy
from repro.resilience.supervisor import (
    FailedRun,
    Job,
    JobSupervisor,
    run_with_retry,
)

__all__ = [
    "FailedRun",
    "FaultPlan",
    "FaultSpec",
    "Job",
    "JobSupervisor",
    "JournalContents",
    "ResultJournal",
    "RetryPolicy",
    "run_with_retry",
]
