"""Exception hierarchy for the repro package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch one base type.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class SimulationError(ReproError):
    """The simulator reached an invalid internal state."""


class QueueFullError(SimulationError):
    """A bounded hardware queue received a request while full.

    Memory-controller queues apply backpressure instead of raising; this
    error signals a protocol violation (an unchecked enqueue).
    """


class TraceFormatError(ReproError):
    """A trace file or record could not be parsed."""


class RetentionViolationError(SimulationError):
    """A short-retention block was not refreshed before its data expired.

    The paper reports never observing this with the default configuration;
    we raise (or record, depending on policy) so misconfigured systems are
    detected rather than silently losing data.
    """


class ResilienceError(ReproError):
    """Base class for experiment-orchestration failures.

    These describe problems with *running* a job (worker processes,
    checkpoints), not with the simulated system itself.
    """


class JobTimeoutError(ResilienceError):
    """A supervised job exceeded its wall-clock timeout and was killed."""


class JobCrashedError(ResilienceError):
    """A worker process died (non-zero exit, signal, or closed pipe)
    before delivering a result."""


class CorruptResultError(JobCrashedError):
    """A worker returned a payload that failed result validation."""


class CheckpointCorruptError(ResilienceError):
    """A results journal contains an unreadable record before its final
    line (a truncated *final* line is expected after a crash and is
    skipped, not an error)."""


class LedgerCorruptError(ReproError):
    """A run ledger contains an unreadable record before its final line.

    Mirrors :class:`CheckpointCorruptError`: a truncated *final* line is
    a torn append and is dropped silently; anything earlier means the
    file was edited or damaged and must not be trusted."""
