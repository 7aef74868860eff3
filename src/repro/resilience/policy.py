"""Retry policy: bounded retries with exponential backoff and seeded jitter.

Backoff delays are a pure function of ``(seed, job key, attempt)`` so a
sweep replayed with the same seed produces an identical retry schedule —
the same determinism contract the simulator itself offers. Jitter exists
to de-synchronise retries of jobs that failed together (e.g. all workers
OOM-killed at once), and hashing rather than a shared RNG keeps it
independent of completion order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigError

#: Exception type names that indicate a deterministic input problem; the
#: job would fail identically on every attempt, so retrying is wasted work.
NON_RETRYABLE_ERRORS = frozenset({"ConfigError", "TraceFormatError"})


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-run a failed job, and how long to wait."""

    #: Re-tries after the first attempt (total attempts = 1 + max_retries).
    max_retries: int = 2
    #: Delay before the first retry, in seconds.
    base_delay_s: float = 0.1
    #: Multiplier applied per additional retry.
    backoff_factor: float = 2.0
    #: Cap on any single delay.
    max_delay_s: float = 5.0
    #: Delays are perturbed by up to +/- this fraction.
    jitter_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.max_retries}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigError("retry delays must be >= 0")
        if not 0 <= self.jitter_fraction <= 1:
            raise ConfigError("retry jitter_fraction must be in [0, 1]")

    # ------------------------------------------------------------------
    def should_retry(self, attempt: int, error_type: str) -> bool:
        """Whether a job that has run *attempt* times (>= 1) and last
        failed with exception type *error_type* deserves another try."""
        if error_type in NON_RETRYABLE_ERRORS:
            return False
        return attempt <= self.max_retries

    def delay_s(self, key: Tuple, attempt: int, seed: int = 0) -> float:
        """Backoff before retry number *attempt* (1-based) of job *key*.

        Deterministic: same (seed, key, attempt) -> same delay, across
        processes and runs (uses SHA-256, not ``hash()``, so it is immune
        to ``PYTHONHASHSEED``).
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(
            self.base_delay_s * self.backoff_factor ** (attempt - 1),
            self.max_delay_s,
        )
        if base == 0 or self.jitter_fraction == 0:
            return base
        digest = hashlib.sha256(
            f"{seed}|{key!r}|{attempt}".encode("utf-8")
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))

    def schedule(self, key: Tuple, seed: int = 0) -> "list[float]":
        """The full delay schedule a job would follow if it kept failing."""
        return [
            self.delay_s(key, attempt, seed)
            for attempt in range(1, self.max_retries + 1)
        ]
