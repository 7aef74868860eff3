"""Built-in checker set.

Importing this package registers every shipped rule; :func:`~repro.lint.
base.all_checkers` does so lazily. Rules are grouped by the invariant
family they protect, one module per family.
"""

from repro.lint.checkers.determinism import (
    SeededRngChecker,
    WallClockChecker,
    WallclockLeaseChecker,
)
from repro.lint.checkers.durability import (
    AtomicPersistenceChecker,
    SilentSwallowChecker,
)
from repro.lint.checkers.events import EventDisciplineChecker
from repro.lint.checkers.metrics import MetricsCoverageChecker
from repro.lint.checkers.units import FloatTimeEqualityChecker, UnitMixingChecker

__all__ = [
    "AtomicPersistenceChecker",
    "EventDisciplineChecker",
    "FloatTimeEqualityChecker",
    "MetricsCoverageChecker",
    "SeededRngChecker",
    "SilentSwallowChecker",
    "UnitMixingChecker",
    "WallClockChecker",
    "WallclockLeaseChecker",
]
