"""The shipped rule set: ``CHECKERS``, one class per rule, by rule id.

Rules are grouped by the invariant family they protect, one module per
family.
"""

from repro.lint.checkers.determinism import WallClockChecker, WallclockLeaseChecker
from repro.lint.checkers.durability import (
    AtomicPersistenceChecker,
    SilentSwallowChecker,
)
from repro.lint.checkers.events import EventDisciplineChecker
from repro.lint.checkers.metrics import MetricsCoverageChecker
from repro.lint.checkers.units import FloatTimeEqualityChecker

CHECKERS = (
    WallClockChecker,
    FloatTimeEqualityChecker,
    MetricsCoverageChecker,
    EventDisciplineChecker,
    AtomicPersistenceChecker,
    WallclockLeaseChecker,
    SilentSwallowChecker,
)
