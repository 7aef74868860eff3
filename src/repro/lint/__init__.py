"""Static simulator-invariant analysis (``repro-rrm lint``).

A determinism-critical discrete-event simulator has invariants no
general-purpose linter knows about: simulation-path code must never read
the wall clock, randomness must flow from injected seeded generators,
time units must not silently mix (Table I retention seconds vs. device
nanoseconds vs. core cycles), and event handlers must respect the
engine's scheduling discipline. The orchestration path (``resilience``,
``obs``, ``profiling``) has its own invariants: atomic persistence,
deadlines on an injected clock, and loud failure. ``repro.lint`` walks
the package's ASTs with a set of pluggable
:class:`~repro.lint.base.Checker` passes and reports violations as
structured :class:`~repro.lint.finding.Finding` records.

Rules shipped:

========  ======================  =====================================
Rule      Name                    Guards against
========  ======================  =====================================
RL001     no-wallclock            wall-clock reads in sim-path packages
RL002     seeded-rng              module-level (unseeded) RNG use
RL003     unit-mixing             arithmetic across `_ns`/`_s`/... units
RL004     float-time-equality     ``==`` on simulation-time floats
RL005     metrics-coverage        counters invisible to the telemetry
                                  registry (no ``register_metrics``)
RL006     event-discipline        negative/absolute-literal scheduling,
                                  clock mutation outside the engine
RL008     atomic-persistence      durable artifacts written without
                                  tmp-file + ``os.replace``
RL011     wallclock-lease-logic   lease/retry/timeout decisions on a
                                  direct wall-clock read (no injected
                                  clock)
RL012     silent-swallow          broad ``except`` that leaves no
                                  evidence (no log/record/counter)
========  ======================  =====================================

RL001–RL006 guard the simulation path (``SIM_PATH_PACKAGES``);
RL008, RL011 and RL012 guard the orchestration path
(``ORCH_PATH_PACKAGES``). The retired ids RL007, RL009 and RL010 are
not reused, so an old selection naming them fails loudly.

Suppression is explicit and reviewable: an inline ``# repro-lint:
disable=RL00x -- <reason>`` pragma next to the code it excuses. A
pragma without a reason suppresses nothing.

``ruff``/``mypy`` (configured in ``pyproject.toml``) cover generic style
and typing; this package only checks invariants they cannot express.
"""

from repro.lint.api import (
    LintReport,
    iter_python_files,
    lint_source,
    parse_rule_selection,
    run_lint,
    select_checkers,
)
from repro.lint.base import Checker, all_checkers, checker_classes, register
from repro.lint.finding import SEVERITIES, Finding
from repro.lint.reporters import render_json, render_text

__all__ = [
    "Checker",
    "Finding",
    "LintReport",
    "SEVERITIES",
    "all_checkers",
    "checker_classes",
    "iter_python_files",
    "lint_source",
    "parse_rule_selection",
    "register",
    "render_json",
    "render_text",
    "run_lint",
    "select_checkers",
]
