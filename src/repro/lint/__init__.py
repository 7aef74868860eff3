"""Static simulator-invariant analysis (``repro-rrm lint``).

A determinism-critical discrete-event simulator has invariants no
general-purpose linter knows about. ``repro.lint`` walks the package's
ASTs with the :class:`~repro.lint.base.Checker` classes in ``CHECKERS``
and reports violations as :class:`~repro.lint.base.Finding` records;
every finding fails the run. A rule ships only while a realistic
seeded instance of its defect gets past every tier-1 test (the audit
table is in CHANGES.md); a defect the result digests or another test
already catch needs no rule.

Rules shipped:

========  ======================  =====================================
Rule      Name                    Guards against
========  ======================  =====================================
RL001     no-wallclock            wall-clock reads in sim-path packages
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

RL001, RL005 and RL006 guard the simulation path
(``SIM_PATH_PACKAGES``), RL004 every file, and RL008, RL011 and RL012
the orchestration path (``ORCH_PATH_PACKAGES``). The retired ids
RL002, RL003, RL007, RL009 and RL010 are not reused.

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
    render_json,
    render_text,
    run_lint,
)
from repro.lint.base import Checker, Finding
from repro.lint.checkers import CHECKERS

__all__ = [
    "CHECKERS",
    "Checker",
    "Finding",
    "LintReport",
    "iter_python_files",
    "lint_source",
    "render_json",
    "render_text",
    "run_lint",
]
