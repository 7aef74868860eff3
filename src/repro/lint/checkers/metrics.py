"""Metrics-coverage rule: RL005.

PR 2 made the telemetry :class:`~repro.telemetry.registry.MetricRegistry`
the single source of stats: every sim-path component publishes its
counters through a ``register_metrics(registry, prefix)`` method. A
class that accumulates counters but never registers them is invisible to
traces, profiles, and the summary report — exactly the kind of silent
coverage gap that let wear/lifetime numbers drift unnoticed in other
PCM simulators. This rule finds counter-bearing sim-path classes with no
``register_metrics``.
"""

from __future__ import annotations

import ast
import re
from typing import List, Set

from repro.lint.base import Checker, Finding
from repro.lint.context import SIM_PATH_PACKAGES, LintModule

#: Attribute-name shapes that read as event counters. Deliberately a
#: vocabulary of this codebase's domain nouns rather than "any +=":
#: cursors, clocks, and accumulating floats are not counters.
_COUNTER_WORDS = (
    "count",
    "hits",
    "misses",
    "reads",
    "writes",
    "stalls",
    "evictions",
    "refreshes",
    "promotions",
    "demotions",
    "violations",
    "retries",
    "drops",
    "moves",
    "changes",
    "interrupts",
    "appends",
    "issued",
    "completed",
    "emitted",
    "scheduled",
    "cancelled",
    "registrations",
    "rotations",
    "instructions",
    "ticks",
    "total",
    "events",
)

_COUNTER_RE = re.compile(
    r"(?:^|_)(?:" + "|".join(_COUNTER_WORDS) + r")(?:_|$)"
)


def is_counter_name(name: str) -> bool:
    """Public attribute names that read as monotonically-counted events."""
    if name.startswith("_"):
        return False
    lowered = name.lower()
    return bool(
        _COUNTER_RE.search(lowered)
        or lowered.startswith(("n_", "num_"))
    )


class MetricsCoverageChecker(Checker):
    """RL005: counter-mutating sim-path classes must register metrics.

    A class is flagged when it increments (``+=``) public counter-like
    ``self`` attributes but defines no ``register_metrics`` method.
    Plain stats structs whose counters are incremented *by their owner*
    (``self.stats.reads += 1``) are not flagged here — the owner is, if
    it fails to expose them.
    """

    rule_id = "RL005"
    name = "metrics-coverage"
    packages = SIM_PATH_PACKAGES

    def check(self, module: LintModule) -> List[Finding]:
        out: List[Finding] = []
        for cls in self._all_classes(module):
            counters = self._self_counters(cls)
            if not counters:
                continue
            if self._has_register_metrics(cls):
                continue
            names = ", ".join(sorted(counters))
            self.emit(
                out,
                module,
                cls,
                f"class `{cls.name}` mutates counter(s) {names} but has "
                "no register_metrics()",
                hint="add register_metrics(registry, prefix) publishing "
                "them as pull gauges (see engine.Simulator), or "
                "suppress if the owner class registers them",
            )
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def _all_classes(module: LintModule) -> List[ast.ClassDef]:
        return [
            node for node in module.walk() if isinstance(node, ast.ClassDef)
        ]

    @staticmethod
    def _has_register_metrics(cls: ast.ClassDef) -> bool:
        return any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "register_metrics"
            for node in cls.body
        )

    @staticmethod
    def _self_counters(cls: ast.ClassDef) -> Set[str]:
        """Public counter-like ``self.x += ...`` targets inside *cls*,
        excluding those inside nested class definitions."""
        counters: Set[str] = set()
        stack: List[ast.AST] = list(cls.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ClassDef):
                continue  # a nested class owns its own counters
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.AugAssign):
                continue
            if not isinstance(node.op, ast.Add):
                continue
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and is_counter_name(target.attr)
            ):
                counters.add(target.attr)
        return counters
