"""Event-discipline rule: RL006.

The engine (:mod:`repro.engine.simulator`) guarantees causality at
runtime — scheduling in the past raises, ``run()`` owns the clock. This
rule catches the same violations statically, before a run ever executes
the offending path: literal negative delays, absolute literal
timestamps (which are only correct at t=0 and silently wrong after a
warm-up phase), non-positive literal periods, and handlers reaching
into another object's clock instead of scheduling an event.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.base import Checker, Finding
from repro.lint.context import SIM_PATH_PACKAGES, LintModule

_SCHEDULE_METHODS = ("schedule_after", "schedule_at", "schedule_periodic")


def _numeric_literal(node: ast.AST) -> Optional[float]:
    """Value of a (possibly negated) numeric literal, else None."""
    sign = 1.0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
        node = node.operand
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ):
        return sign * node.value
    return None


class EventDisciplineChecker(Checker):
    """RL006: scheduling calls and clock ownership.

    Patterns flagged:

    - ``schedule_after(-d, ...)`` with a literal negative delay;
    - ``schedule_at(<literal>, ...)`` — an absolute literal timestamp is
      not ``now``-relative and breaks once anything runs before it;
    - ``schedule_periodic(<literal <= 0>, ...)``;
    - assignment to ``<obj>.now`` / ``<obj>._now`` where ``<obj>`` is
      not ``self`` — only the engine advances the clock, from inside
      ``run()``; handlers schedule events instead.
    """

    rule_id = "RL006"
    name = "event-discipline"
    packages = SIM_PATH_PACKAGES

    def check(self, module: LintModule) -> List[Finding]:
        out: List[Finding] = []
        for node in module.walk():
            if isinstance(node, ast.Call):
                self._check_schedule_call(out, module, node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._check_clock_mutation(out, module, node)
        return out

    # ------------------------------------------------------------------
    def _check_schedule_call(
        self, out: List[Finding], module: LintModule, node: ast.Call
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _SCHEDULE_METHODS:
            return
        if not node.args:
            return
        first = _numeric_literal(node.args[0])
        if func.attr == "schedule_after" and first is not None and first < 0:
            self.emit(
                out,
                module,
                node,
                f"schedule_after with negative delay {first:g}",
                hint="delays are non-negative ns from `now`",
            )
        elif func.attr == "schedule_at" and first is not None:
            self.emit(
                out,
                module,
                node,
                f"schedule_at with absolute literal time {first:g}",
                hint="schedule relative to the clock (`sim.now + delay` "
                "or schedule_after); literal timestamps are stale "
                "after any warm-up",
            )
        elif func.attr == "schedule_periodic" and first is not None and first <= 0:
            self.emit(
                out,
                module,
                node,
                f"schedule_periodic with non-positive period {first:g}",
                hint="periods are positive ns",
            )

    def _check_clock_mutation(
        self, out: List[Finding], module: LintModule, node: ast.AST
    ) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            if target.attr not in ("now", "_now"):
                continue
            base = target.value
            if isinstance(base, ast.Name) and base.id == "self":
                continue  # the clock owner updating its own state
            self.emit(
                out,
                module,
                node,
                f"direct mutation of `{ast.unparse(target)}` — handlers "
                "must not move another object's clock",
                hint="schedule an event at the desired time instead",
            )
