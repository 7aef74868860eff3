"""Time-safety rule: RL004 float-time-equality.

The simulator keeps time in float nanoseconds, and identifiers carry
their unit as a suffix (``latency_ns``, ``retention_s``). Exact
equality on such a value holds in tests whose latencies are whole
nanoseconds and silently stops holding once a constant gains a
fractional part.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.base import Checker, Finding
from repro.lint.context import LintModule

#: Identifier suffixes that mark a time value.
TIME_SUFFIXES = ("_ns", "_us", "_ms", "_s", "_years")


def _is_tolerance_call(node: ast.AST) -> bool:
    """Calls that make float equality well-defined (approx, isclose)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    return name in ("approx", "isclose")


def _is_time_like(node: ast.AST) -> Optional[str]:
    """Identifier text when *node* reads like a simulation-time value."""
    if isinstance(node, ast.Name):
        ident = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    else:
        return None
    lowered = ident.lower()
    if lowered in ("now", "_now"):
        return ident
    for suffix in TIME_SUFFIXES:
        if lowered.endswith(suffix):
            return ident
    return None


class FloatTimeEqualityChecker(Checker):
    """RL004: no ``==``/``!=`` on simulation-time expressions.

    Simulated timestamps are floats accumulated through ns-scale
    arithmetic; exact equality is representation-dependent (two paths to
    "the same" instant can differ in the last ulp) and silently breaks
    when a latency constant gains a fractional part. Order comparisons
    (``<=``, ``>=``) or an explicit tolerance express the actual intent.
    Comparisons against literal ``0`` are flagged too: "has time
    advanced" is ``> 0.0``, not ``!= 0.0``.
    """

    rule_id = "RL004"
    name = "float-time-equality"

    def check(self, module: LintModule) -> List[Finding]:
        out: List[Finding] = []
        for node in module.walk():
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                ident = _is_time_like(left) or _is_time_like(right)
                if ident is None:
                    continue
                # `x_ns == None` style checks are not equality-on-floats.
                if any(
                    isinstance(side, ast.Constant) and side.value is None
                    for side in (left, right)
                ):
                    continue
                # Tolerance-based equality is the recommended fix, not a
                # finding: `x_ns == pytest.approx(y)`, `isclose(...)`.
                if any(_is_tolerance_call(side) for side in (left, right)):
                    continue
                self.emit(
                    out,
                    module,
                    node,
                    f"exact equality on simulation-time value `{ident}`",
                    hint="compare with <=/>= or an explicit tolerance; "
                    "float timestamps are not exact",
                )
        return out
