"""The :class:`Finding` record and the :class:`Checker` base class.

A checker is one rule: it owns a rule id and a ``check(module)`` pass
over one file's AST, and emits plain-data findings that reporters and
tests consume without knowing which checker produced them. The shipped
set is the ``CHECKERS`` tuple in :mod:`repro.lint.checkers`, so adding
a rule is one new class plus one entry there.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.lint.context import LintModule


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location; every finding fails
    the lint run.

    Attributes:
        rule: Rule identifier (``RL001`` ... ``RL012``; ``RL000`` is
            reserved for files the analyzer itself could not parse).
        path: Path of the offending file, relative to the lint root,
            with forward slashes.
        line: 1-based source line.
        col: 0-based column.
        message: What is wrong, concretely.
        hint: How to fix it (or how to legitimately suppress it).
        context: The stripped text of the offending source line.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    context: str = ""

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-stable representation (schema covered by tests)."""
        return asdict(self)

    def render(self) -> str:
        text = f"{self.location}: {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


class Checker:
    """One lint rule.

    Subclasses set :attr:`rule_id`, :attr:`name` and optionally
    :attr:`packages` (restrict the rule to specific ``repro``
    sub-packages; ``None`` means every scanned file), then implement
    :meth:`check`, emitting findings with :meth:`emit` so inline pragmas
    are honoured against the full source span of the offending node.
    """

    #: ``RLnnn`` identifier; unique across ``CHECKERS``.
    rule_id: str = ""
    #: Short kebab-case name used in reports (``no-wallclock``).
    name: str = ""
    #: Restrict to these ``repro`` sub-packages, or None for all files.
    packages: Optional[FrozenSet[str]] = None

    def check(self, module: LintModule) -> List[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def emit(
        self,
        out: List[Finding],
        module: LintModule,
        node: ast.AST,
        message: str,
        *,
        hint: str = "",
    ) -> None:
        """Append a Finding anchored at *node* unless a pragma on any
        line the node spans suppresses this rule."""
        if module.is_disabled(self.rule_id, node):
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        out.append(
            Finding(
                rule=self.rule_id,
                path=module.relpath,
                line=line,
                col=col,
                message=message,
                hint=hint,
                context=module.line_text(line),
            )
        )

    def run(self, module: LintModule) -> List[Finding]:
        """``check()`` gated on this rule's package restriction."""
        if self.packages is not None and module.package not in self.packages:
            return []
        return self.check(module)
