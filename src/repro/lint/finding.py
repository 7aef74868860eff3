"""The :class:`Finding` record every checker emits.

Findings are plain data so reporters and tests can consume them
without knowing which checker produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Severities in increasing order of badness.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: Rule identifier (``RL001`` ... ``RL012``; ``RL000`` is
            reserved for files the analyzer itself could not parse).
        severity: ``"error"`` or ``"warning"``. Errors always fail the
            lint run; warnings only fail it under ``--strict``.
        path: Path of the offending file, relative to the lint root,
            with forward slashes.
        line: 1-based source line.
        col: 0-based column.
        message: What is wrong, concretely.
        hint: How to fix it (or how to legitimately suppress it).
        context: The stripped text of the offending source line.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    context: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity: {self.severity!r}")

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-stable representation (schema covered by tests)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "context": self.context,
        }

    def render(self) -> str:
        text = f"{self.location}: {self.rule} [{self.severity}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text
