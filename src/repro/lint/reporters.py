"""Finding reporters: human text and machine JSON.

The JSON schema is part of the tool's contract (CI and editor tooling
parse it); ``tests/test_lint.py`` pins it. Bump ``REPORT_VERSION`` on
any shape change.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.api import LintReport

REPORT_VERSION = 3


def render_text(report: "LintReport") -> str:
    """Human-readable report: one block per finding plus a summary."""
    lines = [finding.render() for finding in report.findings]
    lines.extend(["", report.summary_line()])
    return "\n".join(lines).strip("\n")


def render_json(report: "LintReport") -> str:
    """Machine-readable report (stable schema, version field first)."""
    by_rule: Dict[str, int] = {}
    for finding in report.findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    payload = {
        "version": REPORT_VERSION,
        "tool": "repro-lint",
        "files_scanned": report.files_scanned,
        "rules_active": list(report.rules_active),
        "counts": {
            "errors": report.error_count,
            "warnings": report.warning_count,
            "by_rule": dict(sorted(by_rule.items())),
        },
        "findings": [finding.as_dict() for finding in report.findings],
    }
    return json.dumps(payload, indent=2)
