"""Lint engine, public entry points and reporters.

:func:`run_lint` is the programmatic face of ``repro-rrm lint``: it
discovers files, runs every checker in ``CHECKERS``, and returns a
:class:`LintReport`. :func:`lint_source` lints one source string — the
unit-test surface for individual rules. :func:`render_text` and
:func:`render_json` print a report; the JSON schema is part of the
tool's contract (CI uploads it, ``tests/test_lint.py`` pins it), so
bump ``REPORT_VERSION`` on any shape change.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigError
from repro.lint.base import Finding
from repro.lint.checkers import CHECKERS
from repro.lint.context import LintModule

REPORT_VERSION = 4

#: Default lint roots, relative to the working directory: the package
#: sources. Tests/benchmarks host intentional rule triggers (fixtures),
#: so they are opt-in via explicit paths.
DEFAULT_ROOTS = ("src/repro",)


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        """CLI convention: 0 clean, 1 any finding; usage/internal
        problems exit 2 upstream."""
        return 0 if self.clean else 1

    def summary_line(self) -> str:
        return (
            f"{self.files_scanned} file(s) scanned, "
            f"{len(self.findings)} error(s)"
        )


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            collected.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__",)
                )
                collected.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        else:
            raise ConfigError(f"lint path does not exist: {path}")
    return sorted(set(collected))


def lint_source(
    source: str, relpath: str = "src/repro/sim/example.py"
) -> List[Finding]:
    """Lint one in-memory source blob as if it lived at *relpath*.

    The default *relpath* places the snippet in a simulation-path
    package; pass another path to test package gating. A file that
    does not parse yields one ``RL000`` finding.
    """
    try:
        module = LintModule(source, relpath)
    except SyntaxError as exc:
        return [
            Finding(
                rule="RL000",
                path=relpath,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
                hint="repro-lint analyzes ASTs; fix the syntax error first",
                context=(exc.text or "").strip(),
            )
        ]
    findings: List[Finding] = []
    for checker in CHECKERS:
        findings.extend(checker().run(module))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def run_lint(paths: Optional[Sequence[str]] = None) -> LintReport:
    """Lint *paths* (default: ``src/repro``) with every rule.

    Args:
        paths: Files and/or directories; directories are walked for
            ``.py`` files. Relative paths are kept relative (findings
            report them as given, with forward slashes).

    Raises:
        ConfigError: A path does not exist or a file is unreadable (the
            CLI maps this to exit code 2).
    """
    roots = list(paths) if paths else [p for p in DEFAULT_ROOTS if os.path.isdir(p)]
    if not roots:
        raise ConfigError(
            "no lint paths: pass files/directories or run from the repo root"
        )
    files = iter_python_files(roots)
    findings: List[Finding] = []
    for filepath in files:
        relpath = os.path.relpath(filepath).replace(os.sep, "/")
        try:
            with open(filepath, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise ConfigError(f"unreadable file {filepath}: {exc}") from exc
        findings.extend(lint_source(source, relpath))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintReport(findings=findings, files_scanned=len(files))


def render_text(report: LintReport) -> str:
    """Human-readable report: one block per finding plus a summary."""
    lines = [finding.render() for finding in report.findings]
    lines.extend(["", report.summary_line()])
    return "\n".join(lines).strip("\n")


def render_json(report: LintReport) -> str:
    """Machine-readable report (stable schema, version field first)."""
    by_rule: Dict[str, int] = {}
    for finding in report.findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    payload = {
        "version": REPORT_VERSION,
        "tool": "repro-lint",
        "files_scanned": report.files_scanned,
        "rules_active": [cls.rule_id for cls in CHECKERS],
        "counts": {
            "errors": len(report.findings),
            "by_rule": dict(sorted(by_rule.items())),
        },
        "findings": [finding.as_dict() for finding in report.findings],
    }
    return json.dumps(payload, indent=2)
