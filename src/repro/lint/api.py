"""Lint engine and public entry points.

:func:`run_lint` is the programmatic face of ``repro-rrm lint``: it
discovers files, runs every registered checker, applies the baseline,
and returns a :class:`LintReport`. :func:`lint_source` lints one source
string — the unit-test surface for individual rules.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set

from repro.errors import ConfigError
from repro.lint.base import Checker, all_checkers
from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.lint.context import LintModule
from repro.lint.finding import Finding

#: Default lint roots, relative to the working directory: the package
#: sources. Tests/benchmarks host intentional rule triggers (fixtures),
#: so they are opt-in via explicit paths.
DEFAULT_ROOTS = ("src/repro",)


_RULE_ID_RE = re.compile(r"^RL(\d{3})$")


def parse_rule_selection(spec: str) -> Set[str]:
    """Expand a ``--select``/``--ignore`` spec into a set of rule ids.

    Grammar: comma-separated tokens, each either a rule id (``RL008``)
    or an inclusive range (``RL001-RL006``). Case-insensitive.

    Raises:
        ConfigError: empty spec, malformed token, or inverted range.
    """
    rules: Set[str] = set()
    for token in spec.split(","):
        token = token.strip().upper()
        if not token:
            continue
        if "-" in token:
            low_s, _, high_s = token.partition("-")
            low_m = _RULE_ID_RE.match(low_s.strip())
            high_m = _RULE_ID_RE.match(high_s.strip())
            if low_m is None or high_m is None:
                raise ConfigError(
                    f"bad rule range {token!r}: expected RLnnn-RLnnn"
                )
            low, high = int(low_m.group(1)), int(high_m.group(1))
            if low > high:
                raise ConfigError(f"inverted rule range {token!r}")
            rules.update(f"RL{n:03d}" for n in range(low, high + 1))
        else:
            if _RULE_ID_RE.match(token) is None:
                raise ConfigError(
                    f"bad rule id {token!r}: expected RLnnn (e.g. RL008)"
                )
            rules.add(token)
    if not rules:
        raise ConfigError("empty rule selection")
    return rules


def select_checkers(
    checkers: Sequence[Checker],
    select: Optional[str] = None,
    ignore: Optional[str] = None,
) -> List[Checker]:
    """Filter *checkers* by ``--select``/``--ignore`` specs.

    ``select`` keeps only the listed rules (every listed id must be
    registered); ``ignore`` then drops its rules (unknown ignored ids
    are an error too — they are typos, not wishes).
    """
    active = list(checkers)
    known = {c.rule_id for c in active}
    for spec, label in ((select, "--select"), (ignore, "--ignore")):
        if spec is None:
            continue
        wanted = parse_rule_selection(spec)
        unknown = sorted(r for r in wanted if r not in known)
        if unknown:
            raise ConfigError(
                f"{label} names unregistered rule(s): {', '.join(unknown)}"
            )
    if select is not None:
        keep = parse_rule_selection(select)
        active = [c for c in active if c.rule_id in keep]
    if ignore is not None:
        drop = parse_rule_selection(ignore)
        active = [c for c in active if c.rule_id not in drop]
    return active


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    baseline_path: Optional[str] = None
    baseline_updated: bool = False
    #: Rule ids that were active for this run (after select/ignore).
    rules_active: List[str] = field(default_factory=list)

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warning_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == "warning")

    @property
    def clean(self) -> bool:
        return not self.findings

    def exit_code(self, strict: bool = False) -> int:
        """CLI convention: 0 clean, 1 findings (errors, or anything
        under ``--strict``), usage/internal problems exit 2 upstream."""
        if self.error_count:
            return 1
        if strict and self.findings:
            return 1
        return 0

    def summary_line(self) -> str:
        parts = [
            f"{self.files_scanned} file(s) scanned",
            f"{self.error_count} error(s)",
            f"{self.warning_count} warning(s)",
        ]
        if self.baselined:
            parts.append(f"{len(self.baselined)} baselined")
        return ", ".join(parts)


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


def _parse_error_finding(relpath: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule="RL000",
        severity="error",
        path=relpath,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"file does not parse: {exc.msg}",
        hint="repro-lint analyzes ASTs; fix the syntax error first",
        context=(exc.text or "").strip(),
    )


def lint_source(
    source: str,
    relpath: str = "src/repro/sim/example.py",
    checkers: Optional[Sequence[Checker]] = None,
) -> List[Finding]:
    """Lint one in-memory source blob as if it lived at *relpath*.

    The default *relpath* places the snippet in a simulation-path
    package so every rule is active; pass another path to test package
    gating.
    """
    try:
        module = LintModule(source, relpath)
    except SyntaxError as exc:
        return [_parse_error_finding(relpath, exc)]
    active = list(checkers) if checkers is not None else all_checkers()
    findings: List[Finding] = []
    for checker in active:
        findings.extend(checker.run(module))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def run_lint(
    paths: Optional[Sequence[str]] = None,
    *,
    checkers: Optional[Sequence[Checker]] = None,
    baseline: Optional[str] = None,
    update_baseline: bool = False,
    select: Optional[str] = None,
    ignore: Optional[str] = None,
) -> LintReport:
    """Lint *paths* (default: ``src/repro``) and apply the baseline.

    Args:
        paths: Files and/or directories; directories are walked for
            ``.py`` files. Relative paths are kept relative (findings
            report them as given, with forward slashes).
        checkers: Override the registered checker set (tests).
        baseline: Baseline file path. ``None`` auto-loads
            ``.repro-lint-baseline.json`` from the working directory
            when present.
        update_baseline: Rewrite the baseline to cover all current
            findings (preserving existing justifications), then report
            zero new findings.
        select: ``--select`` spec: only run these rules
            (``"RL008,RL011"`` or ``"RL001-RL006"``).
        ignore: ``--ignore`` spec: run everything but these rules.

    Raises:
        ConfigError: A path does not exist, the baseline is malformed,
            or select/ignore names an unregistered rule (the CLI maps
            this to exit code 2).
    """
    roots = list(paths) if paths else [p for p in DEFAULT_ROOTS if os.path.isdir(p)]
    if not roots:
        raise ConfigError(
            "no lint paths: pass files/directories or run from the repo root"
        )
    files = iter_python_files(roots)

    active = list(checkers) if checkers is not None else all_checkers()
    active = select_checkers(active, select=select, ignore=ignore)
    findings: List[Finding] = []
    for filepath in files:
        relpath = os.path.relpath(filepath).replace(os.sep, "/")
        try:
            with open(filepath, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise ConfigError(f"unreadable file {filepath}: {exc}") from exc
        try:
            module = LintModule(source, relpath)
        except SyntaxError as exc:
            findings.append(_parse_error_finding(relpath, exc))
            continue
        for checker in active:
            findings.extend(checker.run(module))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    baseline_path = baseline
    if baseline_path is None and os.path.isfile(DEFAULT_BASELINE_NAME):
        baseline_path = DEFAULT_BASELINE_NAME

    report = LintReport(
        files_scanned=len(files),
        baseline_path=baseline_path,
        rules_active=sorted(c.rule_id for c in active),
    )
    previous = (
        Baseline.load(baseline_path)
        if baseline_path and os.path.isfile(baseline_path)
        else Baseline()
    )
    if update_baseline:
        target = baseline_path or DEFAULT_BASELINE_NAME
        Baseline.from_findings(findings, previous=previous).save(target)
        report.baseline_path = target
        report.baseline_updated = True
        report.baselined = findings
        return report

    fresh, absorbed = previous.partition(findings)
    report.findings = fresh
    report.baselined = absorbed
    return report
