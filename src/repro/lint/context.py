"""Per-file analysis context shared by all checkers.

One :class:`LintModule` is built per source file: its parsed AST, source
lines, the ``repro`` sub-package it belongs to, and the parsed
suppression pragmas. Checkers receive the module and ask it questions;
they never re-read the file.

Pragma grammar (comments; the rule list is case-insensitive)::

    x = wallclock()    # repro-lint: disable=RL001 -- host time, report only
    y = foo() + bar()  # repro-lint: disable=RL003,RL004 -- <reason>
    # repro-lint: disable-file=RL005 -- <reason>

Every pragma names its reason after `` -- ``; a pragma without one
suppresses nothing, so the finding it meant to excuse still fails
``--strict``. ``disable=`` applies to findings on any line spanned by
the flagged statement (so a pragma on the closing paren of a
multi-line call works). ``disable-file=`` anywhere in the file
disables the listed rules for the whole file. ``disable=all`` disables
every rule.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple, Union

#: ``repro`` sub-packages that form the simulation path: code here runs
#: under the discrete-event clock and must be bit-deterministic. The
#: orchestration (``resilience``), observability (``telemetry``),
#: reporting (``analysis``) and input-generation (``workloads``) layers
#: legitimately touch the host environment.
SIM_PATH_PACKAGES = frozenset(
    {"engine", "pcm", "memctrl", "cache", "core", "cpu", "sim", "attribution"}
)

#: ``repro`` sub-packages that form the orchestration path: code here
#: runs the sweep loop's coordinator and worker processes and writes
#: checkpoint journals and run ledgers, so it must persist atomically,
#: fail loudly and take its deadlines from an injected clock — the
#: orchestration rules RL008, RL011 and RL012 target exactly these
#: layers.
ORCH_PATH_PACKAGES = frozenset({"resilience", "obs", "profiling"})

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint\s*:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+?)"
    r"\s*--\s*\S"
)


def parse_pragmas(
    lines: List[str],
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract suppression pragmas that give a reason from *lines*.

    Returns ``(per_line, per_file)`` where ``per_line`` maps 1-based
    line numbers to the set of disabled rule ids (upper-cased; the
    token ``ALL`` disables everything) and ``per_file`` is the set of
    file-wide disabled rules.
    """
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if "repro-lint" not in line:
            continue
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        rules = {
            token.strip().upper()
            for token in match.group(2).split(",")
            if token.strip()
        }
        if match.group(1) == "disable-file":
            per_file |= rules
        else:
            per_line.setdefault(lineno, set()).update(rules)
    return per_line, per_file


class LintModule:
    """One parsed source file plus everything checkers ask about it."""

    def __init__(self, source: str, relpath: str) -> None:
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        #: Raises SyntaxError upward; api.run_lint turns that into RL000.
        self.tree = ast.parse(source, filename=self.relpath)
        self._line_pragmas, self._file_pragmas = parse_pragmas(self.lines)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    # ------------------------------------------------------------------
    @property
    def package(self) -> str:
        """The ``repro`` sub-package this file belongs to (`""` for
        top-level modules like ``cli.py``, or files outside ``repro``)."""
        parts = self.relpath.split("/")
        try:
            index = parts.index("repro")
        except ValueError:
            return ""
        subpath = parts[index + 1 : -1]
        return subpath[0] if subpath else ""

    @property
    def in_sim_path(self) -> bool:
        return self.package in SIM_PATH_PACKAGES

    @property
    def in_orch_path(self) -> bool:
        return self.package in ORCH_PATH_PACKAGES

    # ------------------------------------------------------------------
    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_disabled(self, rule: str, node: ast.AST) -> bool:
        """True when a pragma suppresses *rule* at *node*'s location."""
        rule = rule.upper()
        if rule in self._file_pragmas or "ALL" in self._file_pragmas:
            return True
        start = getattr(node, "lineno", None)
        if start is None:
            return False
        end = getattr(node, "end_lineno", None) or start
        for lineno in range(start, end + 1):
            disabled = self._line_pragmas.get(lineno)
            if disabled and (rule in disabled or "ALL" in disabled):
                return True
        return False

    # ------------------------------------------------------------------
    def walk(self):
        return ast.walk(self.tree)

    def parent_map(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent map for checkers that need enclosing context."""
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[child] = parent
        return self._parents

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[Tuple[str, ast.AST]]:
        """``(qualname, def)`` of the outermost ``def`` holding *node*
        (or *node* itself), None at module level.

        Nested functions belong to their outermost def; a method's
        qualname is ``Class.method``, named after the innermost class
        around that def.
        """
        parents = self.parent_map()
        func: Union[ast.FunctionDef, ast.AsyncFunctionDef, None] = None
        cls: Optional[str] = None
        cursor: Optional[ast.AST] = node
        while cursor is not None:
            if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func, cls = cursor, None
            elif isinstance(cursor, ast.ClassDef) and func is not None and cls is None:
                cls = cursor.name
            cursor = parents.get(cursor)
        if func is None:
            return None
        return (f"{cls}.{func.name}" if cls else func.name), func
