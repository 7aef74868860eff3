"""Per-file analysis context shared by all checkers.

One :class:`LintModule` is built per source file: its parsed AST, source
lines, the ``repro`` sub-package it belongs to, and the parsed
suppression pragmas. Checkers receive the module and ask it questions;
they never re-read the file.

Pragma grammar (comments only, read from the tokenizer's comment
tokens, so pragma text inside a string, such as these examples,
suppresses nothing; the rule list is case-insensitive)::

    x = wallclock()    # repro-lint: disable=RL001 -- host time, report only
    y = foo() + bar()  # repro-lint: disable=RL001,RL004 -- <reason>

Every pragma names its reason after `` -- ``; a pragma without one
suppresses nothing, so the finding it meant to excuse still fails the
run. A pragma applies to findings on any line spanned by the flagged
statement (so a pragma on the closing paren of a multi-line call
works). There is no file-wide or all-rules form: each excused finding
names its rule next to its code.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
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

_LINE_END_RE = re.compile(r"\r\n?|\n")

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint\s*:\s*disable\s*=\s*([A-Za-z0-9_,\s]+?)\s*--\s*\S"
)


def parse_pragmas(lines: List[str]) -> Dict[int, Set[str]]:
    """Map 1-based line numbers of the source *lines* to the rule ids
    (upper-cased) their reasoned suppression pragmas disable."""
    per_line: Dict[int, Set[str]] = {}
    readline = io.StringIO("\n".join(lines) + "\n").readline
    for token in tokenize.generate_tokens(readline):
        if token.type != tokenize.COMMENT or "repro-lint" not in token.string:
            continue
        match = _PRAGMA_RE.search(token.string)
        if match is None:
            continue
        per_line.setdefault(token.start[0], set()).update(
            rule.strip().upper()
            for rule in match.group(1).split(",")
            if rule.strip()
        )
    return per_line


class LintModule:
    """One parsed source file plus everything checkers ask about it."""

    def __init__(self, source: str, relpath: str) -> None:
        self.relpath = relpath.replace("\\", "/")
        #: Split only where Python ends a line, so that a form feed or
        #: another character ``str.splitlines`` breaks on keeps the
        #: numbering of the AST and the tokenizer.
        self.lines = _LINE_END_RE.split(source)
        #: Raises SyntaxError upward; api.run_lint turns that into RL000.
        self.tree = ast.parse(source, filename=self.relpath)
        self._pragmas = parse_pragmas(self.lines)
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

    # ------------------------------------------------------------------
    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_disabled(self, rule: str, node: ast.AST) -> bool:
        """True when a pragma suppresses *rule* at *node*'s location."""
        start = getattr(node, "lineno", None)
        if start is None:
            return False
        end = getattr(node, "end_lineno", None) or start
        return any(
            rule in self._pragmas.get(lineno, ())
            for lineno in range(start, end + 1)
        )

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
