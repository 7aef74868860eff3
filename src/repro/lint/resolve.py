"""Lightweight import-aware name resolution.

The wall-clock and persistence checkers need to know that ``t.monotonic()`` is really
``time.monotonic()`` and that ``from time import perf_counter as pc;
pc()`` is ``time.perf_counter()``. :class:`ImportMap` records a file's
import aliases; :func:`resolve_call_target` turns a ``Name`` /
``Attribute`` chain into a dotted origin string, or ``None`` when the
root is a local object (``self._clock()`` resolves to ``None`` —
exactly right, since an injected clock is the sanctioned pattern).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional


class ImportMap:
    """Local name -> dotted origin, built from one module's imports."""

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else local
                    self.aliases[local] = origin
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    continue  # relative imports stay package-local
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def origin(self, local_name: str) -> Optional[str]:
        return self.aliases.get(local_name)


def terminal_name(node: ast.AST) -> Optional[str]:
    """Last segment of a ``Name``/``Attribute`` chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` attribute chain as ``["a", "b", "c"]``, else None."""
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    parts.reverse()
    return parts


def resolve_call_target(
    func: ast.AST, imports: ImportMap
) -> Optional[str]:
    """Dotted origin of a call's callee, e.g. ``numpy.random.rand``.

    Returns None when the callee's root is not an imported module-level
    name (locals, ``self`` attributes, call results).
    """
    parts = dotted_parts(func)
    if parts is None:
        return None
    origin = imports.origin(parts[0])
    if origin is None:
        return None
    return ".".join([origin] + parts[1:])
