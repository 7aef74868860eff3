"""Module-level call graph with lock-context dataflow.

The concurrency rules (RL007–RL012) need more than single-node pattern
matching: whether ``self._append_locked(...)`` is safe depends on who
calls it and under which lock. This module builds, per file:

* a **function table** — every ``def`` keyed by qualname (``func`` for
  module-level functions, ``Class.method`` for methods, with nested
  functions attributed to their outermost enclosing def);
* **intra-module call edges** — bare-name calls resolve to module-level
  functions, ``self.x()`` / ``cls.x()`` resolve to methods of the
  enclosing class. Anything else (imports, call results, other objects)
  is deliberately out of scope: the analysis stays per-file so findings
  are local and reviewable;
* **lock scopes** — the source spans of ``with`` items whose context
  expression is lock-like (see :func:`is_lock_expr`);
* a **holds-lock fixpoint** — a function is considered to *hold a lock
  on entry* when its name follows the ``*_locked`` convention, or when
  it has at least one intra-module caller and every one of its call
  sites sits inside a lock scope (directly or in a function that itself
  holds a lock on entry).

The dataflow is conservative in the direction that matters for a
linter: it never *assumes* a lock is held without evidence, so missing
edges produce findings (reviewed, then fixed or baselined) rather than
silent passes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.resolve import ImportMap, dotted_parts, resolve_call_target

#: Dotted origins that construct a lock object.
LOCK_CONSTRUCTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)


def terminal_name(node: ast.AST) -> Optional[str]:
    """Last segment of a ``Name``/``Attribute`` chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_lock_expr(expr: ast.AST, imports: ImportMap) -> bool:
    """Heuristic: does *expr* evaluate to a lock?

    True for names/attributes whose terminal segment mentions ``lock``
    or ``mutex`` (``self._lock``, ``journal.lock``), and for calls to a
    known lock constructor — either by dotted origin (``threading.Lock()``)
    or by a class name ending in ``Lock`` (``FileLock(path)``).
    """
    name = terminal_name(expr)
    if name is not None and ("lock" in name.lower() or "mutex" in name.lower()):
        return True
    if isinstance(expr, ast.Call):
        origin = resolve_call_target(expr.func, imports)
        if origin in LOCK_CONSTRUCTORS:
            return True
        callee = terminal_name(expr.func)
        if callee is not None and callee.endswith("Lock"):
            return True
        # ``self._lock.acquire_context()``-style helpers: recurse one level.
        return is_lock_expr(expr.func, imports)
    return False


class FunctionInfo:
    """One ``def`` in the module, with its concurrency-relevant facts."""

    def __init__(self, qualname: str, node: ast.AST) -> None:
        self.qualname = qualname
        self.node = node
        #: Line spans ``(first, last)`` of statements inside lock ``with``
        #: bodies within this function.
        self.lock_spans: List[Tuple[int, int]] = []
        #: Qualnames of intra-module functions this one calls, with the
        #: call node and whether the call site is inside a lock span.
        self.calls: List[Tuple[str, ast.Call, bool]] = []
        #: Resolved "holds a lock when entered" (fixpoint result).
        self.holds_lock_on_entry: bool = False
        #: True when the function itself enters a lock scope.
        self.takes_lock: bool = False

    def in_lock_span(self, node: ast.AST) -> bool:
        lineno = getattr(node, "lineno", None)
        if lineno is None:
            return False
        return any(first <= lineno <= last for first, last in self.lock_spans)


class ModuleCallGraph:
    """Call graph + lock-context dataflow for one parsed module."""

    def __init__(self, tree: ast.AST, imports: Optional[ImportMap] = None) -> None:
        self.imports = imports if imports is not None else ImportMap(tree)
        self.functions: Dict[str, FunctionInfo] = {}
        #: Maps every AST node to the qualname of its innermost enclosing
        #: def ("" for module level).
        self._owner: Dict[ast.AST, str] = {}
        self._collect(tree)
        self._solve()

    # -- construction ---------------------------------------------------
    def _collect(self, tree: ast.AST) -> None:
        module_funcs: Set[str] = set()
        class_methods: Dict[str, Set[str]] = {}
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module_funcs.add(node.name)
            elif isinstance(node, ast.ClassDef):
                class_methods[node.name] = {
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                }

        def visit(node: ast.AST, owner: str, cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                child_owner, child_cls = owner, cls
                if isinstance(child, ast.ClassDef) and owner == "":
                    child_cls = child.name
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if owner == "":
                        qual = f"{cls}.{child.name}" if cls else child.name
                        self.functions[qual] = FunctionInfo(qual, child)
                        child_owner = qual
                    # nested defs keep the outer function as owner
                self._owner[child] = child_owner
                visit(child, child_owner, child_cls)

        self._owner[tree] = ""
        visit(tree, "", None)

        for info in self.functions.values():
            self._scan_function(info, module_funcs, class_methods)

    def _scan_function(
        self,
        info: FunctionInfo,
        module_funcs: Set[str],
        class_methods: Dict[str, Set[str]],
    ) -> None:
        cls = info.qualname.split(".")[0] if "." in info.qualname else None
        for node in ast.walk(info.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                if any(
                    is_lock_expr(item.context_expr, self.imports)
                    for item in node.items
                ):
                    first = node.body[0].lineno if node.body else node.lineno
                    last = getattr(node, "end_lineno", None) or first
                    info.lock_spans.append((first, last))
                    info.takes_lock = True
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            target = self._resolve_intra(node, cls, module_funcs, class_methods)
            if target is None:
                continue
            info.calls.append((target, node, info.in_lock_span(node)))

    def _resolve_intra(
        self,
        call: ast.Call,
        cls: Optional[str],
        module_funcs: Set[str],
        class_methods: Dict[str, Set[str]],
    ) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in module_funcs:
                return func.id
            return None
        parts = dotted_parts(func)
        if parts is None or len(parts) != 2:
            return None
        root, attr = parts
        if root in ("self", "cls") and cls is not None:
            if attr in class_methods.get(cls, set()):
                return f"{cls}.{attr}"
        return None

    # -- dataflow -------------------------------------------------------
    def _solve(self) -> None:
        """Fixpoint for ``holds_lock_on_entry``.

        Seed: ``*_locked``-named functions hold a lock by contract.
        Iterate: a function holds a lock when it has callers and every
        call site is either inside a lock span or inside a function that
        itself holds a lock on entry (and outside any of that function's
        own spans, the inherited lock still applies).
        """
        for info in self.functions.values():
            base = info.qualname.rsplit(".", 1)[-1]
            if base.endswith("_locked"):
                info.holds_lock_on_entry = True

        callers: Dict[str, List[Tuple[FunctionInfo, bool]]] = {}
        for info in self.functions.values():
            for target, _node, in_lock in info.calls:
                callers.setdefault(target, []).append((info, in_lock))

        changed = True
        while changed:
            changed = False
            for qual, sites in callers.items():
                info = self.functions.get(qual)
                if info is None or info.holds_lock_on_entry:
                    continue
                if sites and all(
                    in_lock or caller.holds_lock_on_entry
                    for caller, in_lock in sites
                ):
                    info.holds_lock_on_entry = True
                    changed = True

    # -- queries --------------------------------------------------------
    def owner_of(self, node: ast.AST) -> Optional[FunctionInfo]:
        """The FunctionInfo whose body contains *node*, or None."""
        qual = self._owner.get(node)
        if not qual:
            return None
        return self.functions.get(qual)

    def in_lock_context(self, node: ast.AST) -> bool:
        """True when *node* executes under a lock: it sits inside a lock
        ``with`` span, or inside a function that holds a lock on entry."""
        info = self.owner_of(node)
        if info is None:
            return False
        return info.in_lock_span(node) or info.holds_lock_on_entry

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def transitive_callees(self, qualname: str) -> Iterator[FunctionInfo]:
        """Yield *qualname*'s function and every intra-module function
        reachable from it (depth-first, each once)."""
        seen: Set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.functions.get(current)
            if info is None:
                continue
            yield info
            stack.extend(target for target, _n, _l in info.calls)
