"""Durability rules: RL008 atomic-persistence, RL012 silent-swallow.

A crash mid-write must never leave a half-written result file that a
resumed sweep then trusts, and a worker that swallows an exception must
leave evidence. These rules lint the orchestration packages for both
failure modes.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional

from repro.lint.base import Checker, register
from repro.lint.callgraph import ModuleCallGraph, terminal_name
from repro.lint.context import ORCH_PATH_PACKAGES, LintModule
from repro.lint.finding import Finding
from repro.lint.resolve import ImportMap, resolve_call_target

#: Function names whose presence in the same scope marks the write as
#: part of an atomic tmp-file + rename sequence.
_ATOMIC_MARKERS = frozenset({"replace", "rename", "atomic_write_text", "save_json"})

_WRITE_MODE_RE = re.compile(r"[wax]")


def _open_mode(call: ast.Call) -> Optional[str]:
    """Literal mode string of an ``open()`` call, if statically known."""
    mode_node: Optional[ast.AST] = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode_node = kw.value
    if mode_node is None:
        return "r"
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return mode_node.value
    return None


@register
class AtomicPersistenceChecker(Checker):
    """RL008: durable artifacts are written atomically.

    A bare ``open(path, "w")`` / ``Path.write_text`` / ``json.dump``
    that dies mid-write leaves a torn file; the resumed run either
    crashes or silently computes on half a ledger. The sanctioned
    patterns are write-to-tmp + ``os.replace`` in the same function
    (what :func:`repro.utils.persist.atomic_write_text` wraps) and the
    append-only journal APIs, whose readers repair torn tails.
    """

    rule_id = "RL008"
    name = "atomic-persistence"
    severity = "error"
    packages = ORCH_PATH_PACKAGES

    def check(self, module: LintModule) -> List[Finding]:
        imports = ImportMap(module.tree)
        graph = ModuleCallGraph(module.tree, imports)
        out: List[Finding] = []
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            what = self._bare_write(node, imports)
            if what is None:
                continue
            if self._scope_is_atomic(node, graph, module, imports):
                continue
            self.emit(
                out,
                module,
                node,
                f"{what} without an atomic replace: a crash mid-write "
                "leaves a torn artifact",
                hint="write a tmp file and `os.replace` it (use "
                "repro.utils.persist.atomic_write_text / save_json), or "
                "append through a journal API with torn-tail repair",
            )
        return out

    @staticmethod
    def _bare_write(node: ast.Call, imports: ImportMap) -> Optional[str]:
        origin = resolve_call_target(node.func, imports)
        if origin == "json.dump":
            return "direct `json.dump()` to a file handle"
        callee = terminal_name(node.func)
        if callee == "write_text" and isinstance(node.func, ast.Attribute):
            return "`Path.write_text()`"
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = _open_mode(node)
            if mode is None or _WRITE_MODE_RE.search(mode):
                return f"`open(..., {mode!r})` for writing" if mode else (
                    "`open()` with a non-literal mode"
                )
        return None

    @staticmethod
    def _scope_is_atomic(
        node: ast.Call,
        graph: ModuleCallGraph,
        module: LintModule,
        imports: ImportMap,
    ) -> bool:
        owner = graph.owner_of(node)
        scope: ast.AST = owner.node if owner is not None else module.tree
        for sub in ast.walk(scope):
            if not isinstance(sub, ast.Call):
                continue
            origin = resolve_call_target(sub.func, imports)
            if origin in ("os.replace", "os.rename"):
                return True
            callee = terminal_name(sub.func)
            if callee in _ATOMIC_MARKERS:
                return True
        return False


#: Handler body elements that count as "leaving evidence".
_REPORT_CALL_RE = re.compile(
    r"log|warn|error|exception|print|emit|publish|record|failure|debug"
    r"|send|put|write|append|release",
    re.IGNORECASE,
)
_COUNTER_NAME_RE = re.compile(
    r"count|dropped|fail|error|retr|swallow|skip", re.IGNORECASE
)
_ERROR_TARGET_RE = re.compile(r"error|failure|fail", re.IGNORECASE)

_BROAD_TYPES = frozenset({"Exception", "BaseException"})


@register
class SilentSwallowChecker(Checker):
    """RL012: broad exception handlers must leave evidence.

    ``except Exception: pass`` in a worker or coordinator loop converts a
    crash into a silent hang or silently-wrong sweep. Broad handlers in
    orchestration code must raise, log, emit an event, write a failure
    record, bump a counter, or store the error — anything a post-mortem
    can find.
    """

    rule_id = "RL012"
    name = "silent-swallow"
    severity = "error"
    packages = ORCH_PATH_PACKAGES

    def check(self, module: LintModule) -> List[Finding]:
        out: List[Finding] = []
        for node in module.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._leaves_evidence(node.body):
                continue
            caught = (
                "bare `except`"
                if node.type is None
                else f"`except {ast.unparse(node.type)}`"
            )
            self.emit(
                out,
                module,
                node,
                f"{caught} swallows the exception without leaving "
                "evidence",
                hint="log it, emit an event, append a failure record, or "
                "bump a telemetry counter before continuing — or narrow "
                "the except to the exceptions you mean",
            )
        return out

    @staticmethod
    def _is_broad(type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return True
        candidates: List[ast.AST] = (
            list(type_node.elts)
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        return any(
            isinstance(c, ast.Name) and c.id in _BROAD_TYPES
            for c in candidates
        )

    @staticmethod
    def _leaves_evidence(body: List[ast.stmt]) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Raise):
                    return True
                if isinstance(sub, ast.Call):
                    callee = terminal_name(sub.func)
                    if callee and _REPORT_CALL_RE.search(callee):
                        return True
                if isinstance(sub, ast.AugAssign):
                    name = terminal_name(sub.target)
                    if name and _COUNTER_NAME_RE.search(name):
                        return True
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        name = terminal_name(target)
                        if name and _ERROR_TARGET_RE.search(name):
                            return True
        return False
