"""Concurrency rules: RL007 lock-discipline, RL009 fork-thread-safety,
RL010 exception-safe-lock, RL011 wallclock-lease-logic.

Sweeps depend on real concurrency primitives: worker processes, the
journal's ``flock``-guarded appends, signal handlers, locks shared by
threads. These rules lint the orchestration packages (``resilience``,
``obs``, ``profiling``) for the bug classes that silently break
exactly-once results and serial/parallel bit-identity. They share the
per-module call graph and lock-context dataflow in
:mod:`repro.lint.callgraph`.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Tuple

from repro.lint.base import Checker, register
from repro.lint.callgraph import ModuleCallGraph, is_lock_expr, terminal_name
from repro.lint.checkers.determinism import WALLCLOCK_TARGETS
from repro.lint.context import ORCH_PATH_PACKAGES, LintModule
from repro.lint.finding import Finding
from repro.lint.resolve import ImportMap, dotted_parts, resolve_call_target

#: Raw shared-file mutation primitives that must only run under a lock:
#: unbuffered fd writes and in-place truncation (torn-tail repair).
RAW_WRITE_ORIGINS = frozenset({"os.write", "os.pwrite", "os.ftruncate"})

#: Thread/process constructor origins.
THREAD_ORIGINS = frozenset({"threading.Thread", "threading.Timer"})
PROCESS_ORIGINS = frozenset({"multiprocessing.Process"})

#: Words marking lease/retry/timeout *logic* — decisions that change
#: behaviour, as opposed to passive measurement.
_LEASE_VOCAB_RE = re.compile(
    r"lease|deadline|expire|expiry|timeout|stale|retry|not_before|backoff|grace",
    re.IGNORECASE,
)

#: Words marking passive measurement: recording how long something took
#: is legitimate wall-clock use even in lease-adjacent functions.
_MEASURE_VOCAB_RE = re.compile(
    r"busy|wall|elapsed|started|t0|recorded|measured|stamp|unix",
    re.IGNORECASE,
)


def _statement_of(
    node: ast.AST, parents: Dict[ast.AST, ast.AST]
) -> Optional[ast.stmt]:
    """Innermost statement containing *node*."""
    cursor: Optional[ast.AST] = node
    while cursor is not None and not isinstance(cursor, ast.stmt):
        cursor = parents.get(cursor)
    return cursor if isinstance(cursor, ast.stmt) else None


def _sibling_block(
    stmt: ast.stmt, parents: Dict[ast.AST, ast.AST]
) -> Tuple[List[ast.stmt], int]:
    """The statement list containing *stmt* and its index there."""
    parent = parents.get(stmt)
    if parent is not None:
        for field in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(parent, field, None)
            if isinstance(block, list) and stmt in block:
                return block, block.index(stmt)
    return [stmt], 0


@register
class LockDisciplineChecker(Checker):
    """RL007: shared-file mutation primitives only under a lock.

    The shared journal's exactly-once guarantee rests on every
    read-decide-append cycle running inside ``with self.lock``. Raw fd
    writes (``os.write``), in-place ``truncate()`` repair, and calls to
    ``*_locked``-suffixed helpers are only correct inside a lock scope —
    directly, or in a function the dataflow proves is always entered
    with the lock held.
    """

    rule_id = "RL007"
    name = "lock-discipline"
    severity = "error"
    packages = ORCH_PATH_PACKAGES

    def check(self, module: LintModule) -> List[Finding]:
        imports = ImportMap(module.tree)
        graph = ModuleCallGraph(module.tree, imports)
        out: List[Finding] = []
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            reason = self._guarded_operation(node, imports)
            if reason is None:
                continue
            if graph.in_lock_context(node):
                continue
            self.emit(
                out,
                module,
                node,
                f"{reason} outside any lock scope",
                hint="wrap the call in `with <lock>:`, move it into a "
                "`*_locked` helper whose callers hold the lock, or append "
                "through repro.utils.persist.append_jsonl, which writes "
                "under an flock",
            )
        return out

    @staticmethod
    def _guarded_operation(
        node: ast.Call, imports: ImportMap
    ) -> Optional[str]:
        origin = resolve_call_target(node.func, imports)
        if origin in RAW_WRITE_ORIGINS:
            return f"raw shared-file write `{origin}()`"
        callee = terminal_name(node.func)
        if callee is None:
            return None
        if callee.endswith("_locked"):
            return f"call to lock-requiring helper `{callee}()`"
        if callee == "truncate" and isinstance(node.func, ast.Attribute):
            return "in-place `truncate()` of a shared file"
        return None


@register
class ForkThreadSafetyChecker(Checker):
    """RL009: keep threads and worker forks apart.

    A ``fork()`` snapshots only the calling thread; any lock another
    thread holds at fork time is copied *held forever* into the child.
    Two patterns are flagged: (a) modules that construct both threads
    and worker processes — the fork may inherit a wedged lock; and (b)
    daemon threads whose target (resolved intra-module) transitively
    takes a lock — the interpreter may kill them mid-critical-section
    at shutdown.
    """

    rule_id = "RL009"
    name = "fork-thread-safety"
    severity = "error"
    packages = ORCH_PATH_PACKAGES

    def check(self, module: LintModule) -> List[Finding]:
        imports = ImportMap(module.tree)
        graph = ModuleCallGraph(module.tree, imports)
        out: List[Finding] = []

        thread_calls: List[ast.Call] = []
        has_process = False
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call_target(node.func, imports)
            callee = terminal_name(node.func)
            if origin in THREAD_ORIGINS:
                thread_calls.append(node)
            elif origin in PROCESS_ORIGINS or (
                callee == "Process" and isinstance(node.func, ast.Attribute)
            ):
                has_process = True

        for call in thread_calls:
            if has_process:
                self.emit(
                    out,
                    module,
                    call,
                    "thread created in a module that also forks worker "
                    "processes: a fork while this thread holds state "
                    "leaves the child wedged",
                    hint="keep thread use and worker spawning in separate "
                    "modules, or spawn workers before any thread starts",
                )
                continue
            self._check_daemon_target(out, module, graph, call)
        return out

    def _check_daemon_target(
        self,
        out: List[Finding],
        module: LintModule,
        graph: ModuleCallGraph,
        call: ast.Call,
    ) -> None:
        daemon = False
        target_qual: Optional[str] = None
        for kw in call.keywords:
            if kw.arg == "daemon" and isinstance(kw.value, ast.Constant):
                daemon = bool(kw.value.value)
            elif kw.arg == "target":
                target_qual = self._resolve_target(graph, call, kw.value)
        if not daemon or target_qual is None:
            return
        for info in graph.transitive_callees(target_qual):
            if info.takes_lock:
                self.emit(
                    out,
                    module,
                    call,
                    f"daemon thread target `{target_qual}` takes a lock "
                    f"(via `{info.qualname}`): daemon threads die "
                    "mid-critical-section at interpreter shutdown",
                    hint="use a non-daemon thread joined on shutdown, or "
                    "keep daemon threads lock-free",
                    severity="warning",
                )
                return

    @staticmethod
    def _resolve_target(
        graph: ModuleCallGraph, call: ast.Call, value: ast.AST
    ) -> Optional[str]:
        if isinstance(value, ast.Name):
            return value.id if value.id in graph.functions else None
        parts = dotted_parts(value)
        if parts is None or len(parts) != 2 or parts[0] not in ("self", "cls"):
            return None
        owner = graph.owner_of(call)
        if owner is None or "." not in owner.qualname:
            return None
        cls = owner.qualname.split(".")[0]
        qual = f"{cls}.{parts[1]}"
        return qual if qual in graph.functions else None


@register
class ExceptionSafeLockChecker(Checker):
    """RL010: a bare ``.acquire()`` must have a guaranteed release.

    A lock acquired outside ``with`` and outside a ``try``/``finally``
    that releases it stays held when the critical section raises — the
    worker wedges, the lease expires, and the healer re-runs work that
    may be half-applied. ``with lock:`` is the sanctioned form.
    """

    rule_id = "RL010"
    name = "exception-safe-lock"
    severity = "error"
    packages = ORCH_PATH_PACKAGES

    #: Functions allowed to call ``.acquire()`` bare: lock wrappers.
    _EXEMPT_FUNC_RE = re.compile(r"^(__enter__|__exit__|acquire|release|_acquire.*|_release.*)$")

    def check(self, module: LintModule) -> List[Finding]:
        imports = ImportMap(module.tree)
        graph = ModuleCallGraph(module.tree, imports)
        parents = module.parent_map()
        out: List[Finding] = []
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "acquire"
                and is_lock_expr(func.value, imports)
            ):
                continue
            owner = graph.owner_of(node)
            if owner is not None and self._EXEMPT_FUNC_RE.match(
                owner.qualname.rsplit(".", 1)[-1]
            ):
                continue
            if self._released_in_finally(node, parents):
                continue
            self.emit(
                out,
                module,
                node,
                "lock `.acquire()` without a guaranteed release: an "
                "exception in the critical section leaves the lock held",
                hint="use `with <lock>:`, or `acquire()` immediately "
                "followed by `try: ... finally: <lock>.release()`",
            )
        return out

    @staticmethod
    def _released_in_finally(
        node: ast.Call, parents: Dict[ast.AST, ast.AST]
    ) -> bool:
        def releases(block: List[ast.stmt]) -> bool:
            for stmt in block:
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "release"
                    ):
                        return True
            return False

        # Inside a try whose finally releases.
        cursor: Optional[ast.AST] = node
        while cursor is not None:
            parent = parents.get(cursor)
            if isinstance(parent, ast.Try) and cursor in parent.body:
                if releases(parent.finalbody):
                    return True
            cursor = parent
        # `lock.acquire()` statement immediately followed by try/finally.
        stmt = _statement_of(node, parents)
        if stmt is not None:
            block, index = _sibling_block(stmt, parents)
            if index + 1 < len(block):
                nxt = block[index + 1]
                if isinstance(nxt, ast.Try) and releases(nxt.finalbody):
                    return True
        return False


@register
class WallclockLeaseChecker(Checker):
    """RL011: lease/retry/timeout logic must use an injected clock.

    RL001 keeps wall clocks off the simulation path; this rule extends
    the idea to orchestration *decisions*. Lease expiry, retry backoff
    and supervision deadlines computed from a direct ``time.time()`` /
    ``time.monotonic()`` call cannot be unit-tested without sleeping and
    cannot be replayed; an injected ``clock=`` callable (the pattern of
    ``repro.resilience.supervisor.run_jobs`` and ``RunProgress``) can. Passive
    measurement (``elapsed``, ``busy_s``, ``wall_s``, ``recorded_*``)
    is exempt.
    """

    rule_id = "RL011"
    name = "wallclock-lease-logic"
    severity = "error"
    packages = ORCH_PATH_PACKAGES

    def check(self, module: LintModule) -> List[Finding]:
        imports = ImportMap(module.tree)
        graph = ModuleCallGraph(module.tree, imports)
        parents = module.parent_map()
        vocab_cache: Dict[str, bool] = {}
        out: List[Finding] = []
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, imports)
            if target not in WALLCLOCK_TARGETS:
                continue
            owner = graph.owner_of(node)
            if owner is None:
                continue  # module-level constants are not lease logic
            if not self._has_lease_vocab(owner.qualname, owner.node, vocab_cache):
                continue
            if self._is_measurement(node, parents):
                continue
            self.emit(
                out,
                module,
                node,
                f"direct `{target}()` in lease/timeout logic "
                f"(`{owner.qualname}`)",
                hint="inject the clock (e.g. a `clock=time.monotonic` "
                "parameter, as in repro.resilience.supervisor.run_jobs) so "
                "expiry logic is testable without sleeping",
            )
        return out

    @staticmethod
    def _has_lease_vocab(
        qualname: str, func: ast.AST, cache: Dict[str, bool]
    ) -> bool:
        if qualname not in cache:
            words: List[str] = []
            for sub in ast.walk(func):
                if isinstance(sub, ast.Name):
                    words.append(sub.id)
                elif isinstance(sub, ast.Attribute):
                    words.append(sub.attr)
                elif isinstance(sub, ast.arg):
                    words.append(sub.arg)
                elif isinstance(sub, ast.keyword) and sub.arg:
                    words.append(sub.arg)
            cache[qualname] = any(_LEASE_VOCAB_RE.search(w) for w in words)
        return cache[qualname]

    @staticmethod
    def _is_measurement(
        node: ast.Call, parents: Dict[ast.AST, ast.AST]
    ) -> bool:
        """True when the enclosing statement stores the reading under a
        measurement name (``elapsed_s = ...``, ``busy_s += ...``,
        ``FailedRun(..., elapsed_s=...)``)."""
        stmt = _statement_of(node, parents)
        if stmt is None:
            return False
        names: List[str] = []
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.append(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.append(sub.attr)
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.keyword) and sub.arg:
                names.append(sub.arg)
        return any(_MEASURE_VOCAB_RE.search(name) for name in names)
