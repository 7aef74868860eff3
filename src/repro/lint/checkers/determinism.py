"""Determinism rules: RL001 no-wallclock, RL002 seeded-rng, RL011
wallclock-lease-logic.

The paper's trade-off curves (Figs. 7-13) are reproduced by replaying
identical event streams; any wall-clock read or global-RNG draw on the
simulation path makes two runs with the same seed diverge. RL001 and
RL002 make that class of bug un-mergeable instead of un-debuggable;
RL011 keeps the sweep loop's deadlines and backoff on an injected
clock, so they replay in tests without sleeping.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List

from repro.lint.base import Checker, register
from repro.lint.context import ORCH_PATH_PACKAGES, SIM_PATH_PACKAGES, LintModule
from repro.lint.finding import Finding
from repro.lint.resolve import ImportMap, resolve_call_target

#: Callables that read the host clock. ``perf_counter`` is included on
#: purpose: even "just measuring" on the sim path invites feeding host
#: time into simulated state.
WALLCLOCK_TARGETS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

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

#: The module-level convenience API of :mod:`random` — every call draws
#: from (or reseeds) the hidden global generator. ``random.Random`` /
#: ``random.SystemRandom`` construction is deliberately absent: an
#: injected seeded instance is the sanctioned pattern.
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: numpy's legacy global-state RNG surface (``np.random.<fn>``).
NUMPY_GLOBAL_FUNCS = frozenset(
    {
        "choice",
        "exponential",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "seed",
        "shuffle",
        "uniform",
    }
)


@register
class WallClockChecker(Checker):
    """RL001: no wall-clock reads in simulation-path packages.

    Simulated time is ``Simulator.now`` and nothing else. Host-time
    measurement belongs in the orchestration/telemetry layers (which
    this rule does not scan); the rare legitimate sim-path use — e.g.
    reporting host elapsed time alongside results — carries an inline
    pragma stating why.
    """

    rule_id = "RL001"
    name = "no-wallclock"
    severity = "error"
    packages = SIM_PATH_PACKAGES

    def check(self, module: LintModule) -> List[Finding]:
        imports = ImportMap(module.tree)
        out: List[Finding] = []
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, imports)
            if target in WALLCLOCK_TARGETS:
                self.emit(
                    out,
                    module,
                    node,
                    f"wall-clock read `{target}()` on the simulation path",
                    hint="use Simulator.now (simulated ns); host-time "
                    "measurement belongs in telemetry/resilience, or "
                    "justify with `# repro-lint: disable=RL001 -- <reason>`",
                )
        return out


@register
class SeededRngChecker(Checker):
    """RL002: randomness must come from an injected seeded generator.

    The module-level ``random.*`` / ``numpy.random.*`` APIs share hidden
    global state: import order, test order, or a library reseeding it
    changes every downstream draw. Components instead accept a seed and
    own a ``random.Random`` instance (see workloads/cpu/cache for the
    pattern).
    """

    rule_id = "RL002"
    name = "seeded-rng"
    severity = "error"
    packages = None  # global RNG state is poison everywhere

    def check(self, module: LintModule) -> List[Finding]:
        imports = ImportMap(module.tree)
        out: List[Finding] = []
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, imports)
            if target is None:
                continue
            if (
                target.startswith("random.")
                and target.split(".", 1)[1] in GLOBAL_RANDOM_FUNCS
            ):
                self.emit(
                    out,
                    module,
                    node,
                    f"module-level `{target}()` draws from the global RNG",
                    hint="thread a seeded `random.Random(seed)` instance "
                    "through the constructor instead",
                )
            elif target.startswith("numpy.random."):
                func = target.rsplit(".", 1)[1]
                if func in NUMPY_GLOBAL_FUNCS:
                    self.emit(
                        out,
                        module,
                        node,
                        f"global numpy RNG call `{target}()`",
                        hint="use `numpy.random.default_rng(seed)` held by "
                        "the component",
                    )
                elif func == "default_rng" and not node.args and not node.keywords:
                    self.emit(
                        out,
                        module,
                        node,
                        "`numpy.random.default_rng()` without a seed is "
                        "entropy-seeded",
                        hint="pass an explicit seed derived from the run "
                        "configuration",
                    )
        return out


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
        vocab_cache: Dict[ast.AST, bool] = {}
        out: List[Finding] = []
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, imports)
            if target not in WALLCLOCK_TARGETS:
                continue
            owner = module.enclosing_function(node)
            if owner is None:
                continue  # module-level constants are not lease logic
            qualname, func = owner
            if not self._has_lease_vocab(func, vocab_cache):
                continue
            if self._is_measurement(node, module.parent_map()):
                continue
            self.emit(
                out,
                module,
                node,
                f"direct `{target}()` in lease/timeout logic "
                f"(`{qualname}`)",
                hint="inject the clock (e.g. a `clock=time.monotonic` "
                "parameter, as in repro.resilience.supervisor.run_jobs) so "
                "expiry logic is testable without sleeping",
            )
        return out

    @staticmethod
    def _has_lease_vocab(func: ast.AST, cache: Dict[ast.AST, bool]) -> bool:
        if func not in cache:
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
            cache[func] = any(_LEASE_VOCAB_RE.search(w) for w in words)
        return cache[func]

    @staticmethod
    def _is_measurement(
        node: ast.Call, parents: Dict[ast.AST, ast.AST]
    ) -> bool:
        """True when the enclosing statement stores the reading under a
        measurement name (``elapsed_s = ...``, ``busy_s += ...``,
        ``FailedRun(..., elapsed_s=...)``)."""
        cursor: ast.AST = node
        while not isinstance(cursor, ast.stmt):
            cursor = parents[cursor]
        stmt = cursor
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
