"""Deterministic fault injection for sweeps on worker processes.

A :class:`FaultPlan` decides, per (job, attempt), whether the worker
should misbehave and how. Faults fire inside the worker process, so from
the coordinator's point of view they are indistinguishable from real
infrastructure failures — which is exactly what makes them useful both in
tests and in operational drills (``repro-rrm sweep --inject-faults ...``).

Spec grammar (one spec per fault)::

    KIND:TARGET[:MAX_FIRES]

    KIND       crash | hang | error | corrupt
    TARGET     job index into the sweep's job list (``1``), or
               ``workload/scheme`` (``GemsFDTD/RRM``, scheme name in any
               form ``scheme_from_name`` accepts)
    MAX_FIRES  fire only on the first N attempts (default: every attempt)

``crash:1`` makes job #1 die on every attempt (the job fails permanently
after retries are exhausted); ``crash:1:1`` kills only the first attempt,
so the retry succeeds.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

FAULT_KINDS = ("crash", "hang", "error", "corrupt")

#: How long an injected hang sleeps; effectively forever next to any
#: realistic job timeout, but bounded so an unsupervised worker still ends.
HANG_SLEEP_S = 3600.0


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what happens, to which job, on which attempts."""

    kind: str
    #: Raw target string: an index (``"1"``) or ``"workload/scheme"``.
    target: str
    #: Fire on attempts 1..max_fires only; ``None`` means every attempt.
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigError("fault max_fires must be >= 1")

    @classmethod
    def parse(cls, spec: str) -> "FaultSpec":
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(
                f"bad fault spec {spec!r}; expected KIND:TARGET[:MAX_FIRES]"
            )
        max_fires = None
        if len(parts) == 3:
            try:
                max_fires = int(parts[2])
            except ValueError:
                raise ConfigError(
                    f"bad fault spec {spec!r}: MAX_FIRES must be an integer"
                ) from None
        return cls(kind=parts[0].strip().lower(), target=parts[1].strip(),
                   max_fires=max_fires)


class FaultPlan:
    """A set of fault specs bound to a concrete job list.

    Index targets are resolved against the job-key order passed to
    :meth:`bind` (the sweep runner binds the sweep's job list before
    launching), so ``crash:1`` always hits the same (workload, scheme)
    pair for a given sweep definition.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self._by_key: "dict[Tuple, List[FaultSpec]]" = {}
        self._bound = False

    @classmethod
    def parse(cls, specs: Iterable[str]) -> "FaultPlan":
        return cls(FaultSpec.parse(s) for s in specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    # ------------------------------------------------------------------
    def bind(self, keys: Sequence[Tuple]) -> "FaultPlan":
        """Resolve every spec target against *keys* (ordered job keys).

        Keys are ``(workload, scheme_name)`` tuples. Raises
        :class:`ConfigError` for a target that matches no job, so a typo'd
        drill fails loudly instead of silently injecting nothing.
        """
        self._by_key = {}
        for spec in self.specs:
            key = self._resolve(spec.target, keys)
            self._by_key.setdefault(key, []).append(spec)
        self._bound = True
        return self

    @staticmethod
    def _resolve(target: str, keys: Sequence[Tuple]) -> Tuple:
        if "/" in target:
            workload, _, scheme_name = target.partition("/")
            from repro.sim.schemes import scheme_from_name

            scheme = scheme_from_name(scheme_name).value
            for key in keys:
                if key == (workload, scheme):
                    return key
            raise ConfigError(
                f"fault target {target!r} matches no job in this sweep"
            )
        try:
            index = int(target)
        except ValueError:
            raise ConfigError(
                f"bad fault target {target!r}; expected an index or "
                "workload/scheme"
            ) from None
        if not 0 <= index < len(keys):
            raise ConfigError(
                f"fault target index {index} out of range (jobs: {len(keys)})"
            )
        return keys[index]

    def fault_for(self, key: Tuple, attempt: int) -> Optional[str]:
        """The fault kind to inject for attempt *attempt* (1-based) of job
        *key*, or ``None``."""
        if not self._bound:
            raise ConfigError("FaultPlan.bind() must run before fault_for()")
        for spec in self._by_key.get(key, ()):
            if spec.max_fires is None or attempt <= spec.max_fires:
                return spec.kind
        return None


class InjectedFaultError(RuntimeError):
    """Raised inside a worker by an ``error`` fault."""


def trigger_fault(kind: str) -> None:
    """Misbehave, worker-side, *before* the job runs.

    ``corrupt`` is handled after the job by :func:`corrupt_result`.
    """
    if kind == "crash":
        # A hard exit, like a SIGKILL'd / OOM-killed worker: no exception,
        # no result, just a dead process and a closed pipe.
        os._exit(41)
    if kind == "hang":
        time.sleep(HANG_SLEEP_S)
    if kind == "error":
        raise InjectedFaultError("injected worker error")


def corrupt_result(value):
    """Mangle a job's return value the way a torn write / bad DMA would.

    A :class:`~repro.sim.metrics.SimResult` keeps its shape but gets an
    impossible IPC, which result validation must catch; any other payload
    is replaced outright.
    """
    if hasattr(value, "ipc"):
        value.ipc = float("nan")
        return value
    return "__corrupted-payload__"
