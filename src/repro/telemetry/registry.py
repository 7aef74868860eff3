"""Metric registry: the simulator's single source of stats.

Every subsystem registers its stats into one :class:`MetricRegistry`
under a dot-separated path (``memctrl.reads_completed``,
``pcm.wear.demand_writes``), and consumers read the whole system through
:meth:`~MetricRegistry.snapshot` instead of reaching into per-component
stats structs.

There is one metric kind: a *gauge*, a named zero-argument callable
pulled at snapshot time. Counts, rates and ratios all register this
way, which is how existing stats dataclasses publish without being
rewritten.

Registration is one-time wiring; snapshots are pure reads, so a registry
can be rebuilt and snapshotted without perturbing a deterministic run.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigError


class MetricRegistry:
    """The registry all subsystems publish into.

    Names are dot-separated paths; the segment before the first dot is
    the *group* (subsystem) the profiler buckets counter tracks by.
    Registering a duplicate name raises :class:`ConfigError` — two
    components publishing to one path is always a wiring bug.
    """

    def __init__(self) -> None:
        self._gauges: Dict[str, Callable[[], float]] = {}

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register *fn*, read at every snapshot, under *name*."""
        if not name or name != name.strip():
            raise ConfigError(f"bad metric name: {name!r}")
        if name in self._gauges:
            raise ConfigError(f"metric already registered: {name}")
        self._gauges[name] = fn

    def __contains__(self, name: str) -> bool:
        return name in self._gauges

    def __len__(self) -> int:
        return len(self._gauges)

    def read(self, name: str) -> float:
        """The current value of one metric."""
        fn = self._gauges.get(name)
        if fn is None:
            raise ConfigError(f"unknown metric: {name}")
        return fn()

    def names(self, prefix: str = "") -> List[str]:
        """All registered names (optionally under *prefix*), sorted."""
        return sorted(
            n for n in self._gauges
            if not prefix or n == prefix or n.startswith(prefix + ".")
        )

    def snapshot(self, prefix: str = "") -> Dict[str, float]:
        """Read every metric (optionally under *prefix*) into a flat dict.

        Pure read: gauges are pulled, nothing is mutated, so snapshots
        may be taken mid-run (the profiler does, every tick).
        """
        gauges = self._gauges
        return {name: gauges[name]() for name in self.names(prefix)}
