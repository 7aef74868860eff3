"""Set-associative tag array of the RRM with LRU replacement.

The paper manages the RRM "just like a low-level cache": address tags in a
tag array, per-region state in a retention-information array, LRU eviction
within a set. We keep both arrays in one :class:`RRMEntry` per way since
Python gains nothing from splitting the storage.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.config import RRMConfig
from repro.core.entry import RRMEntry
from repro.errors import SimulationError


class RRMTagArray:
    """Fixed-geometry set-associative array of :class:`RRMEntry`."""

    def __init__(self, config: RRMConfig) -> None:
        self.config = config
        #: Per-set map of region -> entry. Dict preserves O(1) lookup; the
        #: LRU order lives in the entries' ``last_use`` stamps.
        self._sets: List[Dict[int, RRMEntry]] = [dict() for _ in range(config.n_sets)]
        #: ``config.set_index`` as a mask (n_sets is a power of two), off
        #: the per-registration lookup's call path.
        self._set_mask = config.n_sets - 1
        self._use_clock = 0
        self.lookups = 0
        self.hits = 0
        self.evictions = 0
        self.allocations = 0

    def lookup(self, region: int, touch: bool = True) -> Optional[RRMEntry]:
        """Find the entry for *region*; updates LRU recency when *touch*."""
        self.lookups += 1
        entry = self._sets[region & self._set_mask].get(region)
        if entry is not None:
            self.hits += 1
            if touch:
                self._use_clock += 1
                entry.last_use = self._use_clock
        return entry

    def allocate(self, region: int) -> Tuple[RRMEntry, Optional[RRMEntry]]:
        """Allocate an entry for *region*.

        Returns ``(new_entry, victim)`` where *victim* is the LRU entry
        evicted to make room (None if a free way existed). Allocating a
        region that is already present is a protocol error — callers must
        lookup first.
        """
        set_index = region & self._set_mask
        bucket = self._sets[set_index]
        if region in bucket:
            raise SimulationError(f"region {region} already present in set {set_index}")

        victim = None
        if len(bucket) >= self.config.n_ways:
            victim_region = min(bucket, key=lambda r: bucket[r].last_use)
            victim = bucket.pop(victim_region)
            victim.valid = False
            self.evictions += 1

        self._use_clock += 1
        entry = RRMEntry(
            region=region,
            blocks_per_region=self.config.blocks_per_region,
            last_use=self._use_clock,
        )
        bucket[region] = entry
        self.allocations += 1
        return entry, victim

    def invalidate(self, region: int) -> Optional[RRMEntry]:
        """Remove and return the entry for *region*, if present."""
        entry = self._sets[region & self._set_mask].pop(region, None)
        if entry is not None:
            entry.valid = False
        return entry

    def entries(self) -> Iterator[RRMEntry]:
        """All valid entries (iteration order: set-major, insertion order)."""
        for bucket in self._sets:
            yield from bucket.values()

    def hot_entries(self) -> Iterator[RRMEntry]:
        """All valid entries currently marked hot."""
        return (entry for entry in self.entries() if entry.hot)

    @property
    def occupancy(self) -> int:
        """Number of valid entries."""
        return sum(len(bucket) for bucket in self._sets)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def set_occupancy(self, set_index: int) -> int:
        """Valid entries in one set (for contention diagnostics)."""
        return len(self._sets[set_index])

    def register_metrics(self, registry, prefix: str = "rrm.tags") -> None:
        """Publish tag-array activity counters into *registry*."""
        registry.gauge(f"{prefix}.lookups", lambda: self.lookups)
        registry.gauge(f"{prefix}.hits", lambda: self.hits)
        registry.gauge(f"{prefix}.evictions", lambda: self.evictions)
        registry.gauge(f"{prefix}.allocations", lambda: self.allocations)
        registry.gauge(f"{prefix}.occupancy", lambda: self.occupancy)
        registry.gauge(f"{prefix}.hit_rate", lambda: self.hit_rate)
