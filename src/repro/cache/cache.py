"""Generic write-back, write-allocate set-associative cache.

The cache operates on 64-byte block indices (byte address >> 6). An access
returns what happened (hit/miss), which block was written back (if a dirty
victim was evicted), and — for writes — whether the written line was
already dirty, which is exactly the information the RRM's LLC Write
Registration needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.errors import ConfigError
from repro.pcm.device import BLOCK_BYTES
from repro.utils.mathx import is_power_of_two
from repro.utils.units import parse_size


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache level."""

    size_bytes: int
    n_ways: int
    hit_latency_cycles: int = 1
    policy: str = "lru"
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.size_bytes % BLOCK_BYTES:
            raise ConfigError(f"{self.name}: size must be a positive multiple of 64B")
        if self.n_ways <= 0:
            raise ConfigError(f"{self.name}: ways must be positive")
        if self.size_bytes % (self.n_ways * BLOCK_BYTES):
            raise ConfigError(f"{self.name}: size not divisible into {self.n_ways} ways")
        if not is_power_of_two(self.n_sets):
            raise ConfigError(
                f"{self.name}: set count {self.n_sets} is not a power of two"
            )
        if self.hit_latency_cycles < 0:
            raise ConfigError(f"{self.name}: negative hit latency")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.n_ways * BLOCK_BYTES)

    @classmethod
    def parse(cls, size: "str | int", n_ways: int, **kwargs) -> "CacheConfig":
        """Build from a human-readable size, e.g. ``CacheConfig.parse("6MB", 24)``."""
        return cls(size_bytes=parse_size(size), n_ways=n_ways, **kwargs)


@dataclass
class CacheStats:
    """Hit/miss/writeback counters for one cache."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    writebacks: int = 0
    #: Writes that landed on an already-dirty line (RRM registration input).
    dirty_write_hits: int = 0

    @property
    def accesses(self) -> int:
        return self.read_hits + self.read_misses + self.write_hits + self.write_misses

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def register_metrics(self, registry, prefix: str) -> None:
        """Publish this cache's counters into a telemetry registry."""
        for field_name in (
            "read_hits",
            "read_misses",
            "write_hits",
            "write_misses",
            "writebacks",
            "dirty_write_hits",
        ):
            registry.gauge(
                f"{prefix}.{field_name}",
                lambda f=field_name: getattr(self, f),
            )
        registry.gauge(f"{prefix}.miss_rate", lambda: self.miss_rate)


@dataclass
class AccessResult:
    """Outcome of one cache access.

    Attributes:
        hit: Whether the block was present.
        writeback_block: Block index written back to the next level (a
            dirty victim), or None.
        was_dirty: For writes that hit (or write-allocated lines being
            rewritten), whether the line was dirty *before* this write.
        latency_cycles: Hit latency of this level (the caller accumulates
            across levels).
    """

    hit: bool
    writeback_block: Optional[int] = None
    was_dirty: bool = False
    latency_cycles: int = 0


class _Line:
    __slots__ = ("block", "dirty")

    def __init__(self, block: int, dirty: bool) -> None:
        self.block = block
        self.dirty = dirty


class Cache:
    """One cache level over block indices."""

    def __init__(self, config: CacheConfig, seed: int = 0) -> None:
        self.config = config
        self.stats = CacheStats()
        self._sets: List[Dict[int, int]] = [dict() for _ in range(config.n_sets)]
        self._lines: List[List[Optional[_Line]]] = [
            [None] * config.n_ways for _ in range(config.n_sets)
        ]
        self._policies: List[ReplacementPolicy] = [
            make_policy(config.policy, config.n_ways, seed=seed + i)
            for i in range(config.n_sets)
        ]

    def _set_index(self, block: int) -> int:
        return block & (self.config.n_sets - 1)

    def contains(self, block: int) -> bool:
        """Presence check without touching replacement state."""
        return block in self._sets[self._set_index(block)]

    def is_dirty(self, block: int) -> bool:
        """Whether *block* is present and dirty."""
        set_index = self._set_index(block)
        way = self._sets[set_index].get(block)
        if way is None:
            return False
        line = self._lines[set_index][way]
        return line is not None and line.dirty

    def access(self, block: int, is_write: bool) -> AccessResult:
        """Perform a read or write access to *block*.

        Misses allocate (write-allocate); dirty victims surface as
        ``writeback_block`` for the caller to push to the next level.
        """
        set_index = self._set_index(block)
        bucket = self._sets[set_index]
        policy = self._policies[set_index]

        way = bucket.get(block)
        if way is not None:
            line = self._lines[set_index][way]
            assert line is not None
            policy.touch(way)
            was_dirty = line.dirty
            if is_write:
                self.stats.write_hits += 1
                if was_dirty:
                    self.stats.dirty_write_hits += 1
                line.dirty = True
            else:
                self.stats.read_hits += 1
            return AccessResult(
                hit=True,
                was_dirty=was_dirty,
                latency_cycles=self.config.hit_latency_cycles,
            )

        # Miss: allocate, possibly evicting a dirty victim.
        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1

        writeback = self._allocate(set_index, block, dirty=is_write)
        return AccessResult(
            hit=False,
            writeback_block=writeback,
            was_dirty=False,
            latency_cycles=self.config.hit_latency_cycles,
        )

    def fill(self, block: int, dirty: bool = False) -> Optional[int]:
        """Insert *block* (e.g. a writeback arriving from an upper level).

        Returns the dirty victim's block index, if one was evicted. Filling
        a present block merges state (dirty is sticky).
        """
        set_index = self._set_index(block)
        way = self._sets[set_index].get(block)
        if way is not None:
            line = self._lines[set_index][way]
            assert line is not None
            self._policies[set_index].touch(way)
            line.dirty = line.dirty or dirty
            return None
        return self._allocate(set_index, block, dirty=dirty)

    def write_into(self, block: int) -> AccessResult:
        """A dirty writeback from the level above lands in this cache.

        This is the "LLC write" of the paper when applied to the last
        level: the result's ``was_dirty`` says whether the written line was
        already dirty (the streaming filter input), and ``hit`` whether the
        line was present at all.
        """
        set_index = self._set_index(block)
        way = self._sets[set_index].get(block)
        if way is not None:
            line = self._lines[set_index][way]
            assert line is not None
            self._policies[set_index].touch(way)
            was_dirty = line.dirty
            line.dirty = True
            self.stats.write_hits += 1
            if was_dirty:
                self.stats.dirty_write_hits += 1
            return AccessResult(
                hit=True, was_dirty=was_dirty,
                latency_cycles=self.config.hit_latency_cycles,
            )
        self.stats.write_misses += 1
        writeback = self._allocate(set_index, block, dirty=True)
        return AccessResult(
            hit=False, writeback_block=writeback, was_dirty=False,
            latency_cycles=self.config.hit_latency_cycles,
        )

    def invalidate(self, block: int) -> bool:
        """Drop *block* if present. Returns True if it was dirty (the
        caller is responsible for the writeback)."""
        set_index = self._set_index(block)
        way = self._sets[set_index].pop(block, None)
        if way is None:
            return False
        line = self._lines[set_index][way]
        self._lines[set_index][way] = None
        self._policies[set_index].reset(way)
        return line is not None and line.dirty

    def dirty_blocks(self) -> List[int]:
        """All dirty blocks currently resident (for drain/flush)."""
        result = []
        for ways in self._lines:
            for line in ways:
                if line is not None and line.dirty:
                    result.append(line.block)
        return result

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    def register_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Publish stats plus live occupancy into a telemetry registry."""
        prefix = prefix or f"cache.{self.config.name}"
        self.stats.register_metrics(registry, prefix)
        registry.gauge(f"{prefix}.occupancy", lambda: self.occupancy)

    def _allocate(self, set_index: int, block: int, dirty: bool) -> Optional[int]:
        bucket = self._sets[set_index]
        lines = self._lines[set_index]
        policy = self._policies[set_index]

        # Prefer a free way.
        way = next((w for w in range(self.config.n_ways) if lines[w] is None), None)
        writeback = None
        if way is None:
            way = policy.victim([line is not None for line in lines])
            victim = lines[way]
            assert victim is not None
            del bucket[victim.block]
            if victim.dirty:
                writeback = victim.block
                self.stats.writebacks += 1

        lines[way] = _Line(block, dirty)
        bucket[block] = way
        policy.touch(way)
        return writeback
