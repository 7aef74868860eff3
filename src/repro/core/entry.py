"""RRM entry: the per-region record (paper Section IV-C).

Each entry tracks one aligned *Retention Region* (4KB by default) with:

- ``valid`` (1 bit) and the region address tag;
- ``hot`` (1 bit) — set once ``dirty_write_counter`` reaches
  ``hot_threshold``;
- ``dirty_write_counter`` — counts LLC writes to *dirty* LLC lines in the
  region (clean writes are ignored to filter streaming patterns);
- ``short_retention_vector`` — one bit per block; a set bit means the
  block's next memory write (and its refreshes) use the fast 3-SETs mode;
- ``decay_counter`` — a small cyclic counter driving demotion of regions
  that stop being hot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import SimulationError


@dataclass
class RRMEntry:
    """One Retention Region record inside the RRM."""

    region: int
    blocks_per_region: int
    valid: bool = True
    hot: bool = False
    dirty_write_counter: int = 0
    #: Bitmask over the region's blocks; bit i set => block i is currently
    #: written with the fast short-retention mode.
    short_retention_vector: int = 0
    #: Bitmask for the optional middle tier (tiered/multi-mode RRM only;
    #: always zero under the paper's two-mode monitor).
    mid_retention_vector: int = 0
    #: Scratch bitmask for policies that track per-interval activity
    #: (e.g. the promotion baseline's "written this interval" bits).
    touched_vector: int = 0
    decay_counter: int = 0
    #: LRU timestamp maintained by the tag array.
    last_use: int = 0

    def vector_bit(self, offset: int) -> bool:
        """Whether block *offset* within the region is short-retention."""
        self._check_offset(offset)
        return bool(self.short_retention_vector >> offset & 1)

    def set_vector_bit(self, offset: int) -> None:
        """Mark block *offset* as short-retention."""
        self._check_offset(offset)
        self.short_retention_vector |= 1 << offset

    def clear_vector(self) -> None:
        """Reset every block to the default long-retention mode."""
        self.short_retention_vector = 0

    def short_retention_offsets(self) -> Iterator[int]:
        """Offsets of all short-retention blocks, ascending."""
        vector = self.short_retention_vector
        offset = 0
        while vector:
            if vector & 1:
                yield offset
            vector >>= 1
            offset += 1

    @property
    def short_retention_count(self) -> int:
        """Number of short-retention blocks in the region."""
        return bin(self.short_retention_vector).count("1")

    def record_dirty_write(self, hot_threshold: int) -> bool:
        """Apply one dirty-LLC-write registration.

        Increments the counter while below *hot_threshold*; promotes the
        entry to hot exactly when the counter reaches the threshold.
        Returns True if this call promoted the entry.
        """
        promoted = False
        if self.dirty_write_counter < hot_threshold:
            self.dirty_write_counter += 1
            if self.dirty_write_counter == hot_threshold and not self.hot:
                self.hot = True
                promoted = True
        return promoted

    def tick_decay(self, ticks_per_interval: int) -> bool:
        """Advance the cyclic decay counter; True when it wraps to zero
        (the moment hotness is re-evaluated)."""
        self.decay_counter = (self.decay_counter + 1) % ticks_per_interval
        return self.decay_counter == 0

    def reevaluate_hotness(self, hot_threshold: int) -> bool:
        """Decay-wrap policy (paper Section IV-G).

        Returns True if the entry *stays hot* (counter still saturated; it
        is halved to demand renewed activity next interval). Returns False
        if the entry must be demoted — the caller then clears ``hot``,
        rewrites the short-retention blocks slowly and clears the vector.
        """
        if not self.hot:
            raise SimulationError("reevaluate_hotness on a cold entry")
        if self.dirty_write_counter >= hot_threshold:
            self.dirty_write_counter //= 2
            return True
        return False

    def demote(self) -> int:
        """Demote to cold; returns the short-retention vector that must be
        rewritten with the slow mode (the caller issues the refreshes)."""
        vector = self.short_retention_vector
        self.hot = False
        self.clear_vector()
        return vector

    # ------------------------------------------------------------------
    # Middle-tier helpers (tiered multi-mode RRM extension)
    # ------------------------------------------------------------------
    def mid_bit(self, offset: int) -> bool:
        """Whether block *offset* is in the middle retention tier."""
        self._check_offset(offset)
        return bool(self.mid_retention_vector >> offset & 1)

    def set_mid_bit(self, offset: int) -> None:
        """Move block *offset* into the middle tier (clearing fast)."""
        self._check_offset(offset)
        self.mid_retention_vector |= 1 << offset
        self.short_retention_vector &= ~(1 << offset)

    def mid_offsets(self) -> Iterator[int]:
        """Offsets of all middle-tier blocks, ascending."""
        vector = self.mid_retention_vector
        offset = 0
        while vector:
            if vector & 1:
                yield offset
            vector >>= 1
            offset += 1

    def _check_offset(self, offset: int) -> None:
        if not 0 <= offset < self.blocks_per_region:
            raise SimulationError(
                f"block offset {offset} out of range for "
                f"{self.blocks_per_region}-block region"
            )
