"""Comparator baselines using the same write-latency/retention trade-off.

The paper's Section III-B argues that prior schemes built on the same
trade-off do not transfer to MLC PCM main memory. The strongest of them,
Amnesic Cache (Kang et al., MSST 2015), writes everything fast first and
*promotes* frequently surviving blocks to slow writes later. This module
implements that policy at main-memory granularity so the argument can be
measured rather than asserted:

- every demand write uses the fast short-retention mode;
- blocks are tracked in an RRM-sized set-associative structure;
- at each short-retention interrupt, a tracked block that was re-written
  during the interval is refreshed fast (it is hot — rewriting it slow
  would be wasted work), while a block that was *not* re-written is
  *promoted*: rewritten once with the slow mode and dropped from
  tracking;
- evicted entries must promote all their blocks immediately (the
  tracking structure is bounded, unlike a file cache's DRAM index).

The predicted failure mode (paper Section III-B): every cold block costs
two device writes (fast write + slow promotion), so write-once and
low-locality traffic roughly doubles its wear, and the promotion writes
also consume write bandwidth.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import RRMConfig
from repro.core.entry import RRMEntry
from repro.core.monitor import RegionRetentionMonitor
from repro.engine import Simulator
from repro.memctrl.request import RequestType
from repro.pcm.write_modes import WriteModeTable
from repro.utils.units import s_to_ns


class PromotionMonitor(RegionRetentionMonitor):
    """Write-fast-first / promote-later baseline (Amnesic-style).

    Reuses the RRM's tag array, refresh dispatch and interrupt plumbing;
    only the policy differs. LLC write registrations are ignored — the
    policy learns from the memory writes themselves (its decision input
    is "was this block rewritten within the retention window", not LLC
    dirtiness).
    """

    def __init__(
        self,
        config: RRMConfig,
        modes: WriteModeTable,
        sim: Optional[Simulator] = None,
        controller=None,
    ) -> None:
        super().__init__(config, modes, sim=sim, controller=controller)
        self.promotions_issued = 0
        self.fast_refreshes = 0

    # ------------------------------------------------------------------
    def register_llc_write(
        self, block: int, was_dirty: bool, count: int = 1
    ) -> None:
        """LLC activity is irrelevant to this policy."""
        self.stats.clean_writes_filtered += count

    def decide_write_mode(self, block: int) -> int:
        """Every write is fast; the write itself starts (or renews) the
        block's tracking."""
        region = self.config.region_of_block(block)
        entry = self.tags.lookup(region)
        if entry is None:
            entry, victim = self.tags.allocate(region)
            if victim is not None:
                self._handle_eviction(victim)
        offset = self.config.block_offset(block)
        entry.set_vector_bit(offset)
        entry.touched_vector |= 1 << offset
        self.stats.fast_decisions += 1
        return self.config.fast_n_sets

    # ------------------------------------------------------------------
    def on_refresh_interrupt(self) -> None:
        """Refresh re-written blocks fast; promote idle blocks slow."""
        self.stats.refresh_interrupts += 1
        if not self.config.selective_refresh_enabled:
            return
        deadline = None
        if self.sim is not None:
            deadline = self.sim.now + s_to_ns(self.refresh_slack_s)
        for entry in list(self.tags.entries()):
            base_block = entry.region * self.config.blocks_per_region
            for offset in list(entry.short_retention_offsets()):
                block = base_block + offset
                if entry.touched_vector >> offset & 1:
                    self.fast_refreshes += 1
                    self._queue_refresh(
                        block=block,
                        n_sets=self.config.fast_n_sets,
                        rtype=RequestType.RRM_REFRESH,
                        deadline_ns=deadline,
                    )
                else:
                    self._promote(entry, offset, block)
            entry.touched_vector = 0
            if entry.short_retention_vector == 0:
                self.tags.invalidate(entry.region)

    def _promote(self, entry: RRMEntry, offset: int, block: int) -> None:
        """Rewrite an idle fast block with the slow mode and untrack it."""
        self.promotions_issued += 1
        entry.short_retention_vector &= ~(1 << offset)
        self._queue_refresh(
            block=block,
            n_sets=self.config.slow_n_sets,
            rtype=RequestType.RRM_SLOW_REFRESH,
            deadline_ns=None,
        )

    # ------------------------------------------------------------------
    def register_metrics(self, registry, prefix: str = "rrm") -> None:
        """Publish base monitor counters plus the promotion policy's own."""
        super().register_metrics(registry, prefix)
        registry.gauge(
            f"{prefix}.promotions_issued", lambda: self.promotions_issued
        )
        registry.gauge(f"{prefix}.fast_refreshes", lambda: self.fast_refreshes)

    # ------------------------------------------------------------------
    def on_decay_tick(self) -> None:
        """No decay machinery: promotion subsumes it."""
        self.stats.decay_ticks += 1

    def _handle_eviction(self, victim: RRMEntry) -> None:
        """A bounded tracker cannot forget short-retention blocks: an
        evicted entry's blocks must all be promoted immediately."""
        if victim.short_retention_vector == 0:
            return
        self.stats.evictions_with_fast_blocks += 1
        base_block = victim.region * self.config.blocks_per_region
        for offset in victim.short_retention_offsets():
            self.promotions_issued += 1
            self._queue_refresh(
                block=base_block + offset,
                n_sets=self.config.slow_n_sets,
                rtype=RequestType.RRM_SLOW_REFRESH,
                deadline_ns=None,
            )
