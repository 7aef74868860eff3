"""Tiered (multi-mode) Region Retention Monitor — a paper extension.

The paper restricts the RRM to two write modes "for implementation
simplicity" (Section IV-A). This module implements the natural extension
it leaves open: a *middle tier*. Regions whose dirty-write counter sits
between ``warm_threshold`` and ``hot_threshold`` are written with an
intermediate mode (5 SET iterations by default — 850ns latency, ~104s
retention), capturing part of the fast mode's latency benefit at a
refresh interval two orders of magnitude longer than the fast mode's.

Tier transitions:

- counter reaches ``hot_threshold``      -> region is *hot*; subsequent
  registrations mark blocks fast (3-SETs), as in the base monitor;
- counter reaches ``warm_threshold``     -> region is *warm*; subsequent
  registrations mark blocks mid (5-SETs);
- decay wrap, counter still >= hot       -> stays hot (counter halves);
- decay wrap, counter in [warm, hot)     -> hot entries *downgrade*: fast
  blocks are rewritten with the mid mode and join the mid vector;
- decay wrap, counter < warm             -> full demotion: fast and mid
  blocks are rewritten with the slow mode.

The mid tier gets its own refresh interrupt at the mid mode's retention
(minus the configured slack fraction) and its own deadline accounting;
eviction rewrites both vectors with the slow mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import RRMConfig
from repro.core.entry import RRMEntry
from repro.core.monitor import RegionRetentionMonitor
from repro.engine import Simulator
from repro.errors import ConfigError
from repro.memctrl.request import RequestType
from repro.pcm.write_modes import WriteModeTable
from repro.utils.units import s_to_ns


@dataclass(frozen=True)
class TieredRRMConfig(RRMConfig):
    """RRM configuration with a middle retention tier.

    Attributes:
        mid_n_sets: SET count of the middle tier (strictly between the
            fast and slow modes).
        warm_threshold: Dirty-write count at which a region enters the
            warm tier (defaults to half the hot threshold).
    """

    mid_n_sets: int = 5
    warm_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.fast_n_sets < self.mid_n_sets < self.slow_n_sets:
            raise ConfigError(
                f"mid mode ({self.mid_n_sets} SETs) must lie strictly "
                f"between fast ({self.fast_n_sets}) and slow ({self.slow_n_sets})"
            )
        warm = self.effective_warm_threshold
        if not 0 < warm < self.hot_threshold:
            raise ConfigError(
                f"warm_threshold {warm} must be in (0, hot_threshold)"
            )

    @property
    def effective_warm_threshold(self) -> int:
        if self.warm_threshold is not None:
            return self.warm_threshold
        return max(1, self.hot_threshold // 2)


class TieredRetentionMonitor(RegionRetentionMonitor):
    """Three-tier variant of the Region Retention Monitor."""

    def __init__(
        self,
        config: TieredRRMConfig,
        modes: WriteModeTable,
        sim: Optional[Simulator] = None,
        controller=None,
    ) -> None:
        if not isinstance(config, TieredRRMConfig):
            raise ConfigError("TieredRetentionMonitor needs a TieredRRMConfig")
        super().__init__(config, modes, sim=sim, controller=controller)
        self.config: TieredRRMConfig = config
        mid_retention = modes.mode(config.mid_n_sets).retention_s
        self.mid_refresh_slack_s = mid_retention * config.refresh_slack_fraction
        self.mid_refresh_interval_s = mid_retention - self.mid_refresh_slack_s
        self.mid_refreshes_issued = 0
        self.mid_decisions = 0
        self.downgrades = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        assert self.sim is not None
        self.sim.schedule_periodic(
            s_to_ns(self.mid_refresh_interval_s), self.on_mid_refresh_interrupt
        )

    def register_metrics(self, registry, prefix: str = "rrm") -> None:
        """Publish base monitor counters plus the mid-tier policy's own."""
        super().register_metrics(registry, prefix)
        registry.gauge(
            f"{prefix}.mid_refreshes_issued", lambda: self.mid_refreshes_issued
        )
        registry.gauge(f"{prefix}.mid_decisions", lambda: self.mid_decisions)
        registry.gauge(f"{prefix}.downgrades", lambda: self.downgrades)

    # ------------------------------------------------------------------
    # Registration: extend with the warm tier
    # ------------------------------------------------------------------
    def register_llc_write(
        self, block: int, was_dirty: bool, count: int = 1
    ) -> None:
        """Record a run of *count* LLC writes to *block*, one at a time:
        which vector a step marks depends on the counter at that step."""
        if not was_dirty and self.config.streaming_filter:
            self.stats.clean_writes_filtered += count
            return
        region = self.config.region_of_block(block)
        offset = self.config.block_offset(block)
        for _ in range(count):
            self.stats.registrations += 1
            entry = self.tags.lookup(region)
            if entry is None:
                entry, victim = self.tags.allocate(region)
                if victim is not None:
                    self._handle_eviction(victim)

            if entry.record_dirty_write(self.config.hot_threshold):
                self.stats.promotions += 1
            if entry.hot:
                entry.set_vector_bit(offset)
                entry.mid_retention_vector &= ~(1 << offset)
            elif entry.dirty_write_counter >= self.config.effective_warm_threshold:
                entry.set_mid_bit(offset)

    # ------------------------------------------------------------------
    # Mode decision: three-way
    # ------------------------------------------------------------------
    def decide_write_mode(self, block: int) -> int:
        region = self.config.region_of_block(block)
        entry = self.tags.lookup(region, touch=False)
        if entry is not None:
            offset = self.config.block_offset(block)
            if entry.vector_bit(offset):
                self.stats.fast_decisions += 1
                return self.config.fast_n_sets
            if entry.mid_bit(offset):
                self.mid_decisions += 1
                return self.config.mid_n_sets
        self.stats.slow_decisions += 1
        return self.config.slow_n_sets

    # ------------------------------------------------------------------
    # Mid-tier selective refresh
    # ------------------------------------------------------------------
    def on_mid_refresh_interrupt(self) -> None:
        """Rewrite every mid-tier block with the mid mode before the mid
        retention expires."""
        if not self.config.selective_refresh_enabled:
            return
        deadline = None
        if self.sim is not None:
            deadline = self.sim.now + s_to_ns(self.mid_refresh_slack_s)
        for entry in self.tags.entries():
            if entry.mid_retention_vector == 0:
                continue
            base_block = entry.region * self.config.blocks_per_region
            for offset in entry.mid_offsets():
                self.mid_refreshes_issued += 1
                self._queue_refresh(
                    block=base_block + offset,
                    n_sets=self.config.mid_n_sets,
                    rtype=RequestType.RRM_REFRESH,
                    deadline_ns=deadline,
                )
        # Note: _queue_refresh also counts these in the base class's
        # fast_refreshes_issued (they share the RRM_REFRESH request class);
        # mid_refreshes_issued is the per-tier counter.

    # ------------------------------------------------------------------
    # Decay: graded demotion
    # ------------------------------------------------------------------
    def on_decay_tick(self) -> None:
        self.stats.decay_ticks += 1
        if not self.config.decay_enabled:
            return
        warm_threshold = self.config.effective_warm_threshold
        for entry in list(self.tags.entries()):
            if not entry.tick_decay(self.config.decay_ticks_per_interval):
                continue
            if entry.hot:
                if entry.reevaluate_hotness(self.config.hot_threshold):
                    self.stats.renewals += 1
                elif entry.dirty_write_counter >= warm_threshold:
                    self._downgrade_to_warm(entry)
                else:
                    self._demote_fully(entry)
            elif entry.mid_retention_vector:
                if entry.dirty_write_counter >= warm_threshold:
                    entry.dirty_write_counter //= 2
                else:
                    self._demote_fully(entry)

    def _downgrade_to_warm(self, entry: RRMEntry) -> None:
        """Hot -> warm: fast blocks are rewritten with the mid mode and
        tracked in the mid vector from now on."""
        self.downgrades += 1
        base_block = entry.region * self.config.blocks_per_region
        offsets = list(entry.short_retention_offsets())
        entry.hot = False
        for offset in offsets:
            entry.set_mid_bit(offset)
            self._queue_refresh(
                block=base_block + offset,
                n_sets=self.config.mid_n_sets,
                rtype=RequestType.RRM_REFRESH,
                deadline_ns=None,
            )

    def _demote_fully(self, entry: RRMEntry) -> None:
        """Warm/hot -> cold: everything not slow is rewritten slow."""
        self.stats.demotions += 1
        base_block = entry.region * self.config.blocks_per_region
        offsets = set(entry.short_retention_offsets()) | set(entry.mid_offsets())
        entry.demote()
        entry.mid_retention_vector = 0
        for offset in sorted(offsets):
            self._queue_refresh(
                block=base_block + offset,
                n_sets=self.config.slow_n_sets,
                rtype=RequestType.RRM_SLOW_REFRESH,
                deadline_ns=None,
            )

    def _handle_eviction(self, victim: RRMEntry) -> None:
        if victim.short_retention_vector == 0 and victim.mid_retention_vector == 0:
            return
        self.stats.evictions_with_fast_blocks += 1
        if not self.config.refresh_on_eviction:
            return
        base_block = victim.region * self.config.blocks_per_region
        offsets = set(victim.short_retention_offsets()) | set(victim.mid_offsets())
        for offset in sorted(offsets):
            self._queue_refresh(
                block=base_block + offset,
                n_sets=self.config.slow_n_sets,
                rtype=RequestType.RRM_SLOW_REFRESH,
                deadline_ns=None,
            )
