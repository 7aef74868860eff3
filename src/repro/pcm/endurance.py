"""Wear tracking and the PCM lifetime model.

PCM cells endure a limited number of RESET pulses (5e6 in the paper's
configuration); every write — demand, RRM selective refresh, or global
refresh — begins with a RESET and therefore wears its block by one. SET
iterations do not meaningfully wear the cell (Kim & Ahn, IRPS 2005), so
all write modes cost the same endurance.

Lifetime follows the paper's assumptions: an effective wear-levelling
scheme (e.g. Start-Gap) spreads wear across the device at 95% of the ideal
uniform distribution, so

    lifetime_seconds = endurance * n_blocks * efficiency / write_rate

with ``write_rate`` the total block-writes per second including refreshes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigError
from repro.utils.units import S_PER_YEAR

#: Cell endurance in RESET cycles (paper Table V).
DEFAULT_ENDURANCE_WRITES = 5_000_000
#: Fraction of ideal uniform-wear lifetime achieved by the assumed
#: wear-levelling scheme (paper Table V, "Misc").
DEFAULT_WEAR_LEVELING_EFFICIENCY = 0.95


@dataclass
class WearBreakdown:
    """Block-write counts by source over a simulated window."""

    demand_writes: int = 0
    rrm_refresh_writes: int = 0
    global_refresh_writes: int = 0

    @property
    def refresh_writes(self) -> int:
        return self.rrm_refresh_writes + self.global_refresh_writes

    @property
    def total(self) -> int:
        return self.demand_writes + self.refresh_writes

    def as_dict(self) -> Dict[str, int]:
        return {
            "demand": self.demand_writes,
            "rrm_refresh": self.rrm_refresh_writes,
            "global_refresh": self.global_refresh_writes,
            "total": self.total,
        }


@dataclass
class WearTracker:
    """Tracks per-block wear for demand traffic and refreshes.

    Per-block counts are kept sparsely (a Counter over touched blocks);
    global refreshes touch every block uniformly, so they are tracked as a
    single scalar rather than materialising billions of entries.
    """

    track_per_block: bool = True
    breakdown: WearBreakdown = field(default_factory=WearBreakdown)
    per_block: Counter = field(default_factory=Counter)
    #: Uniform per-block wear applied to *all* blocks (global refreshes).
    uniform_wear: float = 0.0

    def record_demand_write(self, block: int) -> None:
        """One demand write to *block* (a block index)."""
        self.breakdown.demand_writes += 1
        if self.track_per_block:
            self.per_block[block] += 1

    def record_rrm_refresh(self, block: int) -> None:
        """One RRM selective-refresh write to *block*."""
        self.breakdown.rrm_refresh_writes += 1
        if self.track_per_block:
            self.per_block[block] += 1

    def record_global_refresh_round(self, n_blocks: int, rounds: float = 1.0) -> None:
        """Account *rounds* global refresh sweeps over *n_blocks* blocks."""
        if n_blocks <= 0:
            raise ConfigError(f"n_blocks must be positive, got {n_blocks}")
        if rounds < 0:
            raise ValueError(f"negative refresh rounds: {rounds}")
        self.breakdown.global_refresh_writes += int(round(n_blocks * rounds))
        self.uniform_wear += rounds

    def max_block_wear(self) -> float:
        """Highest wear of any single block (demand+RRM plus uniform)."""
        hottest = max(self.per_block.values()) if self.per_block else 0
        return hottest + self.uniform_wear

    def register_metrics(self, registry, prefix: str = "pcm.wear") -> None:
        """Publish wear counters into a telemetry registry."""
        registry.gauge(
            f"{prefix}.demand_writes", lambda: self.breakdown.demand_writes
        )
        registry.gauge(
            f"{prefix}.rrm_refresh_writes",
            lambda: self.breakdown.rrm_refresh_writes,
        )
        registry.gauge(
            f"{prefix}.global_refresh_writes",
            lambda: self.breakdown.global_refresh_writes,
        )
        registry.gauge(f"{prefix}.uniform_wear", lambda: self.uniform_wear)
        registry.gauge(f"{prefix}.tracked_blocks", lambda: len(self.per_block))
        registry.gauge(f"{prefix}.total_writes", lambda: self.breakdown.total)


@dataclass(frozen=True)
class EnduranceModel:
    """Computes device lifetime from observed wear rates.

    Attributes:
        endurance_writes: RESET cycles a cell survives.
        wear_leveling_efficiency: Fraction of the ideal uniform-wear
            lifetime the wear-levelling scheme achieves.
    """

    endurance_writes: int = DEFAULT_ENDURANCE_WRITES
    wear_leveling_efficiency: float = DEFAULT_WEAR_LEVELING_EFFICIENCY

    def __post_init__(self) -> None:
        if self.endurance_writes <= 0:
            raise ConfigError("endurance must be positive")
        if not 0 < self.wear_leveling_efficiency <= 1:
            raise ConfigError("wear-levelling efficiency must be in (0, 1]")

    def lifetime_seconds(
        self,
        total_block_writes: float,
        window_seconds: float,
        n_blocks: int,
    ) -> float:
        """Projected device lifetime in seconds.

        Args:
            total_block_writes: All block writes (demand + refresh)
                observed during the measurement window.
            window_seconds: Length of the measurement window (virtual
                seconds, i.e. already corrected for any drift scaling).
            n_blocks: Number of blocks in the device.
        """
        if window_seconds <= 0:
            raise ConfigError("measurement window must be positive")
        if n_blocks <= 0:
            raise ConfigError("n_blocks must be positive")
        if total_block_writes < 0:
            raise ValueError("negative write count")
        if total_block_writes == 0:
            return float("inf")
        write_rate = total_block_writes / window_seconds
        capacity = self.endurance_writes * n_blocks * self.wear_leveling_efficiency
        return capacity / write_rate

    def lifetime_years(
        self,
        total_block_writes: float,
        window_seconds: float,
        n_blocks: int,
    ) -> float:
        """Projected lifetime in years (the paper's reporting unit)."""
        seconds = self.lifetime_seconds(total_block_writes, window_seconds, n_blocks)
        return seconds / S_PER_YEAR

    def lifetime_years_from_wear(
        self,
        wear: WearBreakdown,
        window_seconds: float,
        n_blocks: int,
        extra_writes: float = 0.0,
    ) -> float:
        """Lifetime from a :class:`WearBreakdown` plus optional analytic
        *extra_writes* not included in the breakdown."""
        total = wear.total + extra_writes
        return self.lifetime_years(total, window_seconds, n_blocks)
