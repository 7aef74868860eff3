"""System configuration (paper Tables IV and V).

Two stock configurations are provided:

- :meth:`SystemConfig.paper` — the paper's full-scale setup: 4 cores at
  2GHz, 8GB of MLC PCM over 4 channels x 16 banks, 5 simulated seconds,
  real drift constants. Feasible event counts make this a smoke-test
  configuration in pure Python; it exists so the scaled runs have an
  explicit anchor.
- :meth:`SystemConfig.scaled` — the default experiment configuration: the
  memory system width, CPU frequency, footprints and drift timescale are
  all shrunk together so that per-bank contention, refresh-interval counts
  and decay-window counts per run match the paper's (see DESIGN.md,
  substitution 3), at ~1000x fewer events.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.config import RRMConfig
from repro.cpu.core_model import CoreParams
from repro.errors import ConfigError
from repro.pcm.device import BLOCK_BYTES
from repro.utils.mathx import is_power_of_two
from repro.utils.units import parse_size


@dataclass(frozen=True)
class MemoryConfig:
    """MLC PCM memory system parameters (paper Table V)."""

    size_bytes: int = parse_size("8GB")
    n_channels: int = 4
    banks_per_channel: int = 16
    row_buffer_bytes: int = 1024
    refresh_queue_capacity: int = 64
    read_queue_capacity: int = 32
    write_queue_capacity: int = 64
    endurance_writes: int = 5_000_000
    wear_leveling_efficiency: float = 0.95
    allow_write_pausing: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.size_bytes % BLOCK_BYTES:
            raise ConfigError("memory size must be a positive multiple of 64B")
        if not is_power_of_two(self.n_channels):
            raise ConfigError("channel count must be a power of two")
        if not is_power_of_two(self.banks_per_channel):
            raise ConfigError("bank count must be a power of two")
        for cap in (
            self.refresh_queue_capacity,
            self.read_queue_capacity,
            self.write_queue_capacity,
        ):
            if cap <= 0:
                raise ConfigError("queue capacities must be positive")

    @property
    def n_blocks(self) -> int:
        return self.size_bytes // BLOCK_BYTES


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build and run one simulated system."""

    memory: MemoryConfig = field(default_factory=MemoryConfig)
    cores: CoreParams = field(default_factory=CoreParams)
    n_cores: int = 4
    rrm: RRMConfig = field(default_factory=RRMConfig)
    #: Nominal LLC capacity — the RRM coverage-rate anchor (paper: 6MB).
    llc_bytes: int = parse_size("6MB")
    #: Drift acceleration (1.0 = real constants). Retention times, refresh
    #: intervals and decay periods all shrink by this factor; the lifetime
    #: model converts refresh rates back to the real timescale.
    drift_scale: float = 1.0
    #: Simulated duration in (drift-scaled) seconds.
    duration_s: float = 5.0
    #: Workload footprint scale relative to the profiles' nominal region
    #: counts (1.0 = nominal).
    footprint_scale: float = 1.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ConfigError("n_cores must be positive")
        if self.drift_scale <= 0:
            raise ConfigError("drift_scale must be positive")
        if self.duration_s <= 0:
            raise ConfigError("duration must be positive")
        if self.footprint_scale <= 0:
            raise ConfigError("footprint_scale must be positive")
        if self.llc_bytes <= 0:
            raise ConfigError("llc_bytes must be positive")

    @property
    def virtual_duration_s(self) -> float:
        """Duration on the paper's (unscaled) timescale."""
        return self.duration_s * self.drift_scale

    # ------------------------------------------------------------------
    # Stock configurations
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, seed: int = 1) -> "SystemConfig":
        """The full-scale configuration of paper Tables IV/V."""
        return cls(seed=seed)

    @classmethod
    def scaled(
        cls,
        seed: int = 1,
        duration_s: Optional[float] = None,
        drift_scale: float = 50.0,
    ) -> "SystemConfig":
        """The default experiment configuration (~1000x fewer events).

        Held at paper values: refresh intervals per run and decay windows
        per run (drift scale and duration shrink together), and each
        workload's tier proportions (footprints shrink by 1/16 as a whole).

        Not held, measured on GemsFDTD Static-7 against ``paper()``:
        - per-bank load: 1.63M requests per bank per second here against
          1.23M at paper width;
        - core clock per bank: 2x (4 x 0.125 GHz over 2 banks against
          4 x 2 GHz over 64);
        - queue slots per bank: 8x (the paper's 32/64-entry queues behind
          2 banks instead of 16);
        - per-block write rate: 12.2x lower (0.0171 against 0.208
          writes/block/s), which is what sets the lifetime estimate.

        Deriving this preset from ``paper()`` by one rule that holds
        these is ROADMAP item 5.
        """
        if duration_s is None:
            duration_s = 5.0 / drift_scale
        return cls(
            memory=MemoryConfig(
                size_bytes=parse_size("4GB"),
                n_channels=1,
                banks_per_channel=2,
                read_queue_capacity=32,
                write_queue_capacity=64,
                refresh_queue_capacity=64,
            ),
            cores=CoreParams(freq_ghz=0.125, base_cpi=0.5, mlp=16),
            n_cores=4,
            # RRM scaled with the notional LLC: 16 sets x 24 ways x 4KB =
            # 1.5MB coverage = 4x a 384KB LLC. The refresh slack is 10% of
            # the fast retention (paper: 0.5%) because the narrow scaled
            # memory drains each refresh burst more slowly (DESIGN.md).
            rrm=RRMConfig(n_sets=16, n_ways=24, refresh_slack_fraction=0.10),
            llc_bytes=parse_size("384KB"),
            drift_scale=drift_scale,
            duration_s=duration_s,
            # Footprints shrink with the memory-system width so the RRM's
            # refresh bursts cost the same bandwidth share as at paper
            # scale (hot-set size and bank count scale together).
            footprint_scale=1.0 / 16.0,
            seed=seed,
        )

    @classmethod
    def tiny(cls, seed: int = 1) -> "SystemConfig":
        """A minimal configuration for unit/integration tests."""
        return cls(
            memory=MemoryConfig(
                size_bytes=parse_size("256MB"),
                n_channels=1,
                banks_per_channel=2,
                read_queue_capacity=8,
                write_queue_capacity=16,
                refresh_queue_capacity=16,
            ),
            cores=CoreParams(freq_ghz=0.125, base_cpi=0.5, mlp=8),
            n_cores=2,
            # 128KB LLC keeps coverage-rate variants at power-of-two set
            # counts (sets = 4 x rate with 8 ways of 4KB regions).
            rrm=RRMConfig(n_sets=4, n_ways=8, refresh_slack_fraction=0.10),
            llc_bytes=parse_size("128KB"),
            drift_scale=200.0,
            duration_s=0.02,
            footprint_scale=1.0 / 32.0,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def with_rrm(self, rrm: RRMConfig) -> "SystemConfig":
        return replace(self, rrm=rrm)

    def with_seed(self, seed: int) -> "SystemConfig":
        return replace(self, seed=seed)

    def with_duration(self, duration_s: float) -> "SystemConfig":
        return replace(self, duration_s=duration_s)
