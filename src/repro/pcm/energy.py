"""Per-operation energy accounting (drives the paper's Figure 10).

Energy is tracked in *normalised write-energy units*: one unit is the
energy of a single 7-SETs block write, matching the paper's Table I
normalisation. The model splits totals into demand writes, demand reads,
RRM selective refreshes, and global refreshes, so reports can show the
same stacked breakdown as Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigError
from repro.pcm.write_modes import WriteModeTable

#: Energy of one block read in normalised write-energy units. PCM reads
#: are roughly an order of magnitude cheaper than writes.
DEFAULT_READ_ENERGY_UNITS = 0.05


@dataclass
class EnergyBreakdown:
    """Accumulated energy, split by source, in normalised units."""

    write_energy: float = 0.0
    read_energy: float = 0.0
    rrm_refresh_energy: float = 0.0
    global_refresh_energy: float = 0.0

    @property
    def refresh_energy(self) -> float:
        """Energy of all refresh activity (RRM selective + global)."""
        return self.rrm_refresh_energy + self.global_refresh_energy

    @property
    def total(self) -> float:
        return self.write_energy + self.read_energy + self.refresh_energy

    def as_dict(self) -> Dict[str, float]:
        """Breakdown as a plain dict (for reports and JSON export)."""
        return {
            "write": self.write_energy,
            "read": self.read_energy,
            "rrm_refresh": self.rrm_refresh_energy,
            "global_refresh": self.global_refresh_energy,
            "total": self.total,
        }


@dataclass
class EnergyModel:
    """Accumulates energy per operation class.

    The caller reports each demand write / read / refresh as it completes;
    global refreshes are reported in bulk (they are accounted analytically,
    as in the paper — see DESIGN.md substitution 4).
    """

    modes: WriteModeTable = field(default_factory=WriteModeTable)
    read_energy_units: float = DEFAULT_READ_ENERGY_UNITS
    breakdown: EnergyBreakdown = field(default_factory=EnergyBreakdown)

    def __post_init__(self) -> None:
        if self.read_energy_units < 0:
            raise ConfigError("read energy must be non-negative")

    def record_write(self, n_sets: int, count: int = 1) -> None:
        """Account *count* demand block writes using *n_sets* SETs."""
        self._check_count(count)
        self.breakdown.write_energy += self.modes.mode(n_sets).normalized_energy * count

    def record_read(self, count: int = 1) -> None:
        """Account *count* demand block reads."""
        self._check_count(count)
        self.breakdown.read_energy += self.read_energy_units * count

    def record_rrm_refresh(self, n_sets: int, count: int = 1) -> None:
        """Account *count* RRM selective refresh writes."""
        self._check_count(count)
        energy = self.modes.mode(n_sets).normalized_energy * count
        self.breakdown.rrm_refresh_energy += energy

    def record_global_refresh(self, n_sets: int, count: int) -> None:
        """Account *count* global (self-refresh circuit) block rewrites."""
        self._check_count(count)
        energy = self.modes.mode(n_sets).normalized_energy * count
        self.breakdown.global_refresh_energy += energy

    @staticmethod
    def _check_count(count: int) -> None:
        if count < 0:
            raise ValueError(f"negative operation count: {count}")

    def register_metrics(self, registry, prefix: str = "pcm.energy") -> None:
        """Publish the energy breakdown into a telemetry registry."""
        for field_name in (
            "write_energy",
            "read_energy",
            "rrm_refresh_energy",
            "global_refresh_energy",
        ):
            registry.gauge(
                f"{prefix}.{field_name}",
                lambda f=field_name: getattr(self.breakdown, f),
            )
        registry.derived(f"{prefix}.total", lambda: self.breakdown.total)
