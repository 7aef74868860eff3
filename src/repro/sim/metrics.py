"""Run metrics: IPC, wear, energy and lifetime reporting.

The paper reports wear and energy per 5-second window and lifetime in
years. Under drift scaling (DESIGN.md, substitution 3) demand traffic is
measured on the real timescale while refresh traffic follows the scaled
retention clock, so rates are reconstructed separately:

- demand write rate   = demand_writes / duration
- RRM refresh rate    = rrm_refresh_writes / (duration * drift_scale)
- global refresh rate = n_blocks / real_refresh_interval

With drift_scale == 1 these reduce to the plain per-second rates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.pcm.endurance import EnduranceModel
from repro.sim.schemes import Scheme
from repro.utils.units import S_PER_YEAR


@dataclass
class WearReport:
    """Block-write rates by source, on the paper's (virtual) timescale."""

    demand_rate: float = 0.0
    rrm_fast_refresh_rate: float = 0.0
    rrm_slow_refresh_rate: float = 0.0
    global_refresh_rate: float = 0.0

    @property
    def rrm_refresh_rate(self) -> float:
        return self.rrm_fast_refresh_rate + self.rrm_slow_refresh_rate

    @property
    def refresh_rate(self) -> float:
        return self.rrm_refresh_rate + self.global_refresh_rate

    @property
    def total_rate(self) -> float:
        return self.demand_rate + self.refresh_rate

    def per_window(self, window_s: float = 5.0) -> Dict[str, float]:
        """Block writes per *window_s* virtual seconds (Figure 4/9 unit)."""
        return {
            "write": self.demand_rate * window_s,
            "rrm_refresh": self.rrm_refresh_rate * window_s,
            "global_refresh": self.global_refresh_rate * window_s,
            "total": self.total_rate * window_s,
        }


@dataclass
class EnergyReport:
    """Energy rates by source in normalised write-energy units per virtual
    second (Figure 10 reports the same split per window)."""

    write_rate: float = 0.0
    read_rate: float = 0.0
    rrm_refresh_rate: float = 0.0
    global_refresh_rate: float = 0.0

    @property
    def refresh_rate(self) -> float:
        return self.rrm_refresh_rate + self.global_refresh_rate

    @property
    def total_rate(self) -> float:
        return self.write_rate + self.read_rate + self.refresh_rate

    def per_window(self, window_s: float = 5.0) -> Dict[str, float]:
        return {
            "write": self.write_rate * window_s,
            "read": self.read_rate * window_s,
            "rrm_refresh": self.rrm_refresh_rate * window_s,
            "global_refresh": self.global_refresh_rate * window_s,
            "total": self.total_rate * window_s,
        }


@dataclass
class SimResult:
    """Everything a run produces, ready for analysis and reporting."""

    scheme: Scheme
    workload: str
    duration_s: float
    drift_scale: float
    n_blocks: int

    ipc: float = 0.0
    per_core_ipc: list = field(default_factory=list)
    instructions: int = 0

    reads: int = 0
    writes: int = 0
    fast_writes: int = 0
    slow_writes: int = 0
    rrm_fast_refreshes: int = 0
    rrm_slow_refreshes: int = 0
    retention_violations: int = 0
    avg_read_latency_ns: float = 0.0
    avg_write_latency_ns: float = 0.0
    row_hit_rate: float = 0.0

    wear: WearReport = field(default_factory=WearReport)
    energy: EnergyReport = field(default_factory=EnergyReport)
    lifetime_years: float = 0.0

    rrm_stats: Optional[dict] = None
    stalls: Optional[dict] = None
    wall_time_s: float = 0.0
    #: Engine events processed by the run — a deterministic measure of
    #: simulated work. ``sim_events / wall_time_s`` is the simulator's
    #: throughput (events/s), recorded host-dependently in run-ledger
    #: entries as ``sim_events_per_sec``. Kept off :meth:`as_dict`
    #: because observers (progress ticks) legitimately change the event
    #: count without changing any simulation statistic, and the flat
    #: reporting view is the bit-identity comparison surface.
    sim_events: int = 0
    #: Latency-anatomy summary (repro.attribution) when the run had
    #: attribution enabled; holds the blamed-time digest plus a flat
    #: ``ledger_metrics`` map merged into run-ledger entries. Kept off
    #: :meth:`as_dict` so attribution-on == attribution-off comparisons
    #: of simulation statistics stay meaningful.
    attribution: Optional[dict] = None
    #: Host-profile artifact (repro.profiling Profile.to_json_dict) when
    #: the run had ``TelemetryConfig(profile=True)``: the engine's
    #: dispatch count per event owner and the flat ``prof_dispatch_*``
    #: ``ledger_metrics`` map merged into run-ledger entries. Kept off
    #: :meth:`as_dict` for the same reason as ``attribution`` — the flat
    #: view is the profiling-on == profiling-off bit-identity surface.
    profile: Optional[dict] = None

    @property
    def virtual_duration_s(self) -> float:
        return self.duration_s * self.drift_scale

    @property
    def fast_write_fraction(self) -> float:
        total = self.fast_writes + self.slow_writes
        return self.fast_writes / total if total else 0.0

    def compute_lifetime(self, endurance: EnduranceModel) -> float:
        """Project lifetime (years) from the wear rates; stores and
        returns it."""
        if self.wear.total_rate <= 0:
            self.lifetime_years = float("inf")
            return self.lifetime_years
        capacity = (
            endurance.endurance_writes
            * self.n_blocks
            * endurance.wear_leveling_efficiency
        )
        self.lifetime_years = capacity / self.wear.total_rate / S_PER_YEAR
        return self.lifetime_years

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.workload:<12} {self.scheme.value:<14} "
            f"IPC={self.ipc:6.3f}  life={self.lifetime_years:7.2f}y  "
            f"fast%={100 * self.fast_write_fraction:5.1f}  "
            f"rdlat={self.avg_read_latency_ns:7.1f}ns"
        )

    def to_json_dict(self) -> dict:
        """Lossless JSON-able form; inverse of :meth:`from_json_dict`.

        Unlike :meth:`as_dict` (a flat reporting view), this round-trips
        every field so checkpoint journals can reconstruct the result.
        """
        d = dataclasses.asdict(self)
        d["scheme"] = self.scheme.value
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "SimResult":
        """Rebuild a result journaled by :meth:`to_json_dict`."""
        d = dict(d)
        d["scheme"] = Scheme(d["scheme"])
        d["wear"] = WearReport(**d["wear"])
        d["energy"] = EnergyReport(**d["energy"])
        return cls(**d)

    def as_dict(self) -> dict:
        """Flat dict for JSON export / DataFrame assembly."""
        return {
            "workload": self.workload,
            "scheme": self.scheme.value,
            "ipc": self.ipc,
            "instructions": self.instructions,
            "reads": self.reads,
            "writes": self.writes,
            "fast_writes": self.fast_writes,
            "slow_writes": self.slow_writes,
            "rrm_fast_refreshes": self.rrm_fast_refreshes,
            "rrm_slow_refreshes": self.rrm_slow_refreshes,
            "retention_violations": self.retention_violations,
            "avg_read_latency_ns": self.avg_read_latency_ns,
            "row_hit_rate": self.row_hit_rate,
            "lifetime_years": self.lifetime_years,
            "wear_demand_rate": self.wear.demand_rate,
            "wear_rrm_refresh_rate": self.wear.rrm_refresh_rate,
            "wear_global_refresh_rate": self.wear.global_refresh_rate,
            "energy_total_rate": self.energy.total_rate,
            "duration_s": self.duration_s,
            "drift_scale": self.drift_scale,
        }
