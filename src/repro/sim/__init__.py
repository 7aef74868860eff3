"""Full-system simulation: configuration, schemes, assembly and metrics."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.config import MemoryConfig, SystemConfig
    from repro.sim.metrics import EnergyReport, SimResult, WearReport
    from repro.sim.runner import ExperimentRunner, run_workload
    from repro.sim.schemes import Scheme, all_schemes, scheme_from_name
    from repro.sim.sweeps import (
        SweepPoint,
        coverage_sweep,
        entry_size_sweep,
        hot_threshold_sweep,
        sweep_table,
    )
    from repro.sim.system import System
    from repro.sim.validation import RetentionIntegrityChecker, RetentionViolation

__all__ = [
    "SweepPoint",
    "coverage_sweep",
    "entry_size_sweep",
    "hot_threshold_sweep",
    "sweep_table",
    "RetentionIntegrityChecker",
    "RetentionViolation",
    "MemoryConfig",
    "SystemConfig",
    "Scheme",
    "scheme_from_name",
    "all_schemes",
    "SimResult",
    "WearReport",
    "EnergyReport",
    "System",
    "ExperimentRunner",
    "run_workload",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sim.config": ("MemoryConfig", "SystemConfig"),
        "repro.sim.metrics": ("EnergyReport", "SimResult", "WearReport"),
        "repro.sim.runner": ("ExperimentRunner", "run_workload"),
        "repro.sim.schemes": ("Scheme", "all_schemes", "scheme_from_name"),
        "repro.sim.sweeps": (
            "SweepPoint",
            "coverage_sweep",
            "entry_size_sweep",
            "hot_threshold_sweep",
            "sweep_table",
        ),
        "repro.sim.system": ("System",),
        "repro.sim.validation": ("RetentionIntegrityChecker", "RetentionViolation"),
    },
)
