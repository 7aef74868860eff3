"""repro — Region Retention Monitor for MLC PCM.

A from-scratch Python reproduction of "Balancing Performance and Lifetime
of MLC PCM by Using a Region Retention Monitor" (HPCA 2017): the RRM
structure itself plus every substrate it depends on — an MLC PCM device
model with resistance drift, a memory controller with prioritised queues
and write pausing, a cache hierarchy, a trace-driven multi-core CPU model
and synthetic SPEC2006-like workloads.

Quickstart::

    from repro import SystemConfig, Scheme, run_workload

    config = SystemConfig.scaled()
    result = run_workload(config, "GemsFDTD", Scheme.RRM)
    print(result.summary())
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core import RegionRetentionMonitor, RRMConfig
    from repro.pcm import DriftModel, DriftParameters, WriteMode, WriteModeTable
    from repro.resilience import FailedRun, FaultPlan, ResultJournal, RetryPolicy
    from repro.sim import (
        ExperimentRunner,
        MemoryConfig,
        Scheme,
        SimResult,
        System,
        SystemConfig,
        run_workload,
    )
    from repro.telemetry import (
        MetricRegistry,
        Profiler,
        Telemetry,
        TelemetryConfig,
        Tracer,
    )
    from repro.workloads import BENCHMARKS, MIXES, get_benchmark

__version__ = "1.8.0"

__all__ = [
    "RRMConfig",
    "RegionRetentionMonitor",
    "DriftModel",
    "DriftParameters",
    "WriteMode",
    "WriteModeTable",
    "ExperimentRunner",
    "FailedRun",
    "FaultPlan",
    "MemoryConfig",
    "MetricRegistry",
    "Profiler",
    "ResultJournal",
    "RetryPolicy",
    "Scheme",
    "SimResult",
    "System",
    "SystemConfig",
    "Telemetry",
    "TelemetryConfig",
    "Tracer",
    "run_workload",
    "BENCHMARKS",
    "MIXES",
    "get_benchmark",
    "__version__",
]

# Each name resolves through its subpackage, so ``import repro`` loads no
# subpackage until one of its names is used.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core": ("RegionRetentionMonitor", "RRMConfig"),
        "repro.pcm": ("DriftModel", "DriftParameters", "WriteMode", "WriteModeTable"),
        "repro.resilience": ("FailedRun", "FaultPlan", "ResultJournal", "RetryPolicy"),
        "repro.sim": (
            "ExperimentRunner",
            "MemoryConfig",
            "Scheme",
            "SimResult",
            "System",
            "SystemConfig",
            "run_workload",
        ),
        "repro.telemetry": (
            "MetricRegistry",
            "Profiler",
            "Telemetry",
            "TelemetryConfig",
            "Tracer",
        ),
        "repro.workloads": ("BENCHMARKS", "MIXES", "get_benchmark"),
    },
)
