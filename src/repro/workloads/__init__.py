"""Synthetic workload generators.

SPEC2006 binaries and traces are not redistributable, so each benchmark is
replaced by a statistical generator calibrated to the paper's published
characteristics: LLC MPKI (Table VII) and region-level write locality
(Table III). See DESIGN.md, substitution 1.

Generators emit *LLC-level* event streams — memory reads (LLC misses),
memory writes (LLC dirty writebacks) and LLC write registrations — that
feed the CPU model directly. The :mod:`repro.workloads.cpu_trace` module
additionally provides instruction-level streams for runs through the full
cache hierarchy.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.cpu_trace import CpuAccessGenerator, CpuTraceProfile
    from repro.workloads.events import (
        EV_READ,
        EV_REGISTER,
        EV_WRITE,
        WorkloadEvent,
        event_kind_name,
    )
    from repro.workloads.mixes import MIXES, mix_profiles, workload_profiles
    from repro.workloads.spec2006 import (
        BENCHMARKS,
        BenchmarkProfile,
        benchmark_names,
        get_benchmark,
    )
    from repro.workloads.synthetic import RegionProfile, RegionTrafficGenerator
    from repro.workloads.trace import TraceReader, TraceRecord, TraceWriter

__all__ = [
    "EV_READ",
    "EV_REGISTER",
    "EV_WRITE",
    "WorkloadEvent",
    "event_kind_name",
    "RegionProfile",
    "RegionTrafficGenerator",
    "BENCHMARKS",
    "BenchmarkProfile",
    "benchmark_names",
    "get_benchmark",
    "MIXES",
    "mix_profiles",
    "workload_profiles",
    "TraceReader",
    "TraceRecord",
    "TraceWriter",
    "CpuAccessGenerator",
    "CpuTraceProfile",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workloads.cpu_trace": ("CpuAccessGenerator", "CpuTraceProfile"),
        "repro.workloads.events": (
            "EV_READ",
            "EV_REGISTER",
            "EV_WRITE",
            "WorkloadEvent",
            "event_kind_name",
        ),
        "repro.workloads.mixes": ("MIXES", "mix_profiles", "workload_profiles"),
        "repro.workloads.spec2006": (
            "BENCHMARKS",
            "BenchmarkProfile",
            "benchmark_names",
            "get_benchmark",
        ),
        "repro.workloads.synthetic": ("RegionProfile", "RegionTrafficGenerator"),
        "repro.workloads.trace": ("TraceReader", "TraceRecord", "TraceWriter"),
    },
)
