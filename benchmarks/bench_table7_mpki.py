"""Paper Table VII: workload MPKIs.

The LLC-level generators are parameterised directly by the paper's MPKI
values; this bench verifies that the *realised* miss rate of each
generated stream matches its target, and prints the Table VII layout. It
also measures MPKI the long way — an instruction-level stream filtered
through the full cache hierarchy — for one workload, tying the two
workload paths together.
"""

import itertools

from benchmarks.common import write_report
from repro.analysis.report import format_table
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.workloads.cpu_trace import CpuAccessGenerator, CpuTraceProfile
from repro.workloads.events import EV_READ, EV_REGISTER
from repro.workloads.spec2006 import BENCHMARKS
from repro.workloads.synthetic import RegionTrafficGenerator

SAMPLE_EVENTS = 120_000


def _realised_mpki(name: str) -> float:
    """MPKI over the stream's first SAMPLE_EVENTS events, a registration
    run counting as its ``count`` registrations."""
    profile = BENCHMARKS[name].traffic
    generator = RegionTrafficGenerator(profile, seed=1)
    instructions = 0
    misses = 0
    seen = 0
    for kind, gap, _, payload in generator:
        if seen >= SAMPLE_EVENTS:
            break
        seen += payload[1] if kind == EV_REGISTER else 1
        instructions += gap
        if kind == EV_READ:
            misses += 1
    return 1000.0 * misses / instructions


def bench_table7_mpki(benchmark):
    realised = benchmark.pedantic(
        lambda: {name: _realised_mpki(name) for name in sorted(BENCHMARKS)},
        rounds=1, iterations=1,
    )

    rows = []
    for name in sorted(BENCHMARKS, key=str.lower):
        paper = BENCHMARKS[name].paper_mpki
        rows.append([name, paper, realised[name],
                     f"{100 * (realised[name] / paper - 1):+.1f}%"])
        assert abs(realised[name] / paper - 1) < 0.10, name

    # The hierarchy path: one instruction-level stream through real caches.
    hierarchy = CacheHierarchy(HierarchyConfig.scaled(factor=32, n_cores=1))
    generator = CpuAccessGenerator(
        CpuTraceProfile(reuse_fraction=0.75, frame_blocks=4096), seed=3
    )
    instructions = 0
    for gap, block, is_write in itertools.islice(iter(generator), 150_000):
        instructions += gap
        hierarchy.access(0, block, is_write)
    hierarchy_mpki = hierarchy.mpki([instructions])

    text = format_table(
        ["Workload", "Paper MPKI", "Realised MPKI", "error"],
        rows,
        title="Table VII: workload MPKIs (generator targets vs realised)",
    )
    text += (
        f"\n\nfull-hierarchy cross-check: synthetic CPU stream through "
        f"L1/L2/LLC -> MPKI {hierarchy_mpki:.2f} "
        f"(hierarchy path exercises the same filtering the generators model)"
    )
    write_report("table7_mpki", text)
    assert hierarchy_mpki > 0
