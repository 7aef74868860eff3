#!/usr/bin/env python3
"""Bring your own workload: define a traffic profile and trace it.

The built-in SPEC2006 profiles are just parameter sets. This example
defines a custom key-value-store-like profile (small hot log region,
large cold data set, no streaming), runs it under every scheme, dumps the
first part of the generated event stream to a trace file, and replays
that trace through the low-level assembly (engine + controller + cores)
to show the layering beneath ``run_workload``.

Run:  python examples/custom_workload.py [--tiny]
"""

import argparse
import itertools
import tempfile
from pathlib import Path

from repro import Scheme, SystemConfig
from repro.analysis.report import format_table
from repro.cpu.core_model import CoreParams
from repro.cpu.multicore import Multicore
from repro.engine import Simulator
from repro.memctrl.controller import MemoryController
from repro.pcm.device import PCMDevice
from repro.sim.runner import run_workload
from repro.utils.units import s_to_ns
from repro.workloads.spec2006 import BENCHMARKS, BenchmarkProfile
from repro.workloads.synthetic import RegionProfile, RegionTrafficGenerator
from repro.workloads.trace import TraceReader, write_trace


def kv_store_profile() -> BenchmarkProfile:
    """A write-heavy key-value store: a hot append log plus cold data."""
    traffic = RegionProfile(
        mpki=30.0,
        writeback_per_miss=0.6,        # persist-heavy
        registrations_per_write=4.0,   # log entries rewritten in cache
        footprint_regions=8192,
        hot_regions=24,                # the log tail + hot index nodes
        warm_regions=256,              # recently-touched index pages
        hot_write_share=0.8,
        warm_write_share=0.12,
        streaming_fraction=0.0,
        read_hot_share=0.35,
        hot_working_blocks=32,
        zipf_alpha=1.1,                # strongly skewed key popularity
    )
    return BenchmarkProfile(name="kvstore", paper_mpki=30.0, traffic=traffic)


def register_profile(profile: BenchmarkProfile) -> None:
    """Workloads are resolved by name; adding to the catalogue makes the
    custom profile usable everywhere a benchmark name is accepted."""
    BENCHMARKS[profile.name] = profile


def trace_roundtrip_demo(profile: BenchmarkProfile, config: SystemConfig) -> None:
    """Dump a slice of the generated stream and replay it manually."""
    scaled = profile.scaled_footprint(config.footprint_scale)
    generator = RegionTrafficGenerator(scaled.traffic, seed=7)
    events = list(itertools.islice(iter(generator), 50_000))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kvstore.trace"
        count = write_trace(path, events, header="kvstore sample trace")
        print(f"wrote {len(events)} events as {count} lines to {path.name} "
              f"({path.stat().st_size >> 10}KB)")

        # Manual assembly: engine -> device -> controller -> one core
        # replaying the trace with a fixed slow write mode.
        sim = Simulator()
        device = PCMDevice(
            size_bytes=config.memory.size_bytes,
            n_channels=config.memory.n_channels,
            banks_per_channel=config.memory.banks_per_channel,
        )
        controller = MemoryController(sim, device)
        cores = Multicore(
            sim, controller, [TraceReader(path).events()],
            CoreParams(freq_ghz=config.cores.freq_ghz),
            end_time_ns=s_to_ns(config.duration_s),
        )
        cores.start()
        sim.run(until=s_to_ns(config.duration_s))
        print(f"trace replay: {cores.total_instructions()} instructions, "
              f"{controller.stats.reads_completed} reads, "
              f"{controller.stats.writes_completed} writes, "
              f"row-hit rate {controller.stats.row_hit_rate:.0%}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    config = SystemConfig.tiny() if args.tiny else SystemConfig.scaled()
    profile = kv_store_profile()
    register_profile(profile)

    print("=== trace round trip ===")
    trace_roundtrip_demo(profile, config)
    print()

    print("=== scheme comparison for the custom workload ===")
    rows = []
    for scheme in (Scheme.STATIC_7, Scheme.STATIC_4, Scheme.STATIC_3, Scheme.RRM):
        result = run_workload(config, "kvstore", scheme)
        rows.append([
            scheme.value, result.ipc, result.lifetime_years,
            f"{result.fast_write_fraction:.0%}",
        ])
    print(format_table(
        ["scheme", "IPC", "lifetime (y)", "fast writes"], rows,
        title="kvstore under each scheme",
    ))


if __name__ == "__main__":
    main()
