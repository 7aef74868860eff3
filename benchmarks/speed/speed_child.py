"""One measurement of the speed benchmark, in a fresh interpreter.

Usage (the parent, ``run.py``, builds the spec)::

    PYTHONPATH=src python benchmarks/speed/speed_child.py '<json spec>'

The spec names a workload, a seed and a mode. ``setup`` imports the
simulator, builds the config and constructs every ``System`` or
``ExperimentRunner`` the workload uses, then reports how long that took.
``run`` does the same and then runs the cells, timing each
``System.run``; with ``trace`` the layer hooks of :mod:`speed_trace` are
installed first. With ``probe``, :mod:`host_probe` samples the host's
speed throughout, and every time reported is normalised to the reference
host's speed. The child prints one JSON object as its last line.

Nothing from ``repro`` is imported at module level, so the set-up clock
starts before the simulator's own imports.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from host_probe import HostProbe
from speed_trace import HookError, SpanTracer, calibrate, install_hooks

#: Engine-event cap for every cell in ``--smoke`` mode.
SMOKE_MAX_EVENTS = 5_000

#: ``SimResult.to_json_dict`` fields that depend on the host or on
#: instrumentation, and so are left out of result digests.
HOST_FIELDS = ("wall_time_s", "sim_events", "attribution", "profile")

SPEC_BENCHMARKS = (
    "bwaves", "GemsFDTD", "hmmer", "lbm", "leslie3d",
    "libquantum", "mcf", "milc", "zeusmp",
)


@dataclass(frozen=True)
class Workload:
    """A closed batch of cells run back to back."""

    #: ``SystemConfig`` constructor: ``scaled``, ``paper`` or ``tiny``,
    #: called with the seed and *config_args*.
    config: str
    benchmarks: Tuple[str, ...]
    schemes: Tuple[str, ...]
    config_args: Dict[str, float] = field(default_factory=dict)
    #: Simulated seconds per cell (None keeps the config's duration).
    duration_s: Optional[float] = None
    max_events: Optional[int] = None
    #: Run the cells through ``ExperimentRunner.run_all`` (the serial
    #: sweep path) instead of one ``System`` each.
    sweep: bool = False

    @property
    def cell_keys(self) -> List[str]:
        return [f"{b}/{s}" for b in self.benchmarks for s in self.schemes]


# Why each workload is here is stated in BENCHMARK.json and README.md.
# Cells are slices, far shorter than a paper cell, so that every run,
# repeated and traced, fits the benchmark's time budget. The heavy cells
# raise the scaled config's drift scale from 50 to 125 so that 20 ms
# still spans a refresh interval (one interrupt, no retention violation).
HEAVY = {"drift_scale": 125.0}

WORKLOADS: Dict[str, Workload] = {
    "heavy-static": Workload(
        config="scaled",
        config_args=HEAVY,
        benchmarks=("GemsFDTD",),
        schemes=("Static-7-SETs",),
        duration_s=0.02,
    ),
    "heavy-rrm": Workload(
        config="scaled",
        config_args=HEAVY,
        benchmarks=("GemsFDTD",),
        schemes=("RRM",),
        duration_s=0.02,
    ),
    "paper-slice": Workload(
        config="paper",
        benchmarks=("GemsFDTD",),
        schemes=("RRM",),
        duration_s=0.0005,
    ),
    "sweep-short": Workload(
        config="tiny",
        benchmarks=SPEC_BENCHMARKS,
        schemes=("Static-7-SETs", "Static-3-SETs", "RRM"),
        max_events=4_000,
        sweep=True,
    ),
}


def result_digest(result) -> str:
    """sha256 of a ``SimResult``'s canonical JSON, host fields removed."""
    record = result.to_json_dict()
    for field in HOST_FIELDS:
        record.pop(field, None)
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def completed_requests(result) -> int:
    return (
        result.reads
        + result.writes
        + result.rrm_fast_refreshes
        + result.rrm_slow_refreshes
    )


def result_problem(result) -> Optional[str]:
    """Model invariants every cell of every workload must satisfy."""
    if completed_requests(result) <= 0:
        return "no memory request completed"
    if not math.isfinite(result.ipc) or result.ipc <= 0:
        return f"IPC {result.ipc} is not a positive number"
    if result.fast_writes + result.slow_writes != result.writes:
        return (
            f"fast {result.fast_writes} + slow {result.slow_writes} writes "
            f"!= {result.writes} writes"
        )
    return None


def build(spec: dict) -> Callable[[], Dict[str, str]]:
    """Construct the workload's systems; returns a function that runs
    them and maps each failed cell key to its error."""
    from repro.sim.config import SystemConfig
    from repro.sim.schemes import Scheme

    workload = WORKLOADS[spec["workload"]]
    config = getattr(SystemConfig, workload.config)(spec["seed"], **workload.config_args)
    if workload.duration_s is not None:
        config = config.with_duration(workload.duration_s)
    max_events = SMOKE_MAX_EVENTS if spec["smoke"] else workload.max_events
    schemes = [Scheme(name) for name in workload.schemes]

    if workload.sweep:
        from repro.sim.runner import ExperimentRunner

        runner = ExperimentRunner(
            config,
            workload.benchmarks,
            schemes,
            max_events=max_events,
            journal_path=spec["journal"],
        )

        def run_sweep() -> Dict[str, str]:
            runner.run_all()
            return {
                f"{name}/{scheme.value}": failed.message
                for (name, scheme), failed in runner.failures.items()
            }

        return run_sweep

    from repro.sim.system import System

    systems = [
        (f"{name}/{scheme.value}", System(config, name, scheme))
        for name in workload.benchmarks
        for scheme in schemes
    ]

    def run_cells() -> Dict[str, str]:
        failures = {}
        for key, system in systems:
            try:
                system.run(max_events=max_events)
            except HookError:
                raise
            except Exception as exc:  # noqa: BLE001 - reported as a failed cell
                failures[key] = f"{type(exc).__name__}: {exc}"
        return failures

    return run_cells


def record_runs(cells: List[dict], probe: Optional[HostProbe]) -> None:
    """Wrap ``System.run`` so each call appends its result and host time,
    normalised to the reference host's speed when *probe* runs."""
    from repro.sim.system import System

    original = System.run

    @functools.wraps(original)
    def run(self, *args, **kwargs):
        start = time.perf_counter()
        result = original(self, *args, **kwargs)
        end = time.perf_counter()
        sim = self.sim
        cells.append({
            "result": result,
            "run_s": normalised(probe, start, end),
            "raw_run_s": end - start,
            "events": [sim.events_processed, sim.events_scheduled, sim.events_cancelled],
        })
        return result

    System.run = run


def normalised(probe: Optional[HostProbe], start: float, end: float) -> float:
    """Host seconds from *start* to *end*, less the probe's own time, at
    the reference host's speed; raw seconds without a probe."""
    if probe is None:
        return end - start
    probe_s, speed = probe.window(start, end)
    return (end - start - probe_s) * speed


def measure(spec: dict, started: float, probe: Optional[HostProbe]) -> dict:
    if spec["mode"] == "setup":
        build(spec)
        return {"setup_s": normalised(probe, started, time.perf_counter())}

    tracer = None
    if spec["trace"]:
        span_cost_ns, wrap_cost_ns = calibrate()
        tracer = SpanTracer()
        install_hooks(tracer)
    recorded: List[dict] = []
    record_runs(recorded, probe)
    failures = build(spec)()

    cells = {}
    for cell in recorded:
        result = cell.pop("result")
        cells[f"{result.workload}/{result.scheme.value}"] = {
            **cell,
            "digest": result_digest(result),
            "requests": completed_requests(result),
            "problem": result_problem(result),
        }
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "cells": cells,
        "failures": failures,
        # Peak RSS of the simulator, without the probe's own table.
        "peak_rss_mb": (peak_kib - (probe.rss_kib if probe else 0)) / 1024,
    }
    if tracer is not None:
        out["hooks"] = {name: vars(stat) for name, stat in tracer.stats.items()}
        out["span_cost_ns"] = span_cost_ns
        out["wrap_cost_ns"] = wrap_cost_ns
    return out


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    probe = None
    if spec["probe"]:
        built = time.perf_counter()
        probe = HostProbe()
        probe.start()
    started = time.perf_counter()
    try:
        out = measure(spec, started, probe)
    except HookError as exc:
        print(f"traced pass failed: {exc}", file=sys.stderr)
        return 3
    finally:
        if probe is not None:
            probe.stop()
    if probe is not None:
        ended = time.perf_counter()
        # What the parent needs to correct the child's lifetime: the
        # probe's own time and the host's speed over the whole child.
        out["probe_s"] = started - built + probe.window(started, ended)[0]
        out["speed"] = probe.window(built, ended)[1]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
