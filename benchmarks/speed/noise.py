"""Characterise the speed benchmark's run-to-run noise on this host.

Usage, from the repository root::

    python3 benchmarks/speed/noise.py [--out FILE] [--against EARLIER.json]

For each workload it makes 20 untraced runs (``run.py --trace 0``),
alternating between two sets of 10:

- ``same_seed`` repeats seed 1, so its spread is the host's run-to-run
  noise;
- ``seeds`` uses seeds 1 to 10, as a regression check across seeds
  does, so its spread adds the differences between seeds.

It then makes 2 traced runs at seed 1 and checks that every count
repeats exactly. Each run lasts BENCHMARK.json's ``run_seconds``.

For every metric and set it records the median, the quartiles and the
spread (IQR / median) with n, plus a host stamp, in ``--out`` (default
``BENCH_speed.json``). For each end-to-end metric it prints the bound
the rule gives, next to the bound BENCHMARK.json declares. The rule is
the largest over the workloads of max(initial bound, 2 x same-seed
spread, 3 x seed-set spread). With ``--against`` it compares each
median with the earlier file's. Exits 1 when a run fails, a count
differs, a declared bound is below the rule, or a median got worse than
the earlier one by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Untraced runs per set and workload, and traced runs per workload.
RUNS = 10
TRACE_RUNS = 2
#: The first end-to-end bounds, before any noise was measured.
INITIAL_BOUNDS = {
    "wall_s": 0.10,
    "setup_s": 0.20,
    "run_s": 0.10,
    "sim_requests_per_sec": 0.10,
    "peak_rss_mb": 0.10,
}


def run(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed={seed} trace={trace} failed")
    print(f"{workload} seed={seed} trace={trace} "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: List[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / median if median else 0.0,
        "n": len(values),
        "values": values,
    }


def summaries(runs: List[dict]) -> Dict[str, dict]:
    return {name: summary([r[name] for r in runs]) for name in runs[0]}


def host_stamp() -> dict:
    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "BENCH_speed.json")
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    declared = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    against = json.loads(args.against.read_text()) if args.against else None

    ok = True
    rule = dict(INITIAL_BOUNDS)
    workloads: Dict[str, dict] = {}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        same_seed, seeds = [], []
        for seed in range(1, RUNS + 1):
            same_seed.append(run(workload, 1, 0))
            seeds.append(run(workload, seed, 0))
        traced = [run(workload, 1, 1) for _ in range(TRACE_RUNS)]
        entry = workloads[workload] = {
            "end_to_end": {"same_seed": summaries(same_seed), "seeds": summaries(seeds)},
            "per_layer": summaries(traced),
        }
        for name in traced[0]:
            if name.endswith(".calls") or name.startswith("engine.events_"):
                if len({r[name] for r in traced}) != 1:
                    ok = False
                    print(f"{workload} {name} differs across runs", file=sys.stderr)
        for set_name, factor in (("same_seed", 2), ("seeds", 3)):
            for name, stats in entry["end_to_end"][set_name].items():
                rule[name] = max(rule[name], factor * stats["iqr_frac"])
                line = (f"{workload:<13} {set_name:<9} {name:<21} "
                        f"median {stats['median']:<12.6g} spread {stats['iqr_frac']:.4f}")
                if against is not None:
                    earlier = against["workloads"][workload]["end_to_end"][set_name]
                    change = stats["median"] / earlier[name]["median"] - 1
                    worse = -change if declared[name]["better"] == "higher" else change
                    line += f"  vs earlier {change:+.4f}"
                    if worse > declared[name]["bound"]:
                        ok = False
                        line += "  WORSE THAN BOUND"
                print(line)

    bounds = {}
    for name, value in rule.items():
        bounds[name] = {"rule": round(value, 4), "declared": declared[name]["bound"]}
        line = f"bound {name:<21} rule {value:.4f} declared {declared[name]['bound']}"
        if declared[name]["bound"] < value:
            ok = False
            line += "  DECLARED BOUND BELOW RULE"
        print(line)

    args.out.write_text(json.dumps({
        "about": "Run-to-run noise of benchmarks/speed on one host: median, "
                 "quartiles and IQR/median of each metric over n runs. End-to-end "
                 "metrics: same_seed repeats seed 1, seeds uses seeds 1..n, the two "
                 "sets alternating run by run. Per-layer metrics: seed 1. bounds: "
                 "max over workloads of max(initial, 2 x same-seed spread, "
                 "3 x seed-set spread), and the bound BENCHMARK.json declares.",
        "host": host_stamp(),
        "run_seconds": BENCHMARK["run_seconds"],
        "bounds": bounds,
        "workloads": workloads,
    }, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
