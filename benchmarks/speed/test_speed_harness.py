"""Self-test of the speed benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/speed -q``. The
end-to-end cases drive ``run.py --smoke``: the same code path as a real
run, with every cell capped at a few thousand engine events.
"""

from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import host_probe
import pytest
from host_probe import HostProbe
from run import run_child
from speed_child import WORKLOADS
from speed_trace import HookError, SpanTracer, install_hooks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke():
    """``smoke(workload, trace, n)``: stdout lines of the n-th smoke run."""
    runs = {}

    def get(workload: str, trace: int, n: int = 0):
        key = (workload, trace, n)
        if key not in runs:
            proc = run_bench("--smoke", "--seconds", "0", "--workload", workload,
                             "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            runs[key] = proc.stdout.splitlines()
        return runs[key]

    return get


def test_self_times_sum_to_root_inclusive_time():
    steps = itertools.cycle([3, 11, 5, 2])
    reads = [0]

    def clock() -> int:
        reads.append(reads[-1] + next(steps))
        return reads[-1]

    tracer = SpanTracer(clock=clock)
    leaf = tracer.span("t.leaf", "pcm", lambda: None)
    mid = tracer.span("t.mid", "memctrl", lambda: (leaf(), leaf()))
    root = tracer.span("t.root", "cpu", lambda: (mid(), leaf(), mid()))
    root()

    stats = tracer.stats
    inclusive = reads[-1] - reads[1]
    assert sum(s.self_ns for s in stats.values()) == inclusive
    assert [stats[n].calls for n in ("t.root", "t.mid", "t.leaf")] == [1, 2, 5]
    assert stats["t.root"].child_spans == 3 and stats["t.mid"].child_spans == 4
    corrected = sum(s.corrected_self_ns(2.0, 0.0) for s in stats.values())
    assert corrected == inclusive - 7 * 2.0


def test_missing_hook_fails_loudly_and_installs_nothing():
    from repro.memctrl.controller import MemoryController

    original = MemoryController.__dict__["enqueue"]
    hooks = [
        ("memctrl", "enqueue", "repro.memctrl.controller:MemoryController.enqueue"),
        ("memctrl", "gone", "repro.memctrl.controller:MemoryController.gone"),
    ]
    with pytest.raises(HookError, match="MemoryController.gone not found"):
        install_hooks(SpanTracer(), hooks)
    assert MemoryController.__dict__["enqueue"] is original

    wrap = SpanTracer().callback_wrapper()
    with pytest.raises(HookError, match="belongs to no traced layer"):
        wrap(lambda: None)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_matches_untraced_and_repeats_counts(smoke, workload):
    results = [json.loads(smoke(workload, 1, n)[-1]) for n in range(2)]
    # A traced digest differing from the untraced one fails its cell.
    assert all(r["correct"] and r["failed"] == 0 for r in results)
    counts = [
        {name: m["value"] for name, m in r["metrics"].items() if m["unit"] == "count"}
        for r in results
    ]
    assert counts[0] == counts[1]
    assert counts[0]["engine.events_processed"] > 0


@pytest.mark.parametrize(("trace", "section"), [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(smoke, trace, section):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    lines = smoke("heavy-rrm", trace)
    result = json.loads(lines[-1])
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    printed = [
        line.split()[0] for line in lines[:-1]
        if not line.startswith(("#", "info "))
    ]
    assert sorted(printed) == sorted(declared)
    assert all(NAME.fullmatch(name) for name in printed)


def test_probe_window_subtracts_probes_and_averages_speed():
    probe = HostProbe()
    nominal = host_probe.NOMINAL_PROBE_S
    probe.samples = [(0.0, nominal), (1.0, 2 * nominal), (2.0, nominal)]
    probe_s, speed = probe.window(0.5, 2.5)
    assert probe_s == pytest.approx(3 * nominal)
    assert speed == pytest.approx((0.5 + 1.0) / 2)
    # No probe inside: the last one before the window sets the speed.
    assert probe.window(2.5, 2.6) == (0.0, pytest.approx(1.0))


def test_probe_leaves_results_identical(tmp_path):
    digests = []
    for probe in (False, True):
        payload, _ = run_child({
            "workload": "heavy-rrm", "seed": 1, "smoke": True, "mode": "run",
            "trace": False, "probe": probe, "journal": str(tmp_path / "j.jsonl"),
        })
        digests.append({key: cell["digest"] for key, cell in payload["cells"].items()})
    assert digests[0] == digests[1]


def test_declared_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("args", [
    ("--workload", "no-such-workload"),
    ("--smoke", "--record-digests", "--workload", "heavy-rrm"),
])
def test_usage_error_exits_2_with_one_line(args):
    digests = (HERE / "expected_digests.json").read_bytes()
    proc = run_bench(*args)
    assert (HERE / "expected_digests.json").read_bytes() == digests
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1
