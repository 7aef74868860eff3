"""Layered host-speed benchmark of the uninstrumented simulator.

Usage, from the repository root::

    python3 benchmarks/speed/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--record-digests]

(``PYTHONPATH=src python -m benchmarks.speed`` is the same program.)
Without ``--workload`` every workload runs; without ``--trace`` both
passes run.

- ``--trace 0``, the untraced pass: the workload's batch in fresh child
  interpreters, each run preceded by three set-up-only children,
  repeated until ``--seconds`` have passed (at least three times),
  reporting medians of the end-to-end metrics; ``setup_s`` is the median
  over all set-up children, at least nine. Every child runs the host
  probe (:mod:`host_probe`), and every time is normalised to the
  reference host's speed.
- ``--trace 1``, the traced pass: pairs of an untraced and a traced
  child, both without the probe, until ``--seconds`` have passed; the
  traced child times every layer from outside (:mod:`speed_trace`) and
  yields the per-layer metrics.

Children run one at a time and are single-threaded. Every cell's result
digest is checked against ``expected_digests.json`` for the seeds
recorded there, and against the run's first result for any other seed;
traced digests must equal untraced ones. The last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 when every cell is correct, 1 when a cell failed, 2 on a
usage error or when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from speed_child import SMOKE_MAX_EVENTS, WORKLOADS
from speed_trace import HookStat, in_run_self_s, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DIGESTS = HERE / "expected_digests.json"

#: Set-up-only children before each untraced run. Interleaving them with
#: the runs samples set-up over the same stretch of time as the runs, so
#: a slow spell of the host moves ``setup_s`` no more than ``run_s``.
SETUP_PER_REPEAT = 3
#: Fewest untraced repeats per run: at least nine set-up children, and
#: at least two runs for the determinism check.
MIN_REPEATS = 3
DEFAULT_SECONDS = 20.0
#: No repeat starts once a run has measured this long, so a run ends
#: well inside three minutes on a slow host.
MAX_MEASURE_S = 110.0
CHILD_TIMEOUT_S = 150.0
#: Simulated seconds in one paper cell (five per cell in the paper).
PAPER_CELL_S = 5.0

Metrics = Dict[str, Tuple[float, str]]


class ChildFailed(RuntimeError):
    """A child interpreter exited without a result."""


def run_child(spec: dict) -> Tuple[dict, float]:
    """Run one child; returns its JSON result and its lifetime in s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, str(HERE / "speed_child.py"), json.dumps(spec)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child exceeded {CHILD_TIMEOUT_S:.0f} s") from None
    wall_s = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"child exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1]), wall_s


class Verifier:
    """Checks every cell of every child result; counts attempts and
    failures and names each failure on stderr."""

    def __init__(self, workload: str, seed: int, reference: Optional[dict]) -> None:
        self.workload = workload
        self.seed = seed
        self.keys = WORKLOADS[workload].cell_keys
        #: Committed digests, or, for a seed without any, the first
        #: digest seen for each cell.
        self.reference: Dict[str, str] = dict(reference or {})
        self.committed = reference is not None
        self.attempted = 0
        self.failed = 0

    def fail(self, label: str, key: str, problem: str) -> None:
        self.failed += 1
        print(
            f"FAIL {self.workload} seed={self.seed} {label} {key}: {problem}",
            file=sys.stderr,
        )

    def check(self, label: str, payload: dict) -> None:
        for key in self.keys:
            self.attempted += 1
            cell = payload["cells"].get(key)
            problem = payload["failures"].get(key)
            if problem is None and cell is None:
                problem = "no result"
            if problem is None:
                problem = cell["problem"]
            if problem is None:
                expected = self.reference.setdefault(key, cell["digest"])
                if cell["digest"] != expected:
                    source = "committed" if self.committed else "first run"
                    problem = (
                        f"digest {cell['digest'][:12]} != {source} {expected[:12]}"
                    )
            if problem is not None:
                self.fail(label, key, problem)

    def child(self, label: str, spec: dict) -> Optional[Tuple[dict, float]]:
        """Run and check one child; None when it produced no result."""
        try:
            payload, wall_s = run_child(spec)
        except ChildFailed as exc:
            self.attempted += len(self.keys)
            for key in self.keys:
                self.fail(label, key, str(exc))
            return None
        if spec["mode"] == "run":
            self.check(label, payload)
        return payload, wall_s


def cells_total(payload: dict, field: str) -> float:
    return sum(cell[field] for cell in payload["cells"].values())


def medians(samples: List[Metrics]) -> Metrics:
    return {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }


def untraced_metrics(payload: dict, wall_s: float) -> Metrics:
    """End-to-end metrics of one probed batch child, at the reference
    host's speed; *wall_s* is its raw lifetime."""
    run_s = cells_total(payload, "run_s")
    return {
        "wall_s": ((wall_s - payload["probe_s"]) * payload["speed"], "s"),
        "run_s": (run_s, "s"),
        "sim_requests_per_sec": (cells_total(payload, "requests") / run_s, "requests/s"),
        "peak_rss_mb": (payload["peak_rss_mb"], "MB"),
    }


def traced_metrics(payload: dict, untraced_run_s: float) -> Metrics:
    stats = {name: HookStat(**fields) for name, fields in payload["hooks"].items()}
    span_ns, wrap_ns = payload["span_cost_ns"], payload["wrap_cost_ns"]
    metrics = layer_metrics(stats, span_ns, wrap_ns)
    events = [sum(column) for column in zip(*(
        cell["events"] for cell in payload["cells"].values()
    ))] or [0, 0, 0]
    for name, count in zip(("processed", "scheduled", "cancelled"), events):
        metrics[f"engine.events_{name}"] = (count, "count")
    traced_run_s = cells_total(payload, "run_s")
    estimate = in_run_self_s(stats, span_ns, wrap_ns)
    metrics["trace.span_cost_ns"] = (span_ns, "ns")
    metrics["trace.wrap_cost_ns"] = (wrap_ns, "ns")
    metrics["trace.overhead_frac"] = (traced_run_s / untraced_run_s - 1, "ratio")
    metrics["trace.residual_frac"] = (
        abs(estimate - untraced_run_s) / untraced_run_s, "ratio"
    )
    return metrics


class Bench:
    """One workload at one seed."""

    def __init__(self, args, workload: str, workdir: Path, reference) -> None:
        self.seconds = args.seconds
        self.spec = {
            "workload": workload,
            "seed": args.seed,
            "smoke": args.smoke,
            "journal": str(workdir / "sweep.jsonl"),
        }
        self.verifier = Verifier(workload, args.seed, reference)
        #: (host speed, raw run seconds) of each untraced batch child.
        self.host: List[Tuple[float, float]] = []

    def _spec(self, mode: str, trace: bool = False, probe: bool = True) -> dict:
        return {**self.spec, "mode": mode, "trace": trace, "probe": probe}

    def repeat(self, once, minimum: int) -> List[Metrics]:
        """Samples from ``once(n)`` until the next one would end after
        ``--seconds`` (at least *minimum*); empty if one failed."""
        samples: List[Metrics] = []
        started = time.perf_counter()
        while True:
            sample = once(len(samples) + 1)
            if sample is None:
                return []
            samples.append(sample)
            elapsed = time.perf_counter() - started
            next_end = elapsed * (len(samples) + 1) / len(samples)
            enough = len(samples) >= minimum and next_end > self.seconds
            if enough or elapsed > MAX_MEASURE_S:
                return samples

    def untraced(self) -> Metrics:
        v = self.verifier
        # One uncounted child first: it warms the bytecode cache.
        if v.child("setup#0", self._spec("setup")) is None:
            return {}
        setup: List[float] = []

        def once(n: int) -> Optional[Metrics]:
            for k in range(1, SETUP_PER_REPEAT + 1):
                done = v.child(f"setup#{n}.{k}", self._spec("setup"))
                if done is None:
                    return None
                setup.append(done[0]["setup_s"])
            done = v.child(f"untraced#{n}", self._spec("run"))
            if done is None:
                return None
            self.host.append((done[0]["speed"], cells_total(done[0], "raw_run_s")))
            return untraced_metrics(*done)

        samples = self.repeat(once, MIN_REPEATS)
        if not samples:
            return {}
        return {"setup_s": (statistics.median(setup), "s"), **medians(samples)}

    def traced(self) -> Metrics:
        v = self.verifier

        # No probe here: it would run inside whichever span is open and
        # land in that layer's self time. Both children time raw seconds.
        def once(n: int) -> Optional[Metrics]:
            plain = v.child(f"untraced#{n}", self._spec("run", probe=False))
            traced = v.child(f"traced#{n}", self._spec("run", trace=True, probe=False))
            if plain is None or traced is None:
                return None
            return traced_metrics(traced[0], cells_total(plain[0], "run_s"))

        samples = self.repeat(once, 1)
        if not samples:
            return {}
        counts = {n: m for n, (m, u) in samples[0].items() if u == "count"}
        for sample in samples[1:]:
            for name, count in counts.items():
                if sample[name][0] != count:
                    v.fail("traced", name, f"count {sample[name][0]} != {count}")
        return medians(samples)


def print_metrics(title: str, metrics: Metrics) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def run_workload(args, workload: str, digests: dict) -> bool:
    """Measure one workload and print its result; True when correct."""
    seed_key = str(args.seed)
    reference = None
    if not (args.smoke or args.record_digests):
        reference = digests.get(workload, {}).get(seed_key)
    # The benchmark reads and writes only inside the repository checkout,
    # so the sweep journal's scratch directory lives there too.
    workdir = Path(tempfile.mkdtemp(prefix=".speedbench-", dir=ROOT))
    try:
        bench = Bench(args, workload, workdir, reference)
        metrics: Metrics = {}
        title = f"{workload} seed={args.seed}"
        if args.trace in (None, 0):
            untraced = bench.untraced()
            metrics.update(untraced)
            print_metrics(f"{title} untraced", untraced)
            if bench.host:
                speed, raw_run_s = (statistics.median(c) for c in zip(*bench.host))
                print(f"info host_speed {speed:.3g} (1 = reference host at full speed; "
                      f"raw run_s {raw_run_s:.4g} s; not gated)")
            if workload == "paper-slice" and untraced:
                slice_s = WORKLOADS[workload].duration_s
                hours = untraced["run_s"][0] * PAPER_CELL_S / slice_s / 3600
                print(f"info paper_cell_projected_h {hours:.3g} h "
                      f"(run_s x {PAPER_CELL_S:g} s / {slice_s:g} s, not gated)")
        if args.trace in (None, 1):
            traced = bench.traced()
            metrics.update(traced)
            print_metrics(f"{title} traced", traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    v = bench.verifier
    correct = v.failed == 0 and bool(metrics)
    if correct and args.record_digests:
        digests.setdefault(workload, {})[seed_key] = dict(sorted(v.reference.items()))
    print(json.dumps({
        "correct": correct,
        "attempted": v.attempted,
        "failed": v.failed,
        "metrics": {n: {"value": val, "unit": u} for n, (val, u) in metrics.items()},
    }))
    return correct


def parse_args(argv: Optional[List[str]]):
    parser = argparse.ArgumentParser(
        description="Host-speed benchmark of the simulator, end to end and per layer."
    )
    parser.add_argument("--workload", help=f"one of {', '.join(WORKLOADS)} (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"cap every cell at {SMOKE_MAX_EVENTS} engine events")
    parser.add_argument("--record-digests", action="store_true",
                        help="write this run's result digests to expected_digests.json")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    # On SIGTERM, unwind as on an exception: the running child is killed
    # and waited for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        print("--seed and --seconds must be non-negative", file=sys.stderr)
        return 2
    if args.smoke and args.record_digests:
        # Smoke cells are truncated; their digests would overwrite the
        # real ones recorded for the same seed.
        print("--record-digests cannot be combined with --smoke", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    digests = load_digests()
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = all([run_workload(args, name, digests) for name in names])
    if args.record_digests:
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
