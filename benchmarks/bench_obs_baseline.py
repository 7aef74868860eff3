"""Pinned core suite: a fresh run must reproduce the committed BENCH_core.json.

Not a paper figure — this bench is the *performance contract* of the
repo itself. It runs the fixed ``repro.obs.benchsuite.CORE_SUITE``
matrix (tiny config, seed 1), appends every cell to a run ledger, writes
a fresh ``BENCH_core.json`` and requires it to equal the committed
repo-root file byte for byte.

Because the simulation is deterministic per seed, any metric drift on an
unchanged configuration is a code change. When a change is *intentional*
(an optimisation that reorders float sums, a model fix), regenerate with::

    repro-rrm obs bench --ledger obs-ledger.jsonl

and commit the refreshed BENCH_core.json alongside the code, naming the
metrics that moved and why.

Runs standalone (``python benchmarks/bench_obs_baseline.py``, which
refreshes the repo-root file and exits 1 if it changed) or under
pytest-benchmark (``pytest benchmarks/bench_obs_baseline.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from benchmarks.common import write_report
from repro.obs import run_core_suite

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_BENCH_JSON = REPO_ROOT / "BENCH_core.json"


def _load(path) -> Dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def payload_differences(expected: Dict, actual: Dict) -> List[str]:
    """One line per top-level field, cell or metric where *actual*
    departs from *expected* (empty when the payloads are equal)."""
    diffs = [
        f"{key}: {expected.get(key)!r} -> {actual.get(key)!r}"
        for key in sorted(set(expected) | set(actual))
        if key != "results" and expected.get(key) != actual.get(key)
    ]
    want = {c["name"]: c["metrics"] for c in expected.get("results", [])}
    got = {c["name"]: c["metrics"] for c in actual.get("results", [])}
    if list(want) != list(got):
        diffs.append(f"cells: {list(want)} -> {list(got)}")
    for name in want.keys() & got.keys():
        for metric in sorted(want[name].keys() | got[name].keys()):
            before, after = want[name].get(metric), got[name].get(metric)
            if before != after:
                diffs.append(f"{name} {metric}: {before!r} -> {after!r}")
    return diffs


def byte_differences(expected: bytes, actual: bytes) -> List[str]:
    """Why *actual* is not byte-identical to *expected*: the
    :func:`payload_differences` lines, or one line naming a formatting
    change when the payloads are equal (empty when the bytes are)."""
    if expected == actual:
        return []
    return payload_differences(json.loads(expected), json.loads(actual)) or [
        "payloads are equal but the bytes differ "
        "(indentation, key order or number formatting)"
    ]


def run_suite(*, ledger_path=None, bench_json_path):
    """Run the pinned suite, writing the ledger and the summary."""
    return run_core_suite(
        ledger_path=ledger_path,
        bench_json_path=bench_json_path,
        progress=lambda line: print(line, file=sys.stderr),
    )


def bench_obs_baseline(benchmark, tmp_path):
    """Pytest entry: the suite runs once, and its fresh BENCH_core.json
    must equal the committed one byte for byte (host-dependent metrics
    are not in it)."""

    state = {}
    fresh_path = tmp_path / "BENCH_core.json"

    def once():
        state["outcome"] = run_suite(
            ledger_path=tmp_path / "obs-ledger.jsonl",
            bench_json_path=fresh_path,
        )

    benchmark.pedantic(once, rounds=1, iterations=1)
    outcome = state["outcome"]
    assert len(outcome.entries) == 4
    diffs = byte_differences(
        COMMITTED_BENCH_JSON.read_bytes(), fresh_path.read_bytes()
    )
    assert not diffs, "BENCH_core.json drifted:\n" + "\n".join(diffs)
    fresh = _load(fresh_path)
    n_metrics = sum(len(cell["metrics"]) for cell in fresh["results"])
    lines = [
        f"{e.name:<32} ipc={e.metrics.get('ipc', 0.0):.4f}"
        for e in outcome.entries
    ]
    lines.append("")
    lines.append(
        f"BENCH_core.json: equal to the committed file "
        f"({len(fresh['results'])} cells, {n_metrics} metrics)"
    )
    write_report("obs_baseline", "\n".join(lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ledger",
        default=str(REPO_ROOT / "obs-ledger.jsonl"),
        help="run ledger to append to (default: repo-root obs-ledger.jsonl)",
    )
    parser.add_argument(
        "--bench-json",
        default=str(COMMITTED_BENCH_JSON),
        help="suite summary to write (default: repo-root BENCH_core.json)",
    )
    args = parser.parse_args(argv)
    committed = COMMITTED_BENCH_JSON.read_bytes()
    outcome = run_suite(ledger_path=args.ledger, bench_json_path=args.bench_json)
    for entry in outcome.entries:
        print(f"  {entry.name:<32} ipc={entry.metrics.get('ipc', 0.0):.4f}")
    diffs = byte_differences(committed, Path(args.bench_json).read_bytes())
    for line in diffs:
        print(f"  drift: {line}")
    print(
        f"{args.bench_json}: "
        + ("differs from" if diffs else "equal to")
        + " the committed BENCH_core.json"
    )
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
