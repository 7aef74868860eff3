"""Differential result net: one committed digest per (workload, scheme, seed).

Every one of the 11 workloads (9 benchmarks and 2 mixes, the mixes with
the 4 cores they define) runs under all 6 schemes at seeds 1-3 on
``SystemConfig.tiny`` for the first 4000 engine events. A second,
paper-width leg runs the same workloads under Static-7-SETs and RRM at
seeds 1-3 on ``SystemConfig.paper`` (4 channels x 16 banks), where more
than two requests per channel can be in flight. Each cell's ``SimResult``
is reduced to the sha256 of its canonical JSON, less the fields that
depend on the host or on instrumentation, and compared with
``tests/data/result_digests.json``. Tiny cells are keyed
``workload/scheme/seed`` and paper-width cells ``paper/workload/scheme/seed``.

Those cells stop long before the first refresh interrupt (9.04 ms on
tiny), so a third, refresh leg runs GemsFDTD at seed 1 for the whole
20 ms of ``SystemConfig.tiny`` under each monitor that queues refreshes:
the RRM, ``PromotionMonitor`` and ``TieredRetentionMonitor``, the last two
through ``System``'s ``monitor_factory``. Its cells are keyed
``refresh/GemsFDTD/monitor/1`` and pin every refresh burst's backpressure.

A hot-path optimisation must keep every digest. The committed file is
only ever rewritten by a change that means to alter simulated results::

    PYTHONPATH=src python tests/test_result_digests.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.baselines import PromotionMonitor
from repro.core.multimode import TieredRetentionMonitor, TieredRRMConfig
from repro.sim.config import SystemConfig
from repro.sim.schemes import Scheme, all_schemes
from repro.sim.system import System
from repro.workloads.mixes import MIXES, all_workload_names

DIGESTS = Path(__file__).parent / "data" / "result_digests.json"
SEEDS = (1, 2, 3)
MAX_EVENTS = 4_000
#: ``SimResult.to_json_dict`` fields that depend on the host or on
#: instrumentation.
HOST_FIELDS = ("wall_time_s", "sim_events", "attribution", "profile")

#: Configuration legs: cell-key prefix -> (``SystemConfig`` preset, schemes).
LEGS = {
    "": (SystemConfig.tiny, [scheme.value for scheme in all_schemes()]),
    "paper/": (SystemConfig.paper, [Scheme.STATIC_7.value, Scheme.RRM.value]),
}

#: Refresh leg: cell-key prefix and the monitors it runs to the end.
REFRESH = "refresh/"
REFRESH_MONITORS = ("RRM", "promotion", "tiered")

CELLS = [
    (prefix, workload, scheme, seed)
    for prefix, (_, schemes) in LEGS.items()
    for workload in all_workload_names()
    for scheme in schemes
    for seed in SEEDS
] + [(REFRESH, "GemsFDTD", monitor, 1) for monitor in REFRESH_MONITORS]


def cell_key(prefix: str, workload: str, scheme: str, seed: int) -> str:
    return f"{prefix}{workload}/{scheme}/{seed}"


def leg_config(prefix: str, workload: str, seed: int) -> SystemConfig:
    """The cell's configuration: its leg's preset, with a mix's cores."""
    config = LEGS[prefix][0](seed)
    if workload in MIXES:
        config = dataclasses.replace(config, n_cores=len(MIXES[workload]))
    return config


def refresh_monitor_factory(monitor: str, rrm):
    """``System``'s ``monitor_factory`` for a refresh-leg monitor (None
    builds the stock RRM)."""
    if monitor == "promotion":
        return lambda modes, sim, controller: PromotionMonitor(
            rrm, modes, sim=sim, controller=controller
        )
    if monitor == "tiered":
        tiered = TieredRRMConfig(
            n_sets=rrm.n_sets,
            n_ways=rrm.n_ways,
            hot_threshold=rrm.hot_threshold,
            refresh_slack_fraction=rrm.refresh_slack_fraction,
        )
        return lambda modes, sim, controller: TieredRetentionMonitor(
            tiered, modes, sim=sim, controller=controller
        )
    return None


def cell_run(prefix: str, workload: str, scheme: str, seed: int):
    """The cell's ``SimResult``: the refresh leg runs its whole duration,
    every other leg its first ``MAX_EVENTS`` events."""
    if prefix == REFRESH:
        config = SystemConfig.tiny(seed)
        factory = refresh_monitor_factory(scheme, config.rrm)
        return System(config, workload, Scheme.RRM, monitor_factory=factory).run()
    system = System(leg_config(prefix, workload, seed), workload, Scheme(scheme))
    return system.run(max_events=MAX_EVENTS)


def cell_digest(prefix: str, workload: str, scheme: str, seed: int) -> str:
    """sha256 of the cell's canonical result JSON, host fields removed."""
    record = cell_run(prefix, workload, scheme, seed).to_json_dict()
    for field in HOST_FIELDS:
        record.pop(field, None)
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_the_matrix(expected):
    assert sorted(expected) == sorted(cell_key(*cell) for cell in CELLS)


@pytest.mark.parametrize(
    "prefix,workload,scheme,seed", CELLS, ids=[cell_key(*cell) for cell in CELLS]
)
def test_result_digest(expected, prefix, workload, scheme, seed):
    assert cell_digest(prefix, workload, scheme, seed) == expected[
        cell_key(prefix, workload, scheme, seed)
    ]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(
        json.dumps({cell_key(*c): cell_digest(*c) for c in CELLS}, indent=1) + "\n"
    )
    print(f"wrote {len(CELLS)} digests to {DIGESTS}")
