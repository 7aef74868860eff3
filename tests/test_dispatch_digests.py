"""Differential dispatch-order net: one committed digest per cell.

The result digests (``tests/test_result_digests.py``) catch a change in
what a run computes; these catch a change in *how* it gets there. For the
same cells (11 workloads x 6 schemes x seeds 1-3 on ``SystemConfig.tiny``,
plus the paper-width leg of 11 workloads x {Static-7-SETs, RRM} x seeds
1-3 on ``SystemConfig.paper``, keyed ``paper/...``; first 4000 engine
events each; and the refresh leg, GemsFDTD at seed 1 for the whole 20 ms
of tiny under the RRM, ``PromotionMonitor`` and ``TieredRetentionMonitor``,
keyed ``refresh/...``), every callback the engine dispatches is recorded as
``(time, module:qualname)``, in dispatch order. The cell's digest is the sha256 over that sequence plus the final
``events_processed``, ``events_scheduled`` and ``events_cancelled``.

Recording happens outside the run loop: ``Simulator.schedule_at`` is
wrapped so that each scheduled callback is itself wrapped in a recorder,
the way ``benchmarks/speed/speed_trace.py`` traces dispatch. The run loop
and the simulated results are untouched.

A hot-path optimisation must keep every digest. The committed file is
only ever rewritten by a change that means to alter the event order::

    PYTHONPATH=src python tests/test_dispatch_digests.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable, List

import pytest

from repro.core.baselines import PromotionMonitor
from repro.core.multimode import TieredRetentionMonitor, TieredRRMConfig
from repro.engine.simulator import Simulator, owner_label
from repro.sim.config import SystemConfig
from repro.sim.schemes import Scheme, all_schemes
from repro.sim.system import System
from repro.workloads.mixes import MIXES, all_workload_names

DIGESTS = Path(__file__).parent / "data" / "dispatch_digests.json"
SEEDS = (1, 2, 3)
MAX_EVENTS = 4_000

#: Configuration legs: cell-key prefix -> (``SystemConfig`` preset, schemes).
LEGS = {
    "": (SystemConfig.tiny, [scheme.value for scheme in all_schemes()]),
    "paper/": (SystemConfig.paper, [Scheme.STATIC_7.value, Scheme.RRM.value]),
}

#: Refresh leg: cell-key prefix and the monitors it runs to the end (the
#: other legs stop before the first refresh interrupt, at 9.04 ms).
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


def recording_schedule_at(log: List[str]) -> Callable:
    """A ``Simulator.schedule_at`` that wraps every callback so its
    dispatch appends ``time label`` to *log*."""
    original = Simulator.schedule_at

    def schedule_at(self, time, callback, *args, owner=None):
        label = owner_label(callback)

        def recorded(*call_args):
            log.append(f"{self.now!r} {label}")
            callback(*call_args)

        return original(self, time, recorded, *args, owner=owner)

    return schedule_at


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


def cell_digest(prefix: str, workload: str, scheme: str, seed: int) -> str:
    """sha256 of the cell's dispatch sequence and final event counts.

    Patches ``Simulator.schedule_at`` for the duration of the cell only.
    """
    log: List[str] = []
    original = Simulator.schedule_at
    Simulator.schedule_at = recording_schedule_at(log)
    try:
        if prefix == REFRESH:
            config = SystemConfig.tiny(seed)
            factory = refresh_monitor_factory(scheme, config.rrm)
            system = System(config, workload, Scheme.RRM, monitor_factory=factory)
            system.run()
        else:
            config = LEGS[prefix][0](seed)
            if workload in MIXES:
                config = dataclasses.replace(config, n_cores=len(MIXES[workload]))
            system = System(config, workload, Scheme(scheme))
            system.run(max_events=MAX_EVENTS)
    finally:
        Simulator.schedule_at = original
    sim = system.sim
    log.append(
        f"processed={sim.events_processed} scheduled={sim.events_scheduled} "
        f"cancelled={sim.events_cancelled}"
    )
    return hashlib.sha256("\n".join(log).encode()).hexdigest()


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_the_matrix(expected):
    assert sorted(expected) == sorted(cell_key(*cell) for cell in CELLS)


@pytest.mark.parametrize(
    "prefix,workload,scheme,seed", CELLS, ids=[cell_key(*cell) for cell in CELLS]
)
def test_dispatch_digest(expected, prefix, workload, scheme, seed):
    assert cell_digest(prefix, workload, scheme, seed) == expected[
        cell_key(prefix, workload, scheme, seed)
    ]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(
        json.dumps({cell_key(*c): cell_digest(*c) for c in CELLS}, indent=1) + "\n"
    )
    print(f"wrote {len(CELLS)} digests to {DIGESTS}")
