"""The cell matrix both differential digest nets run.

``tests/test_result_digests.py`` pins what each cell computes and
``tests/test_dispatch_digests.py`` the order its engine dispatches in;
both run exactly these cells, built and run by :func:`run_cell`:

- every workload (9 benchmarks and 2 mixes, the mixes with the cores
  they define) under all 6 schemes at seeds 1-3 on ``SystemConfig.tiny``,
  keyed ``workload/scheme/seed``;
- the same workloads under Static-7-SETs and RRM at seeds 1-3 on
  ``SystemConfig.paper`` (4 channels x 16 banks), where more than two
  requests per channel can be in flight, keyed ``paper/...``;
- these two legs stop after their first ``MAX_EVENTS`` engine events,
  long before the first refresh interrupt (9.04 ms on tiny), so a refresh
  leg runs GemsFDTD at seed 1 for the whole 20 ms of tiny under each
  monitor that queues refreshes: the RRM, ``PromotionMonitor`` and
  ``TieredRetentionMonitor``, the last two through ``System``'s
  ``monitor_factory``; keyed ``refresh/GemsFDTD/monitor/1``.
"""

from __future__ import annotations

import dataclasses

from repro.core.baselines import PromotionMonitor
from repro.core.multimode import TieredRetentionMonitor, TieredRRMConfig
from repro.sim.config import SystemConfig
from repro.sim.schemes import Scheme, all_schemes
from repro.sim.system import System
from repro.workloads.mixes import MIXES, all_workload_names

SEEDS = (1, 2, 3)
MAX_EVENTS = 4_000

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


def run_cell(prefix: str, workload: str, scheme: str, seed: int):
    """Build and run the cell's ``System``: the refresh leg for its whole
    duration, every other leg for its first ``MAX_EVENTS`` events.
    Returns ``(system, result)``."""
    if prefix == REFRESH:
        config = SystemConfig.tiny(seed)
        factory = refresh_monitor_factory(scheme, config.rrm)
        system = System(config, workload, Scheme.RRM, monitor_factory=factory)
        return system, system.run()
    system = System(leg_config(prefix, workload, seed), workload, Scheme(scheme))
    return system, system.run(max_events=MAX_EVENTS)
