"""Registration runs: one event and one monitor call per write group.

A registration event ``(EV_REGISTER, gap, block, (dirty, count))`` stands
for ``count`` single registrations in a row (repro.workloads.events).
These properties hold the run to that definition at both ends:

- each monitor's ``register_llc_write(block, dirty, count)`` leaves it in
  the state ``count`` single calls would, including when the run's first
  registration evicts an entry, and the refresh sink's enqueue registers
  other regions of the same set before the run goes on (the cores an
  enqueue's scheduler kick wakes do that in a real run);
- a System whose streams are spelled back into single registrations gives
  the same result as the stock one.
"""

from dataclasses import asdict, replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import PromotionMonitor
from repro.core.config import RRMConfig
from repro.core.monitor import RegionRetentionMonitor
from repro.core.multimode import TieredRetentionMonitor, TieredRRMConfig
from repro.pcm.write_modes import WriteModeTable
from repro.sim.config import SystemConfig
from repro.sim.schemes import Scheme
from repro.sim.system import System
from repro.workloads.events import EV_REGISTER

MONITORS = ("rrm", "tiered", "promotion")


def register(monitor, block, dirty, count, singles):
    """A run of *count*, as one call or as *count* single calls."""
    if singles:
        for _ in range(count):
            monitor.register_llc_write(block, dirty)
    else:
        monitor.register_llc_write(block, dirty, count)


class ReentrantSink:
    """Refresh sink that accepts everything and, on each of its first
    enqueues while *armed*, registers the next run of *reentries* into
    the monitor."""

    def __init__(self, reentries, singles):
        self.monitor = None
        self.reentries = list(reentries)
        self.singles = singles
        self.requests = []
        self.armed = True

    def can_accept(self, rtype, block):
        return True

    def enqueue(self, request):
        self.requests.append(
            (request.rtype, request.block, request.n_sets, request.deadline_ns)
        )
        if self.armed and self.reentries:
            block, dirty, count = self.reentries.pop(0)
            register(self.monitor, block, dirty, count, self.singles)

    def notify_space(self, rtype, block, callback, refuse=None):
        raise AssertionError("the sink never refuses a refresh")


def build(kind, config, reentries, singles):
    modes = WriteModeTable()
    sink = ReentrantSink(reentries, singles)
    if kind == "rrm":
        monitor = RegionRetentionMonitor(config, modes, controller=sink)
    elif kind == "tiered":
        monitor = TieredRetentionMonitor(config, modes, controller=sink)
    else:
        monitor = PromotionMonitor(config, modes, controller=sink)
    sink.monitor = monitor
    return monitor, sink


def state(monitor, sink):
    """Everything a registration can change, plus what it sent the sink."""
    tags = monitor.tags
    scalars = {
        name: value
        for name, value in vars(monitor).items()
        if isinstance(value, (bool, int, float))
    }
    return {
        "scalars": scalars,
        "stats": asdict(monitor.stats),
        "tags": (
            tags.lookups, tags.hits, tags.evictions, tags.allocations,
            tags._use_clock,
        ),
        "entries": [
            [(region, asdict(entry)) for region, entry in bucket.items()]
            for bucket in tags._sets
        ],
        "pending": monitor.pending_refresh_count,
        "requests": list(sink.requests),
    }


def make_config(kind, n_sets, n_ways, hot_threshold, streaming_filter, region_bytes):
    fields = dict(
        n_sets=n_sets,
        n_ways=n_ways,
        hot_threshold=hot_threshold,
        streaming_filter=streaming_filter,
        region_bytes=region_bytes,
        decay_ticks_per_interval=2,
    )
    if kind == "tiered":
        return TieredRRMConfig(**fields)
    return RRMConfig(**fields)


@st.composite
def scenarios(draw):
    n_sets = draw(st.sampled_from([1, 1, 2, 4]))
    n_ways = draw(st.sampled_from([1, 1, 1, 2, 4]))
    hot_threshold = draw(st.integers(1, 8))
    streaming_filter = draw(st.booleans())
    region_bytes = draw(st.sampled_from([128, 4096]))
    configs = {
        # The tiered monitor needs room for a warm tier below the
        # threshold.
        kind: make_config(
            kind, n_sets, n_ways,
            max(2, hot_threshold) if kind == "tiered" else hot_threshold,
            streaming_filter, region_bytes,
        )
        for kind in MONITORS
    }
    config = configs["rrm"]
    # Four regions of set 0 and one of set 1 (set 0 when there is one
    # set), so set 0 fills and evicts; mostly dirty runs of up to twice
    # the threshold, so they cross it and make victims hot.
    regions = st.sampled_from([0, n_sets, 2 * n_sets, 3 * n_sets, 1])
    offsets = st.integers(0, config.blocks_per_region - 1)
    blocks = st.builds(
        lambda r, o: r * config.blocks_per_region + o, regions, offsets
    )
    dirty = st.sampled_from([True, True, True, False])
    runs = st.tuples(blocks, dirty, st.integers(1, 2 * hot_threshold))
    registration = st.tuples(st.just("register"), runs)
    ops = st.lists(
        st.one_of(
            registration,
            registration,
            registration,
            st.tuples(st.just("decide"), blocks),
            st.tuples(st.just("decay"), st.none()),
            st.tuples(st.just("refresh"), st.none()),
        ),
        min_size=1,
        max_size=30,
    )
    return configs, draw(ops), draw(st.lists(runs, min_size=1, max_size=6))


def apply(monitor, sink, op, arg, singles):
    # The sweeps over the tag array are not re-entered: they iterate its
    # sets while they enqueue.
    sink.armed = op in ("register", "decide")
    if op == "register":
        block, dirty, count = arg
        register(monitor, block, dirty, count, singles)
    elif op == "decide":
        monitor.decide_write_mode(arg)
    elif op == "decay":
        monitor.on_decay_tick()
    else:
        monitor.on_refresh_interrupt()


#: 100 examples in tier-1, ten times as many under the ``thorough``
#: hypothesis profile (tests/conftest.py).
@settings(max_examples=settings.default.max_examples, deadline=None)
@given(scenario=scenarios())
def test_run_equals_single_registrations(scenario):
    configs, ops, reentries = scenario
    for kind, config in configs.items():
        run_monitor, run_sink = build(kind, config, reentries, singles=False)
        ref_monitor, ref_sink = build(kind, config, reentries, singles=True)
        for op, arg in ops:
            apply(run_monitor, run_sink, op, arg, singles=False)
            apply(ref_monitor, ref_sink, op, arg, singles=True)
            assert state(run_monitor, run_sink) == state(
                ref_monitor, ref_sink
            ), (kind, op, arg)


@pytest.mark.parametrize("kind", MONITORS)
def test_entry_evicted_under_its_run(kind):
    """One set of one way, threshold 1. A hot region 0 is evicted by a
    run on region 1; its slow rewrite's enqueue registers region 2, which
    evicts region 1's new entry; the rest of region 1's run allocates
    again and evicts region 2 (hot, so rewritten too)."""
    config = make_config(kind, 1, 1, 2 if kind == "tiered" else 1, True, 4096)
    reentries = [(2 * 64 + 5, True, 2)]
    states = []
    for singles in (False, True):
        monitor, sink = build(kind, config, reentries, singles)
        monitor.register_llc_write(3, True, 2)  # region 0, hot
        if kind == "promotion":
            monitor.decide_write_mode(3)  # the policy tracks memory writes
            monitor.decide_write_mode(64 + 1)
        else:
            register(monitor, 64 + 1, True, 3, singles)  # region 1
        states.append(state(monitor, sink))
    assert states[0] == states[1]
    if kind != "promotion":
        # region 0, region 1, region 2 (re-entrant), region 1 again.
        assert states[0]["tags"][3] == 4
        assert [region for region, _ in states[0]["entries"][0]] == [1]


# ----------------------------------------------------------------------
# System level: the stock runs against streams of single registrations.
# ----------------------------------------------------------------------
def single_registrations(events):
    """*events* with each registration run spelled as runs of one."""
    for event in events:
        kind, gap, block, payload = event
        if kind != EV_REGISTER:
            yield event
            continue
        dirty, count = payload
        for _ in range(count):
            yield (kind, gap, block, (dirty, 1))
            gap = 0


def run_system(config, workload, scheme, monitor_factory, max_events, singles):
    build_streams = System._build_streams

    def streams(self):
        built = build_streams(self)
        return [single_registrations(s) for s in built] if singles else built

    with mock.patch.object(System, "_build_streams", streams):
        system = System(config, workload, scheme, monitor_factory=monitor_factory)
    result = system.run(max_events=max_events)
    sim = system.sim
    return (
        result.as_dict(),
        result.rrm_stats,
        result.stalls,
        [asdict(core.stats) for core in system.multicore.cores],
        (sim.events_processed, sim.events_scheduled, sim.events_cancelled),
    )


def tiered_factory(rrm):
    config = TieredRRMConfig(
        n_sets=rrm.n_sets,
        n_ways=rrm.n_ways,
        hot_threshold=rrm.hot_threshold,
        refresh_slack_fraction=rrm.refresh_slack_fraction,
    )
    return lambda modes, sim, controller: TieredRetentionMonitor(
        config, modes, sim=sim, controller=controller
    )


#: 100 examples in tier-1, ten times as many under the ``thorough``
#: hypothesis profile (tests/conftest.py).
@settings(max_examples=settings.default.max_examples, deadline=None)
@given(
    n_cores=st.integers(1, 4),
    scheme=st.sampled_from(list(Scheme) + ["tiered"]),
    workload=st.sampled_from(["GemsFDTD", "mcf", "hmmer", "lbm"]),
    rrm_ways=st.sampled_from([None, 1, 2]),
    seed=st.integers(1, 50),
    max_events=st.integers(500, 4000),
)
def test_system_matches_single_registration_streams(
    n_cores, scheme, workload, rrm_ways, seed, max_events
):
    base = SystemConfig.tiny(seed=seed)
    rrm = base.rrm if rrm_ways is None else replace(base.rrm, n_ways=rrm_ways)
    config = replace(base, n_cores=n_cores, rrm=rrm)
    factory = None
    if scheme == "tiered":
        scheme, factory = Scheme.RRM, tiered_factory(rrm)
    runs = run_system(config, workload, scheme, factory, max_events, False)
    singles = run_system(config, workload, scheme, factory, max_events, True)
    assert runs == singles
