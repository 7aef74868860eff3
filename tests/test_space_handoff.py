"""The write-queue slot hand-off.

After an issue out of a queue, the controller wakes the queue's space
waiters in registration order only while the queue has room; a waiter
reached while the queue is full again gets one call to the refusal hook
it registered, and stays registered in order without retrying. The
reference below drops every refusal hook, so each waiter is woken
through its full wake callback, retries, and re-registers itself.
"""

from dataclasses import asdict, replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.system
from repro.cpu.core_model import CoreModel, CoreParams
from repro.engine import Simulator
from repro.memctrl.controller import MemoryController
from repro.memctrl.request import MemRequest, RequestType
from repro.pcm.device import PCMDevice
from repro.sim.config import SystemConfig
from repro.sim.schemes import Scheme
from repro.sim.system import System
from repro.utils.units import parse_size
from repro.workloads.events import EV_WRITE


class FullWakeController(MemoryController):
    """Wakes every space waiter through its full wake callback."""

    def notify_space(self, rtype, block, callback, refuse=None):
        super().notify_space(rtype, block, callback)


def run_system(config, workload, scheme, max_events, controller_cls):
    with mock.patch.object(repro.sim.system, "MemoryController", controller_cls):
        system = System(config, workload, scheme)
    result = system.run(max_events=max_events)
    cores = [asdict(core.stats) for core in system.multicore.cores]
    sim = system.sim
    counts = (sim.events_processed, sim.events_scheduled, sim.events_cancelled)
    return result.as_dict(), result.stalls, cores, counts


#: 100 examples in tier-1, ten times as many under the ``thorough``
#: hypothesis profile (tests/conftest.py).
@settings(max_examples=settings.default.max_examples, deadline=None)
@given(
    n_cores=st.integers(2, 8),
    write_capacity=st.integers(2, 16),
    read_capacity=st.integers(2, 16),
    scheme=st.sampled_from([Scheme.STATIC_7, Scheme.STATIC_3, Scheme.RRM]),
    workload=st.sampled_from(["GemsFDTD", "mcf", "hmmer"]),
    seed=st.integers(1, 50),
    max_events=st.integers(500, 4000),
)
def test_slot_handoff_matches_full_wake(
    n_cores, write_capacity, read_capacity, scheme, workload, seed, max_events
):
    base = SystemConfig.tiny(seed=seed)
    config = replace(
        base,
        n_cores=n_cores,
        memory=replace(
            base.memory,
            write_queue_capacity=write_capacity,
            read_queue_capacity=read_capacity,
        ),
    )
    assert run_system(
        config, workload, scheme, max_events, MemoryController
    ) == run_system(config, workload, scheme, max_events, FullWakeController)


class TestParkedWriters:
    """Writers parked on one full write queue when a single slot frees."""

    @staticmethod
    def setup(sim, controller_cls, end_times):
        device = PCMDevice(
            size_bytes=parse_size("16MB"), n_channels=2, banks_per_channel=2
        )
        controller = controller_cls(
            sim, device, write_queue_capacity=1,
            write_drain_high=1, write_drain_low=0,
        )
        # Bank 0 of channel 0 serves one write and holds another queued:
        # the one-entry write queue is full until the first completes.
        for _ in range(2):
            controller.enqueue(
                MemRequest(rtype=RequestType.WRITE, block=0, n_sets=7)
            )
        params = CoreParams(freq_ghz=1.0, base_cpi=1.0, mlp=2)
        cores = [
            CoreModel(
                sim, core_id, iter([(EV_WRITE, 0, 0, False)]), controller,
                params, end_time_ns=end,
            )
            for core_id, end in enumerate(end_times)
        ]
        for core in cores:
            core.start()
        sim.run(until=1.0)
        assert [core.stats.write_queue_stalls for core in cores] == [1] * len(cores)
        return controller, cores

    @staticmethod
    def waiting(controller):
        queue = controller._queues[0].write_queue
        return [callback.__self__.core_id for callback, _ in queue.space_waiters]

    def test_one_producer_reenters_the_rest_keep_their_order(self, sim):
        controller, cores = self.setup(sim, MemoryController, [None] * 4)
        assert self.waiting(controller) == [0, 1, 2, 3]
        retries = []
        can_accept = controller.can_accept

        def counted(rtype, block):
            retries.append(sim.now)
            return can_accept(rtype, block)

        controller.can_accept = counted
        # The first write completes at 1150 ns and the queued one issues.
        sim.run(until=1200.0)
        assert retries == [1150.0]
        assert [core.stats.writes_issued for core in cores] == [1, 0, 0, 0]
        assert [core.stats.write_queue_stalls for core in cores] == [1, 2, 2, 2]
        assert [core._t for core in cores[1:]] == [1150.0] * 3
        assert self.waiting(controller) == [1, 2, 3]

    def test_core_past_its_end_time_parks_without_a_stall(self, sim):
        controller, cores = self.setup(sim, MemoryController, [None, 500.0, None])
        sim.run(until=1200.0)
        assert [core.stats.write_queue_stalls for core in cores] == [1, 1, 2]
        assert cores[1].parked
        assert self.waiting(controller) == [2]

    def test_matches_the_full_wake(self):
        outcomes = []
        for controller_cls in (MemoryController, FullWakeController):
            sim = Simulator()
            _, cores = self.setup(sim, controller_cls, [None, 500.0, None, None])
            sim.run()
            outcomes.append(
                ([asdict(core.stats) for core in cores], [core._t for core in cores])
            )
        assert outcomes[0] == outcomes[1]


def test_notify_space_calls_stay_below_requests_issued():
    """Refused waiters no longer re-register through ``notify_space``:
    on a heavy static cell it is called at most once per request issued
    (about 1.2 times before the hand-off)."""
    config = SystemConfig.scaled(1, drift_scale=125).with_duration(0.02)
    system = System(config, "GemsFDTD", Scheme.STATIC_7)
    controller = system.controller
    calls = []
    notify_space = controller.notify_space

    def counted(*args):
        calls.append(args[0])
        notify_space(*args)

    controller.notify_space = counted
    system.run(max_events=20_000)
    cores = system.multicore.cores
    issued = sum(core.stats.reads_issued + core.stats.writes_issued for core in cores)
    assert RequestType.WRITE in calls
    assert len(calls) <= issued
