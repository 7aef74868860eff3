"""Tests for the trace-driven core model."""

import pytest

from repro.cpu.core_model import CoreModel, CoreParams
from repro.errors import ConfigError
from repro.memctrl.controller import MemoryController
from repro.workloads.events import EV_READ, EV_REGISTER, EV_WRITE


def stream(events):
    return iter(list(events))


@pytest.fixture
def params():
    return CoreParams(freq_ghz=1.0, base_cpi=1.0, mlp=2, blocking_load_fraction=0.0)


def run_core(sim, controller, events, params, until=1e9, **kw):
    core = CoreModel(sim, 0, stream(events), controller, params, **kw)
    core.start()
    sim.run(until=until)
    return core


class TestInstructionAccounting:
    def test_gaps_retire_instructions(self, sim, controller, params):
        events = [(EV_READ, 100, 0, False), (EV_READ, 50, 64, False)]
        core = run_core(sim, controller, events, params)
        assert core.stats.retired_instructions == 150

    def test_ipc_computation(self, sim, controller, params):
        events = [(EV_READ, 1000, 0, False)]
        core = run_core(sim, controller, events, params)
        # 1000 instructions over the measured window.
        assert core.stats.ipc(duration_ns=2000.0, freq_ghz=1.0) == pytest.approx(0.5)

    def test_reads_issued_counted(self, sim, controller, params):
        events = [(EV_READ, 10, 0, False), (EV_READ, 10, 64, False)]
        core = run_core(sim, controller, events, params)
        assert core.stats.reads_issued == 2


class TestBlockingLoads:
    def test_blocking_load_serializes(self, sim, controller):
        params = CoreParams(
            freq_ghz=1.0, base_cpi=1.0, mlp=8, blocking_load_fraction=1.0
        )
        events = [(EV_READ, 10, 0, False), (EV_READ, 10, 0, False)]
        core = run_core(sim, controller, events, params)
        assert core.stats.blocking_stalls == 2
        # Second read issues only after the first completes + its gap.
        assert core.stats.reads_issued == 2

    def test_nonblocking_overlap_to_mlp(self, sim, controller, params):
        # mlp=2: the third read must wait for a completion.
        events = [(EV_READ, 1, i * 64, False) for i in range(3)]
        core = run_core(sim, controller, events, params)
        assert core.stats.mlp_stalls >= 1
        assert core.stats.reads_issued == 3


class TestWrites:
    def test_write_uses_mode_chooser(self, sim, controller, params):
        chosen = []

        def chooser(block):
            chosen.append(block)
            return 3

        events = [(EV_WRITE, 10, 128, False)]
        run_core(sim, controller, events, params, write_mode_chooser=chooser)
        assert chosen == [128]
        assert controller.stats.fast_writes == 1

    def test_default_mode_is_slow(self, sim, controller, params):
        events = [(EV_WRITE, 10, 0, False)]
        run_core(sim, controller, events, params)
        assert controller.stats.slow_writes == 1

    def test_write_queue_backpressure_stalls(self, sim, small_device, params):
        controller = MemoryController(
            sim, small_device, read_queue_capacity=4, write_queue_capacity=1,
        )
        # All writes to one bank; queue of 1 forces stalls.
        events = [(EV_WRITE, 1, 0, False) for _ in range(6)]
        core = run_core(sim, controller, events, params)
        assert core.stats.write_queue_stalls >= 1
        assert controller.stats.writes_completed == 6


class TestRegistrations:
    def test_register_sink_invoked(self, sim, controller, params):
        seen = []
        events = [(EV_REGISTER, 0, 5, (True, 3)), (EV_REGISTER, 0, 6, (False, 1))]
        core = run_core(
            sim, controller, events, params,
            register_sink=lambda block, dirty, count: seen.append(
                (block, dirty, count)
            ),
        )
        assert seen == [(5, True, 3), (6, False, 1)]
        assert core.stats.registrations == 4

    def test_registrations_without_sink_are_dropped(self, sim, controller, params):
        events = [(EV_REGISTER, 0, 5, (True, 2))]
        core = run_core(sim, controller, events, params)
        assert core.stats.registrations == 2

    def test_single_registration_encoding_fails_loudly(
        self, sim, controller, params
    ):
        """A bare dirty flag is the encoding before runs: it must raise,
        not count as one registration."""
        with pytest.raises(TypeError):
            run_core(sim, controller, [(EV_REGISTER, 0, 5, True)], params)

    def test_two_argument_sink_fails_loudly(self, sim, controller, params):
        with pytest.raises(TypeError):
            run_core(
                sim, controller, [(EV_REGISTER, 0, 5, (True, 2))], params,
                register_sink=lambda block, dirty: None,
            )


class TestEndTime:
    def test_core_parks_at_end_time(self, sim, controller, params):
        # Infinite stream; the core must stop pulling at end_time.
        def infinite():
            while True:
                yield (EV_READ, 100, 0, False)

        core = CoreModel(
            sim, 0, infinite(), controller, params, end_time_ns=1000.0
        )
        core.start()
        sim.run(until=5000.0)
        assert core.parked
        assert core.stats.retired_instructions <= 1100

    def test_exhausted_stream_parks(self, sim, controller, params):
        core = run_core(sim, controller, [(EV_READ, 10, 0, False)], params)
        assert core.parked


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"freq_ghz": 0.0},
            {"base_cpi": 0.0},
            {"mlp": 0},
            {"blocking_load_fraction": 1.5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            CoreParams(**kwargs)

    def test_cycle_time(self):
        assert CoreParams(freq_ghz=2.0).cycle_ns == pytest.approx(0.5)
        assert CoreParams(freq_ghz=2.0, base_cpi=0.5).ns_per_instruction == (
            pytest.approx(0.25)
        )
