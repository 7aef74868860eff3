"""Tests for the tiered (multi-mode) RRM extension."""

import pytest

from repro.core.config import RRMConfig
from repro.core.multimode import TieredRetentionMonitor, TieredRRMConfig
from repro.engine import Simulator
from repro.errors import ConfigError
from repro.memctrl.request import RequestType
from repro.utils.units import s_to_ns


class StubController:
    def __init__(self):
        self.requests = []

    def can_accept(self, rtype, block):
        return True

    def enqueue(self, request):
        self.requests.append(request)

    def notify_space(self, rtype, block, callback):  # pragma: no cover
        raise AssertionError("unexpected backpressure in stub")


@pytest.fixture
def config():
    return TieredRRMConfig(n_sets=4, n_ways=4, hot_threshold=16)


@pytest.fixture
def monitor(config, modes):
    return TieredRetentionMonitor(config, modes, controller=StubController())


def write_n(monitor, block, count):
    for _ in range(count):
        monitor.register_llc_write(block, was_dirty=True)


class TestConfig:
    def test_default_warm_threshold_is_half(self, config):
        assert config.effective_warm_threshold == 8

    def test_explicit_warm_threshold(self):
        cfg = TieredRRMConfig(n_sets=4, n_ways=4, warm_threshold=4)
        assert cfg.effective_warm_threshold == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mid_n_sets": 3},
            {"mid_n_sets": 7},
            {"warm_threshold": 0},
            {"warm_threshold": 16},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TieredRRMConfig(n_sets=4, n_ways=4, **kwargs)

    def test_plain_config_rejected(self, modes):
        with pytest.raises(ConfigError):
            TieredRetentionMonitor(RRMConfig(n_sets=4, n_ways=4), modes)

    def test_mid_refresh_interval_tracks_mid_retention(self, monitor, modes):
        retention = modes.mode(5).retention_s
        assert monitor.mid_refresh_interval_s == pytest.approx(
            retention * (1 - monitor.config.refresh_slack_fraction)
        )


class TestTierTransitions:
    def test_cold_then_warm_then_hot(self, monitor):
        block = 3
        write_n(monitor, block, 7)
        assert monitor.decide_write_mode(block) == 7
        write_n(monitor, block, 1)  # 8 = warm threshold
        write_n(monitor, block, 1)  # registration while warm sets mid bit
        assert monitor.decide_write_mode(block) == 5
        write_n(monitor, block, 7)  # 16 -> hot
        assert monitor.decide_write_mode(block) == 3

    def test_hot_registration_clears_mid_bit(self, monitor, config):
        block = 3
        write_n(monitor, block, 20)
        entry = monitor.tags.lookup(0, touch=False)
        offset = config.block_offset(block)
        assert entry.vector_bit(offset)
        assert not entry.mid_bit(offset)

    def test_other_blocks_unaffected(self, monitor):
        write_n(monitor, 3, 20)
        assert monitor.decide_write_mode(9) == 7

    def test_mid_decisions_counted(self, monitor):
        write_n(monitor, 3, 9)
        monitor.decide_write_mode(3)
        assert monitor.mid_decisions == 1


class TestMidRefresh:
    def test_mid_blocks_refreshed_with_mid_mode(self, monitor):
        write_n(monitor, 3, 9)  # warm; mid bit set
        controller = monitor.controller
        monitor.on_mid_refresh_interrupt()
        mid = [r for r in controller.requests if r.n_sets == 5]
        assert [r.block for r in mid] == [3]
        assert mid[0].rtype is RequestType.RRM_REFRESH

    def test_mid_refresh_deadline_is_the_slack_after_now(self, config, modes):
        sim = Simulator()
        sim.run(until=12_345.0)
        monitor = TieredRetentionMonitor(
            config, modes, sim=sim, controller=StubController()
        )
        write_n(monitor, 3, 9)       # region 0: warm, mid bit set
        write_n(monitor, 64 + 7, 9)  # region 1: warm, mid bit set
        monitor.on_mid_refresh_interrupt()
        mid = [r for r in monitor.controller.requests if r.n_sets == 5]
        assert sorted(r.block for r in mid) == [3, 64 + 7]
        expected = sim.now + s_to_ns(monitor.mid_refresh_slack_s)
        assert sim.now > 0
        assert all(r.deadline_ns == expected for r in mid)

    def test_fast_interrupt_ignores_mid_blocks(self, monitor):
        write_n(monitor, 3, 9)
        monitor.on_refresh_interrupt()
        assert monitor.controller.requests == []

    def test_fault_injection_disables_mid_refresh(self, modes):
        config = TieredRRMConfig(
            n_sets=4, n_ways=4, selective_refresh_enabled=False
        )
        monitor = TieredRetentionMonitor(config, modes, controller=StubController())
        write_n(monitor, 3, 9)
        monitor.on_mid_refresh_interrupt()
        assert monitor.controller.requests == []


class TestGradedDecay:
    def _wrap(self, monitor):
        for _ in range(monitor.config.decay_ticks_per_interval):
            monitor.on_decay_tick()

    def test_hot_downgrades_to_warm_not_cold(self, monitor):
        block = 3
        write_n(monitor, block, 16)  # hot, counter 16
        self._wrap(monitor)          # renew: halve to 8
        assert monitor.tags.lookup(0, touch=False).hot
        self._wrap(monitor)          # counter 8 >= warm 8 -> downgrade
        entry = monitor.tags.lookup(0, touch=False)
        assert not entry.hot
        assert entry.mid_bit(monitor.config.block_offset(block))
        assert monitor.downgrades == 1
        # The downgrade rewrote the block with the mid mode.
        mid = [r for r in monitor.controller.requests if r.n_sets == 5]
        assert [r.block for r in mid] == [block]
        assert monitor.decide_write_mode(block) == 5

    def test_warm_fully_demotes_when_idle(self, monitor):
        block = 3
        write_n(monitor, block, 9)   # warm (counter 9), mid bit set
        self._wrap(monitor)          # warm renew: halve to 4 < warm
        self._wrap(monitor)          # 4 < 8 -> full demotion
        entry = monitor.tags.lookup(0, touch=False)
        assert entry.mid_retention_vector == 0
        slow = [
            r for r in monitor.controller.requests
            if r.rtype is RequestType.RRM_SLOW_REFRESH
        ]
        assert [r.block for r in slow] == [block]
        assert monitor.decide_write_mode(block) == 7

    def test_eviction_rewrites_both_tiers(self, monitor, config):
        write_n(monitor, 0, 20)          # region 0: hot, fast bit 0
        write_n(monitor, 64 * 4 + 1, 9)  # region 4 (same set): warm, mid bit 1
        # Fill set 0 to force evictions.
        for way in range(2, config.n_ways + 2):
            region = way * config.n_sets
            monitor.register_llc_write(region * 64, was_dirty=True)
        slow = [
            r for r in monitor.controller.requests
            if r.rtype is RequestType.RRM_SLOW_REFRESH
        ]
        assert slow, "eviction should rewrite tracked blocks slow"


class TestEndToEnd:
    def test_tiered_monitor_runs_in_system(self, tiny_config):
        """Plug the tiered monitor in through System's monitor_factory
        extension point."""
        from repro.sim.schemes import Scheme
        from repro.sim.system import System

        config = tiny_config
        tiered_config = TieredRRMConfig(
            n_sets=config.rrm.n_sets,
            n_ways=config.rrm.n_ways,
            refresh_slack_fraction=config.rrm.refresh_slack_fraction,
        )
        system = System(
            config, "GemsFDTD", Scheme.RRM,
            monitor_factory=lambda modes, sim, controller: (
                TieredRetentionMonitor(
                    tiered_config, modes, sim=sim, controller=controller
                )
            ),
        )
        result = system.run()
        assert result.instructions > 0
        assert system.rrm.mid_decisions > 0
        # All three modes appear in the completed write mix: fast, slow,
        # and the mid tier (counted in neither fast nor slow).
        assert result.fast_writes > 0 and result.slow_writes > 0
        assert result.fast_writes + result.slow_writes < result.writes
