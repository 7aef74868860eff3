"""Tests for the exact-count profile (repro.profiling).

Covers the Profile artifact (round trip, schema checks, ledger metrics,
exact diff, report), cProfile call counting, the engine's event-cost
accounting, and — load-bearing for everything else — that a profiled
run is bit-identical to an unprofiled one.
"""

import json
import threading
from dataclasses import dataclass

import pytest

from repro.engine import EventCostAccounting, Simulator, owner_label
from repro.profiling import (
    Profile,
    ProfileError,
    count_calls,
    diff_profiles,
    format_diff,
    format_profile,
    load_profile,
    subsystem_of,
)
from repro.sim.config import SystemConfig
from repro.sim.schemes import Scheme
from repro.sim.system import System
from repro.telemetry import TelemetryConfig


class TestProfileArtifact:
    @staticmethod
    def _sample_profile() -> Profile:
        return Profile(
            meta={"workload": "hmmer", "scheme": "RRM", "python": "3.11.7"},
            dispatch_counts={
                "repro.cpu.core_model:CoreModel._wake_time": 7,
                "repro.memctrl.controller:MemoryController._complete": 5,
            },
            ncalls={
                "repro/engine/simulator.py:129:schedule_at": 12,
                "~:0:<built-in method builtins.len>": 30,
            },
        )

    def test_subsystem_of(self):
        assert subsystem_of("repro.engine.simulator:Simulator.run") == "engine"
        assert subsystem_of("repro:main") == "sim"
        assert subsystem_of("json.decoder:JSONDecoder.decode") == "other"

    def test_ledger_metrics_families(self):
        metrics = self._sample_profile().ledger_metrics()
        assert metrics == {
            "prof_dispatch_total": 12.0,
            "prof_dispatch_cpu": 7.0,
            "prof_dispatch_memctrl": 5.0,
        }

    def test_save_load_round_trip(self, tmp_path):
        prof = self._sample_profile()
        path = tmp_path / "p.json"
        prof.save(path)
        assert json.loads(path.read_text())["schema"] == 2
        loaded = load_profile(path)
        assert loaded == prof

    def test_load_missing_and_torn(self, tmp_path):
        with pytest.raises(ProfileError):
            load_profile(tmp_path / "absent.json")
        torn = tmp_path / "torn.json"
        torn.write_text('{"schema": 2, "ncalls"')
        with pytest.raises(ProfileError):
            load_profile(torn)

    def test_load_newer_schema_rejected(self, tmp_path):
        newer = tmp_path / "newer.json"
        newer.write_text('{"schema": 99}')
        with pytest.raises(ProfileError):
            load_profile(newer)

    def test_load_sampler_schema_rejected(self, tmp_path):
        old = tmp_path / "old.json"
        old.write_text('{"schema": 1, "folded": {"a:f": 3}, "samples": 3}')
        with pytest.raises(ProfileError, match="schema-1") as info:
            load_profile(old)
        assert "\n" not in str(info.value)

    def test_diff_identical_profiles_is_empty(self):
        prof = self._sample_profile()
        assert diff_profiles(prof, prof) == []
        assert "every count is equal" in format_diff(prof, prof)

    def test_diff_flags_real_movement(self):
        a = self._sample_profile()
        b = self._sample_profile()
        b.ncalls["repro/engine/simulator.py:129:schedule_at"] = 13
        b.dispatch_counts["repro.core.monitor:Monitor.tick"] = 1
        assert diff_profiles(a, b) == [
            ("dispatch_counts", "repro.core.monitor:Monitor.tick", 0, 1),
            ("ncalls", "repro/engine/simulator.py:129:schedule_at", 12, 13),
        ]
        text = format_diff(a, b)
        assert "2 counts differ" in text
        assert "12 → 13" in text
        assert "schedule_at" in text

    def test_report_lists_both_tables(self):
        text = format_profile(self._sample_profile())
        assert "event dispatch (12 callbacks)" in text
        assert "cpu 7, memctrl 5" in text
        assert "42 calls, 12 Python-level, 2 functions" in text

    def test_empty_profile_formats_cleanly(self):
        text = format_profile(Profile())
        assert "empty profile" in text


@dataclass
class _PointA:
    x: int


@dataclass
class _PointB:
    y: int


class TestCountCalls:
    def test_counts_calls_per_function(self):
        def leaf():
            return 1

        def root():
            return sum(leaf() for _ in range(5))

        result, ncalls = count_calls(root)
        assert result == 5
        (leaf_label,) = [k for k in ncalls if k.endswith(":leaf")]
        assert ncalls[leaf_label] == 5
        # Named relative to its sys.path entry, not by absolute path.
        assert leaf_label.split(":")[0].endswith("test_profiling.py")
        assert not leaf_label.startswith("/")
        assert "~:0:<built-in method builtins.sum>" in ncalls

    def test_shared_labels_add_up(self):
        # Every dataclass __init__ is compiled from a string, so two
        # classes share one file:line:function label.
        def build():
            return [_PointA(1), _PointB(2), _PointB(3)]

        _, ncalls = count_calls(build)
        inits = {k: v for k, v in ncalls.items() if k.endswith(":__init__")}
        assert sum(inits.values()) == 3
        assert len(inits) == 1


class TestEventCostAccounting:
    def test_dispatch_counts_by_owner(self):
        ticks = {"n": 0}

        def on_tick():
            ticks["n"] += 1

        sim = Simulator()
        sim.enable_cost_accounting()
        sim.schedule_periodic(1e-3, on_tick)
        sim.run(until=5.5e-3)
        accounting = sim.cost_accounting
        assert isinstance(accounting, EventCostAccounting)
        assert ticks["n"] == 5
        label = owner_label(on_tick)
        assert accounting.counts[label] == ticks["n"]
        assert accounting.dispatches_total >= ticks["n"]

    def test_owner_label_resolves_bound_methods(self):
        class Widget:
            def poke(self):
                pass

        label = owner_label(Widget().poke)
        assert label.endswith(":TestEventCostAccounting."
                              "test_owner_label_resolves_bound_methods."
                              "<locals>.Widget.poke")

    def test_accounting_off_means_no_owner_stamping(self):
        sim = Simulator()
        sim.schedule_at(1e-6, lambda: None)
        assert sim.cost_accounting is None


class TestBitIdentity:
    """The acceptance criterion: profiling-on == profiling-off."""

    def test_profiled_run_is_bit_identical(self):
        config = SystemConfig.tiny(seed=3).with_duration(0.02)
        plain = System(config, "hmmer", Scheme.RRM).run()
        profiled = System(
            config,
            "hmmer",
            Scheme.RRM,
            telemetry=TelemetryConfig(profile=True, trace=False),
        ).run()
        assert plain.as_dict() == profiled.as_dict()
        assert plain.profile is None
        assert profiled.profile is not None

    def test_profiled_run_starts_no_thread(self):
        config = SystemConfig.tiny(seed=3).with_duration(0.002)
        system = System(
            config,
            "hmmer",
            Scheme.RRM,
            telemetry=TelemetryConfig(profile=True, trace=False),
        )
        before = threading.active_count()
        seen = []
        system.sim.schedule_at(1.0, lambda: seen.append(threading.active_count()))
        system.run()
        assert seen == [before]

    def test_profile_side_channel_contents(self):
        config = SystemConfig.tiny(seed=3).with_duration(0.02)
        result = System(
            config,
            "hmmer",
            Scheme.RRM,
            telemetry=TelemetryConfig(profile=True, trace=False),
        ).run()
        prof = Profile.from_json_dict(result.profile)
        assert prof.dispatch_counts  # deterministic accounting populated
        assert prof.ncalls == {}  # cProfile runs only in `profile run`
        assert prof.meta["workload"] == "hmmer"
        assert result.profile["ledger_metrics"] == prof.ledger_metrics()
        assert prof.ledger_metrics()["prof_dispatch_total"] == float(
            result.sim_events
        )

    def test_dispatch_counts_deterministic_across_runs(self):
        config = SystemConfig.tiny(seed=3).with_duration(0.02)
        telemetry = TelemetryConfig(profile=True, trace=False)
        a = System(config, "hmmer", Scheme.RRM, telemetry=telemetry).run()
        b = System(config, "hmmer", Scheme.RRM, telemetry=telemetry).run()
        assert a.profile["dispatch_counts"] == b.profile["dispatch_counts"]

    def test_diff_of_identical_code_is_exact(self):
        config = SystemConfig.tiny(seed=3).with_duration(0.005)
        telemetry = TelemetryConfig(profile=True, trace=False)
        profs = []
        for _ in range(2):
            result = System(
                config, "hmmer", Scheme.RRM, telemetry=telemetry
            ).run()
            prof = Profile.from_json_dict(result.profile)
            _, prof.ncalls = count_calls(
                System(config, "hmmer", Scheme.RRM).run
            )
            profs.append(prof)
        assert profs[0].ncalls
        assert diff_profiles(profs[0], profs[1]) == []
