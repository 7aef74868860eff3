"""Tests for the hot-path microscope (repro.profiling).

Covers the sampler's thread lifecycle (always joined, bounded ring),
the Profile artifact (round trip, merge, diff, ledger metrics), the
flamegraph renderer, the memory census, the engine's event-cost
accounting, and — load-bearing for everything else — that a profiled
run is bit-identical to an unprofiled one.
"""

import threading

import pytest

from repro.engine import EventCostAccounting, Simulator, owner_label
from repro.errors import ConfigError
from repro.profiling import (
    DEFAULT_DIFF_TOLERANCE,
    Profile,
    SamplingProfiler,
    deep_sizeof,
    diff_profiles,
    format_diff,
    format_profile,
    load_profile,
    merge_profiles,
    render_flamegraph,
    subsystem_of,
    take_census,
)
from repro.profiling.profile import ProfileError
from repro.sim.config import SystemConfig
from repro.sim.schemes import Scheme
from repro.sim.system import System
from repro.telemetry import TelemetryConfig


class TestSamplerLifecycle:
    def test_stop_joins_thread(self):
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.start()
        assert profiler.running
        thread = profiler._thread
        profiler.stop()
        assert not thread.is_alive()
        assert not profiler.running

    def test_stop_is_idempotent(self):
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.start()
        profiler.stop()
        profiler.stop()  # second stop must not raise or hang
        assert not profiler.running

    def test_context_manager_joins_on_exception(self):
        profiler = SamplingProfiler(interval_s=0.001)
        with pytest.raises(ValueError):
            with profiler:
                assert profiler.running
                raise ValueError("profiled block blew up")
        assert not profiler.running
        assert not profiler._thread.is_alive()

    def test_no_sampler_thread_leaks(self):
        before = {t.name for t in threading.enumerate()}
        with SamplingProfiler(interval_s=0.001):
            pass
        after = {
            t.name for t in threading.enumerate() if t.name not in before
        }
        assert "repro-sampler" not in after

    def test_start_twice_rejected(self):
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.start()
        try:
            with pytest.raises(ConfigError):
                profiler.start()
        finally:
            profiler.stop()

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            SamplingProfiler(interval_s=0.0)
        with pytest.raises(ConfigError):
            SamplingProfiler(max_samples=0)

    def test_ring_respects_bound(self):
        # Drive capture directly: the long interval keeps the daemon
        # thread idle, start() makes this thread the target, and
        # spoofing own_tid makes it sampleable from itself.
        with SamplingProfiler(interval_s=60.0, max_samples=4) as profiler:
            for _ in range(10):
                assert profiler.sample_once(own_tid=-1) >= 1
        assert profiler.retained <= 4
        assert profiler.samples_taken >= 10
        prof = profiler.build_profile()
        assert prof.retained <= 4
        assert prof.samples == profiler.samples_taken

    def test_sampled_stack_labels_this_test(self):
        with SamplingProfiler(interval_s=60.0) as profiler:
            profiler.sample_once(own_tid=-1)
        prof = profiler.build_profile()
        leaves = [s.rsplit(";", 1)[-1] for s in prof.folded]
        assert any("sample_once" in leaf or "test_" in leaf for leaf in leaves)

    def test_empty_profile_formats_cleanly(self):
        prof = SamplingProfiler(interval_s=1.0).build_profile()
        text = format_profile(prof)
        assert "0 samples retained" in text
        assert "empty profile" in text


class TestProfileArtifact:
    @staticmethod
    def _sample_profile() -> Profile:
        return Profile(
            interval_s=0.005,
            duration_s=1.0,
            samples=10,
            retained=10,
            folded={
                "repro.sim.system:System.run;repro.engine.simulator:Simulator.run": 6,
                "repro.sim.system:System.run;repro.pcm.bank:Bank.schedule_read": 4,
            },
            dispatch_counts={"repro.cpu.core_model:CoreModel._wake_time": 7},
            dispatch_time_ns={"repro.cpu.core_model:CoreModel._wake_time": 5e6},
            memory={
                "by_subsystem": {"engine": 100, "pcm": 300},
                "total_bytes": 400,
                "touched_regions": 8,
                "bytes_per_touched_region": 50.0,
                "tracemalloc": None,
            },
        )

    def test_subsystem_of(self):
        assert subsystem_of("repro.engine.simulator:Simulator.run") == "engine"
        assert subsystem_of("repro:main") == "sim"
        assert subsystem_of("json.decoder:JSONDecoder.decode") == "other"

    def test_function_stats_dedups_recursion(self):
        prof = Profile(folded={"a:f;b:g;a:f": 3})
        stats = prof.function_stats()
        assert stats["a:f"]["total"] == 3  # once per sample, not per frame
        assert stats["a:f"]["self"] == 3
        assert stats["b:g"]["self"] == 0

    def test_subsystem_shares_sum_to_one(self):
        shares = self._sample_profile().subsystem_shares()
        assert shares == {"engine": 0.6, "pcm": 0.4}
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_ledger_metrics_families(self):
        metrics = self._sample_profile().ledger_metrics()
        assert metrics["prof_samples"] == 10.0
        assert metrics["prof_dispatch_total"] == 7.0
        assert metrics["prof_dispatch_cpu"] == 7.0
        assert metrics["prof_engine_self_share"] == pytest.approx(0.6)
        assert metrics["mem_bytes_total"] == 400.0
        assert metrics["mem_touched_regions"] == 8.0
        assert metrics["mem_bytes_per_touched_region"] == pytest.approx(50.0)

    def test_save_load_round_trip(self, tmp_path):
        prof = self._sample_profile()
        path = tmp_path / "p.json"
        prof.save(path)
        loaded = load_profile(path)
        assert loaded.folded == prof.folded
        assert loaded.dispatch_counts == prof.dispatch_counts
        assert loaded.memory == prof.memory

    def test_load_missing_and_torn(self, tmp_path):
        with pytest.raises(ProfileError):
            load_profile(tmp_path / "absent.json")
        torn = tmp_path / "torn.json"
        torn.write_text('{"schema": 1, "folded"')
        with pytest.raises(ProfileError):
            load_profile(torn)

    def test_load_newer_schema_rejected(self, tmp_path):
        newer = tmp_path / "newer.json"
        newer.write_text('{"schema": 99}')
        with pytest.raises(ProfileError):
            load_profile(newer)

    def test_folded_text_format(self):
        text = self._sample_profile().folded_text()
        for line in text.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert ";" in stack and int(count) > 0

    def test_merge_is_order_independent(self):
        a = Profile(samples=3, retained=3, folded={"x:f": 3},
                    dispatch_counts={"o:a": 2}, meta={"worker": 0})
        b = Profile(samples=5, retained=5, folded={"x:f": 1, "y:g": 4},
                    dispatch_counts={"o:a": 1, "o:b": 3}, meta={"worker": 1})
        ab, ba = merge_profiles([a, b]), merge_profiles([b, a])
        assert ab.to_json_dict() == ba.to_json_dict()
        assert ab.samples == 8
        assert ab.folded == {"x:f": 4, "y:g": 4}
        assert ab.dispatch_counts == {"o:a": 3, "o:b": 3}
        assert ab.meta["workers"] == [0, 1]
        assert ab.memory is None  # per-process censuses don't merge

    def test_diff_identical_profiles_within_tolerance(self):
        prof = self._sample_profile()
        diff = diff_profiles(prof, prof)
        assert diff.max_subsystem_delta == 0.0
        assert diff.within(DEFAULT_DIFF_TOLERANCE)
        assert "within tolerance" in format_diff(diff)

    def test_diff_flags_real_movement(self):
        a = Profile(retained=10, folded={"repro.engine.simulator:run": 10})
        b = Profile(retained=10, folded={"repro.pcm.bank:read": 10})
        diff = diff_profiles(a, b)
        assert diff.subsystem_deltas["engine"] == pytest.approx(-1.0)
        assert diff.subsystem_deltas["pcm"] == pytest.approx(1.0)
        assert not diff.within(DEFAULT_DIFF_TOLERANCE)
        assert "EXCEEDS" in format_diff(diff)


class TestFlamegraph:
    def test_renders_standalone_svg(self):
        prof = TestProfileArtifact._sample_profile()
        svg = render_flamegraph(prof)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "<script" not in svg
        assert "http-request" not in svg
        # Legend pairs color with word; frames carry title tooltips.
        assert ">engine</text>" in svg
        assert "<title>" in svg

    def test_same_profile_same_bytes(self):
        prof = TestProfileArtifact._sample_profile()
        assert render_flamegraph(prof) == render_flamegraph(prof)

    def test_empty_profile_renders(self):
        svg = render_flamegraph(Profile())
        assert "no samples recorded" in svg


class TestMemoryCensus:
    def test_deep_sizeof_counts_nested(self):
        flat = deep_sizeof([])
        nested = deep_sizeof([{"k": [1, 2, 3]}, (4, 5)])
        assert nested > flat

    def test_shared_state_charged_to_first_owner(self):
        shared = list(range(1000))

        class Holder:
            def __init__(self, payload):
                self.payload = payload

        first, second = Holder(shared), Holder(shared)
        census = take_census({"a": first, "b": second})
        assert census["by_subsystem"]["a"] > census["by_subsystem"]["b"]
        assert census["total_bytes"] == sum(census["by_subsystem"].values())

    def test_bytes_per_touched_region(self):
        census = take_census({"a": [1, 2, 3]}, touched_regions=4)
        assert census["touched_regions"] == 4
        assert census["bytes_per_touched_region"] == pytest.approx(
            census["total_bytes"] / 4
        )

    def test_none_roots_skipped(self):
        census = take_census({"a": [1], "b": None})
        assert "b" not in census["by_subsystem"]

    def test_tracemalloc_section_off_by_default(self):
        assert take_census({"a": [1]})["tracemalloc"] is None


class TestEventCostAccounting:
    def test_dispatch_counts_by_owner(self):
        ticks = {"n": 0}

        def on_tick():
            ticks["n"] += 1

        sim = Simulator()
        sim.enable_cost_accounting(clock=lambda: 0.0)
        sim.schedule_periodic(1e-3, on_tick)
        sim.run(until=5.5e-3)
        accounting = sim.cost_accounting
        assert accounting is not None
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
        assert prof.memory["total_bytes"] > 0
        assert prof.memory["touched_regions"] > 0
        metrics = prof.ledger_metrics()
        assert metrics["prof_dispatch_total"] > 0
        assert metrics["mem_bytes_per_touched_region"] > 0

    def test_dispatch_counts_deterministic_across_runs(self):
        config = SystemConfig.tiny(seed=3).with_duration(0.02)
        telemetry = TelemetryConfig(profile=True, trace=False)
        a = System(config, "hmmer", Scheme.RRM, telemetry=telemetry).run()
        b = System(config, "hmmer", Scheme.RRM, telemetry=telemetry).run()
        assert a.profile["dispatch_counts"] == b.profile["dispatch_counts"]

    def test_diff_of_identical_code_within_tolerance(self):
        config = SystemConfig.tiny(seed=3).with_duration(0.02)
        telemetry = TelemetryConfig(profile=True, trace=False)
        profs = [
            Profile.from_json_dict(
                System(config, "hmmer", Scheme.RRM, telemetry=telemetry)
                .run()
                .profile
            )
            for _ in range(2)
        ]
        diff = diff_profiles(profs[0], profs[1])
        # Same code, same workload: subsystem shares agree within the
        # sampling-noise bound documented in DESIGN.md section 15 —
        # the flat 5% default covers campaign-length profiles; short
        # runs widen it as 4/sqrt(retained samples).
        retained = min(profs[0].retained, profs[1].retained)
        tolerance = max(DEFAULT_DIFF_TOLERANCE, 4.0 / retained**0.5)
        assert diff.within(tolerance)
