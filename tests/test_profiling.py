"""Tests for the exact-count profile (repro.profiling).

Covers the Profile artifact (round trip, schema checks, ledger metrics,
exact diff, report), cProfile call counting, the dispatch counts that
``count_dispatches`` records from outside the engine, and — load-bearing
for everything else — that a profiled run is bit-identical to an
unprofiled one.
"""

import json
import sys
import threading
import types
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Simulator
from repro.profiling import (
    Profile,
    ProfileError,
    count_calls,
    count_dispatches,
    diff_profiles,
    format_diff,
    format_profile,
    load_profile,
    owner_label,
    subsystem_of,
)
from repro.profiling.counts import _qualnames
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
                "repro/engine/simulator.py:Simulator.schedule_at": 12,
                "~:<built-in method builtins.len>": 30,
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
        assert json.loads(path.read_text())["schema"] == 3
        loaded = load_profile(path)
        assert loaded == prof

    def test_load_missing_and_torn(self, tmp_path):
        with pytest.raises(ProfileError):
            load_profile(tmp_path / "absent.json")
        torn = tmp_path / "torn.json"
        torn.write_text('{"schema": 3, "ncalls"')
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
        with pytest.raises(ProfileError, match="has schema 1, not 3") as info:
            load_profile(old)
        assert "\n" not in str(info.value)

    def test_diff_identical_profiles_is_empty(self):
        prof = self._sample_profile()
        assert diff_profiles(prof, prof) == []
        assert "every count is equal" in format_diff(prof, prof)

    def test_diff_flags_real_movement(self):
        a = self._sample_profile()
        b = self._sample_profile()
        b.ncalls["repro/engine/simulator.py:Simulator.schedule_at"] = 13
        b.dispatch_counts["repro.core.monitor:Monitor.tick"] = 1
        assert diff_profiles(a, b) == [
            ("dispatch_counts", "repro.core.monitor:Monitor.tick", 0, 1),
            ("ncalls", "repro/engine/simulator.py:Simulator.schedule_at", 12, 13),
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
        (leaf_label,) = [k for k in ncalls if k.endswith(".leaf")]
        assert leaf_label.endswith(
            ":TestCountCalls.test_counts_calls_per_function.<locals>.leaf"
        )
        assert ncalls[leaf_label] == 5
        # Named relative to its sys.path entry, not by absolute path.
        assert leaf_label.split(":")[0].endswith("test_profiling.py")
        assert not leaf_label.startswith("/")
        assert "~:<built-in method builtins.sum>" in ncalls

    def test_shared_labels_add_up(self):
        # Every dataclass __init__ is compiled from a string, so two
        # classes share one file:qualname label, <string>:__init__.
        def build():
            return [_PointA(1), _PointB(2), _PointB(3)]

        _, ncalls = count_calls(build)
        inits = {k: v for k, v in ncalls.items() if k.endswith(":__init__")}
        assert inits == {"<string>:__init__": 3}

    @staticmethod
    def _count_module(path, source):
        """Count one call of ``work()`` from *source*, saved as *path*."""
        import importlib.util

        path.write_text(source)
        spec = importlib.util.spec_from_file_location("moved_mod", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return count_calls(module.work)[1]

    def test_moving_a_function_within_its_file_relabels_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.syspath_prepend(str(tmp_path))
        helper = (
            "class Box:\n"
            "    @staticmethod\n"
            "    def size(items):\n"
            "        return sum(1 for i in items if i)\n"
        )
        work = (
            "def work():\n"
            "    return sum(Box.size(range(n)) for n in range(4))\n"
        )
        path = tmp_path / "moved_mod.py"
        before = self._count_module(path, helper + "\n\n" + work)
        after = self._count_module(path, work + "\n\n\n# moved\n" + helper)
        assert before == after
        assert before["moved_mod.py:Box.size"] == 4
        assert before["moved_mod.py:Box.size.<locals>.<genexpr>"] > 0
        assert before["moved_mod.py:work.<locals>.<genexpr>"] == 5

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="co_qualname is new in 3.11"
    )
    def test_source_qualnames_match_co_qualname(self, tmp_path):
        # Every scope gets the name the interpreter gives it: decorated
        # methods, classes inside functions, comprehensions whose first
        # iterable is another comprehension, lambdas in defaults.
        source = (
            "def deco(f):\n"
            "    return f\n"
            "class Outer:\n"
            "    @deco\n"
            "    @deco\n"
            "    def method(self, key=lambda v: v):\n"
            "        class Local:\n"
            "            def inner(self):\n"
            "                return [x for x in (y for y in range(2))]\n"
            "        return {k: [j for j in range(k)] for k in range(3)}\n"
            "    class Nested:\n"
            "        async def coro(self):\n"
            "            return (lambda: None)\n"
        )
        path = tmp_path / "scopes.py"
        path.write_text(source)

        def walk(code):
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    yield const
                    yield from walk(const)

        scopes = list(walk(compile(source, str(path), "exec")))
        assert len(scopes) >= 10
        names = _qualnames(str(path))
        for code in scopes:
            key = (code.co_firstlineno, code.co_name)
            assert names[key] == code.co_qualname


class _Actor:
    """Engine callbacks that log ``(now, name, args)`` when dispatched."""

    def __init__(self, sim, log, name, repeats=1):
        self.sim = sim
        self.log = log
        self.name = name
        self.left = repeats

    def fire(self, *args):
        self.log.append((self.sim.now, self.name, args))

    def tick(self):
        """One periodic firing; the last of ``repeats`` ends the chain."""
        self.fire()
        self.left -= 1
        if self.left == 0:
            raise StopIteration


FIRE = owner_label(_Actor.fire)
TICK = owner_label(_Actor.tick)

#: One scheduled event: kind, time (or period), repeats of a chain.
EVENT = st.tuples(
    st.sampled_from(["once", "periodic", "cancelled"]),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=5),
)


def drive(sim, events, until):
    """Schedule *events* on *sim*, run it and return the dispatch log."""
    log = []
    for name, (kind, time, repeats) in enumerate(events):
        actor = _Actor(sim, log, name, repeats)
        if kind == "periodic":
            sim.schedule_periodic(float(time), actor.tick)
        else:
            event = sim.schedule_at(float(time), actor.fire, kind)
            if kind == "cancelled":
                sim.cancel(event)
    sim.run(until=until)
    return log


class TestCountDispatches:
    def test_periodic_chain_charged_to_its_callback(self):
        sim = Simulator()
        counts = count_dispatches(sim)
        log = []
        actor = _Actor(sim, log, "chain", repeats=3)
        sim.schedule_periodic(10.0, actor.tick)
        sim.run(until=100.0)
        # The firing that raises StopIteration was dispatched and counts;
        # the chain then schedules nothing more.
        assert [t for t, _, _ in log] == [10.0, 20.0, 30.0]
        assert counts == {TICK: 3}
        assert sim.events_processed == 3

    def test_bound_method_labelled_with_defining_class(self):
        class Widget:
            def poke(self, a, b):
                self.seen = (a, b)

        sim = Simulator()
        counts = count_dispatches(sim)
        widget = Widget()
        sim.schedule_at(1.0, widget.poke, 1, b"x")
        sim.run()
        assert widget.seen == (1, b"x")
        label = owner_label(widget.poke)
        assert label == owner_label(Widget.poke)
        assert label.endswith(
            ":TestCountDispatches.test_bound_method_labelled_with_defining_"
            "class.<locals>.Widget.poke"
        )
        assert counts == {label: 1}

    def test_counted_after_the_callback_returns(self):
        sim = Simulator()
        counts = count_dispatches(sim)
        seen = []
        log = []
        actor = _Actor(sim, log, "a")
        sim.schedule_at(1.0, lambda: seen.append(dict(counts)))
        sim.schedule_at(2.0, actor.fire)
        sim.run()
        assert seen == [{}]
        assert counts[FIRE] == 1

    def test_cancelled_event_counts_nothing(self):
        sim = Simulator()
        counts = count_dispatches(sim)
        log = []
        kept = sim.schedule_at(1.0, _Actor(sim, log, "kept").fire)
        dropped = sim.schedule_at(2.0, _Actor(sim, log, "dropped").fire)
        sim.cancel(dropped)
        sim.run()
        assert [name for _, name, _ in log] == ["kept"]
        assert counts == {FIRE: 1}
        assert sim.events_cancelled == 1

    def test_unprofiled_system_leaves_schedule_at_unwrapped(self):
        config = SystemConfig.tiny(seed=3).with_duration(0.002)
        plain = System(config, "hmmer", Scheme.RRM)
        assert "schedule_at" not in vars(plain.sim)
        profiled = System(
            config,
            "hmmer",
            Scheme.RRM,
            telemetry=TelemetryConfig(profile=True, trace=False),
        )
        assert "schedule_at" in vars(profiled.sim)

    @settings(max_examples=settings.default.max_examples, deadline=None)
    @given(
        events=st.lists(EVENT, max_size=25),
        until=st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
    )
    def test_counts_every_dispatch_in_unchanged_order(self, events, until):
        plain = Simulator()
        recorded = Simulator()
        counts = count_dispatches(recorded)
        log = drive(recorded, events, until)
        assert log == drive(plain, events, until)
        assert recorded.now == plain.now
        assert sum(counts.values()) == recorded.events_processed
        assert recorded.events_processed == len(log)
        assert recorded.events_cancelled == plain.events_cancelled
        ticks = sum(1 for _, name, args in log if events[name][0] == "periodic")
        assert counts.get(TICK, 0) == ticks
        assert counts.get(FIRE, 0) == len(log) - ticks


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
