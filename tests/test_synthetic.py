"""Tests for the region-tier synthetic traffic generator.

The pinned-stream digests at the end are rewritten only by a change that
means to alter the generated traffic::

    PYTHONPATH=src python tests/test_synthetic.py
"""

import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.workloads.events import EV_READ, EV_REGISTER, EV_WRITE
from repro.workloads.synthetic import (
    BLOCKS_PER_REGION,
    RegionProfile,
    RegionTrafficGenerator,
    _log_spread_cdf,
)


@pytest.fixture
def profile():
    return RegionProfile(
        mpki=25.0,
        writeback_per_miss=0.5,
        footprint_regions=512,
        hot_regions=16,
        warm_regions=64,
    )


def take(generator, n):
    return list(itertools.islice(iter(generator), n))


class TestDeterminism:
    def test_same_seed_same_stream(self, profile):
        a = take(RegionTrafficGenerator(profile, seed=7), 5000)
        b = take(RegionTrafficGenerator(profile, seed=7), 5000)
        assert a == b

    def test_different_seed_different_stream(self, profile):
        a = take(RegionTrafficGenerator(profile, seed=7), 5000)
        b = take(RegionTrafficGenerator(profile, seed=8), 5000)
        assert a != b

    def test_different_base_block_offsets_addresses(self, profile):
        a = take(RegionTrafficGenerator(profile, base_block=0, seed=7), 100)
        b = take(RegionTrafficGenerator(profile, base_block=1 << 20, seed=7), 100)
        for (_, _, block_a, _), (_, _, block_b, _) in zip(a, b):
            assert block_b >= 1 << 20
            assert block_a < 1 << 20


class TestStreamStructure:
    def test_every_write_preceded_by_registration(self, profile):
        events = take(RegionTrafficGenerator(profile, seed=1), 20000)
        for i, (kind, _, block, _) in enumerate(events):
            if kind == EV_WRITE:
                prev_kind, _, prev_block, _ = events[i - 1]
                assert prev_kind == EV_REGISTER
                assert prev_block == block

    def test_write_group_registrations_are_one_run(self, profile):
        """``registrations_per_write`` 3.5 gives runs of 3 or 4, each one
        event right before its write."""
        events = take(RegionTrafficGenerator(profile, seed=1), 20000)
        counts = Counter()
        for i, (kind, _, _, payload) in enumerate(events):
            if kind == EV_REGISTER:
                dirty, count = payload
                counts[count] += 1
                assert isinstance(dirty, bool)
                if i + 1 < len(events):
                    assert events[i + 1][0] == EV_WRITE
        assert sorted(counts) == [3, 4]

    def test_gap_only_on_reads(self, profile):
        events = take(RegionTrafficGenerator(profile, seed=1), 20000)
        for kind, gap, _, _ in events:
            if kind != EV_READ:
                assert gap == 0
            else:
                assert gap >= 1

    def test_mean_gap_tracks_mpki(self):
        profile = RegionProfile(mpki=50.0, footprint_regions=512,
                                hot_regions=16, warm_regions=64)
        events = take(RegionTrafficGenerator(profile, seed=3), 60000)
        gaps = [gap for kind, gap, _, _ in events if kind == EV_READ]
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(1000.0 / 50.0, rel=0.1)

    def test_writeback_ratio_approximate(self, profile):
        events = take(RegionTrafficGenerator(profile, seed=2), 50000)
        counts = Counter(kind for kind, _, _, _ in events)
        ratio = counts[EV_WRITE] / counts[EV_READ]
        assert ratio == pytest.approx(profile.writeback_per_miss, rel=0.1)

    def test_blocks_within_footprint(self, profile):
        generator = RegionTrafficGenerator(profile, base_block=4096, seed=5)
        for _, _, block, _ in take(generator, 30000):
            assert 4096 <= block < 4096 + profile.footprint_regions * BLOCKS_PER_REGION


class TestLocalityShape:
    """The write skew that motivates the RRM (paper Section III-C)."""

    def test_hot_tier_dominates_writes(self, profile):
        generator = RegionTrafficGenerator(profile, seed=11)
        writes = Counter()
        for kind, _, block, _ in take(generator, 100000):
            if kind == EV_WRITE:
                writes[block // BLOCKS_PER_REGION] += 1
        total = sum(writes.values())
        top_regions = writes.most_common(profile.hot_regions)
        top_share = sum(count for _, count in top_regions) / total
        assert top_share > 0.55

    def test_most_regions_rarely_written(self, profile):
        generator = RegionTrafficGenerator(profile, seed=11)
        written = set()
        for kind, _, block, _ in take(generator, 100000):
            if kind == EV_WRITE:
                written.add(block // BLOCKS_PER_REGION)
        # The cold tail means many footprint regions stay unwritten.
        assert len(written) < profile.footprint_regions

    def test_streaming_registrations_are_clean(self):
        profile = RegionProfile(
            mpki=25.0, writeback_per_miss=0.5, footprint_regions=512,
            hot_regions=8, warm_regions=16,
            hot_write_share=0.0, warm_write_share=0.0, streaming_fraction=1.0,
        )
        generator = RegionTrafficGenerator(profile, seed=4)
        registrations = [
            payload[0] for kind, _, _, payload in take(generator, 20000)
            if kind == EV_REGISTER
        ]
        assert registrations and not any(registrations)

    def test_hot_registrations_are_dirty(self):
        profile = RegionProfile(
            mpki=25.0, writeback_per_miss=0.5, footprint_regions=512,
            hot_regions=8, warm_regions=16,
            hot_write_share=1.0, warm_write_share=0.0, streaming_fraction=0.0,
        )
        generator = RegionTrafficGenerator(profile, seed=4)
        registrations = [
            payload[0] for kind, _, _, payload in take(generator, 20000)
            if kind == EV_REGISTER
        ]
        assert registrations and all(registrations)

    def test_hot_blocks_rewritten(self):
        """Hot-region blocks must receive repeated writes (temporal
        locality) — that is what makes short retention safe."""
        profile = RegionProfile(
            mpki=25.0, writeback_per_miss=0.5, footprint_regions=512,
            hot_regions=4, warm_regions=8, hot_write_share=0.9,
            warm_write_share=0.05, streaming_fraction=0.0,
            hot_working_blocks=8,
        )
        generator = RegionTrafficGenerator(profile, seed=4)
        writes = Counter(
            block for kind, _, block, _ in take(generator, 30000)
            if kind == EV_WRITE
        )
        assert writes.most_common(1)[0][1] > 10


class TestPhaseRotation:
    def test_hot_set_changes_after_rotation(self):
        profile = RegionProfile(
            mpki=25.0, writeback_per_miss=0.5, footprint_regions=512,
            hot_regions=16, warm_regions=64,
            phase_interval_writes=500, phase_rotation_fraction=0.5,
        )
        generator = RegionTrafficGenerator(profile, seed=9)
        before = set(generator._hot)
        stream = iter(generator)
        while generator.phase_changes == 0:
            next(stream)
        after = set(generator._hot)
        assert after != before
        assert len(after) == len(before)

    def test_zero_fraction_rotates_no_region(self):
        profile = RegionProfile(
            mpki=25.0, writeback_per_miss=0.5, footprint_regions=512,
            hot_regions=16, warm_regions=64,
            phase_interval_writes=100, phase_rotation_fraction=0.0,
        )
        generator = RegionTrafficGenerator(profile, seed=9)
        before = list(generator._hot)
        stream = iter(generator)
        while generator.phase_changes < 11:
            next(stream)
        assert generator._hot == before

    def test_rotation_disabled_with_zero_interval(self):
        profile = RegionProfile(
            mpki=25.0, writeback_per_miss=0.5, footprint_regions=512,
            hot_regions=16, warm_regions=64, phase_interval_writes=0,
        )
        generator = RegionTrafficGenerator(profile, seed=9)
        list(itertools.islice(iter(generator), 50000))
        assert generator.phase_changes == 0

    def test_rotated_regions_stay_in_footprint(self):
        profile = RegionProfile(
            mpki=25.0, writeback_per_miss=0.5, footprint_regions=256,
            hot_regions=8, warm_regions=16,
            phase_interval_writes=300, phase_rotation_fraction=0.5,
        )
        generator = RegionTrafficGenerator(profile, base_block=1024, seed=9)
        for _, _, block, _ in itertools.islice(iter(generator), 40000):
            assert 1024 <= block < 1024 + 256 * BLOCKS_PER_REGION
        assert generator.phase_changes > 1

    def test_decay_demotions_happen_under_rotation(self):
        """End-to-end: phase rotation makes the RRM's decay machinery
        demote obsolete hot regions."""
        import dataclasses

        from repro.sim.config import SystemConfig
        from repro.sim.runner import run_workload
        from repro.sim.schemes import Scheme
        from repro.workloads.spec2006 import BENCHMARKS, BenchmarkProfile

        # A rapidly phase-changing workload at tiny-run traffic volumes.
        # The footprint is kept small enough that RRM entries survive to
        # their decay wrap instead of being evicted first (the tiny RRM
        # has only n_sets*n_ways entries).
        churner = BenchmarkProfile(
            name="churner",
            paper_mpki=26.0,
            traffic=RegionProfile(
                mpki=26.0, writeback_per_miss=0.55, footprint_regions=1024,
                hot_regions=128, warm_regions=256,
                hot_write_share=0.9, warm_write_share=0.06,
                streaming_fraction=0.0, cold_dirty_fraction=0.0,
                phase_interval_writes=8000, phase_rotation_fraction=0.25,
            ),
        )
        BENCHMARKS["churner"] = churner
        try:
            config = SystemConfig.tiny()
            config = dataclasses.replace(config, duration_s=config.duration_s * 3)
            result = run_workload(config, "churner", Scheme.RRM)
        finally:
            del BENCHMARKS["churner"]
        assert result.rrm_stats["demotions"] > 0


def materialised_layout(profile, seed):
    """The reference ``(region order, hot, warm, cold ids, warm cdf)``:
    one fresh list of ids per cluster, the clusters shuffled, then
    flattened."""
    p = profile
    shuffler = random.Random(seed ^ 0xC0FFEE)
    cluster = min(p.tier_cluster_regions, p.footprint_regions)
    clusters = [
        list(range(start, min(start + cluster, p.footprint_regions)))
        for start in range(0, p.footprint_regions, cluster)
    ]
    shuffler.shuffle(clusters)
    region_ids = [region for chunk in clusters for region in chunk]
    cold_start = p.hot_regions + p.warm_regions
    warm = region_ids[p.hot_regions : cold_start]
    warm_cdf = _log_spread_cdf(len(warm), shuffler) if warm else []
    return (
        region_ids, region_ids[: p.hot_regions], warm,
        region_ids[cold_start:], warm_cdf,
    )


class TestRegionLayout:
    @settings(max_examples=settings.default.max_examples, deadline=None)
    @given(
        # Small footprints often, so clusters at least as large as the
        # footprint come up.
        footprint=st.one_of(st.integers(1, 64), st.integers(1, 30_000)),
        cluster=st.integers(1, 64),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_layout_matches_materialised_clusters(
        self, footprint, cluster, seed, data
    ):
        hot = data.draw(st.integers(0, footprint), label="hot_regions")
        warm = data.draw(st.integers(0, footprint - hot), label="warm_regions")
        profile = RegionProfile(
            mpki=10.0, footprint_regions=footprint, hot_regions=hot,
            warm_regions=warm, tier_cluster_regions=cluster,
        )
        generator = RegionTrafficGenerator(profile, seed=seed)
        order, hot_ids, warm_ids, cold_ids, warm_cdf = materialised_layout(
            profile, seed
        )
        cold = list(generator._cold_ids)
        assert generator._hot + generator._warm + cold == order
        assert generator._hot == hot_ids
        assert generator._warm == warm_ids
        assert cold == cold_ids
        assert generator._warm_cdf == warm_cdf

    def test_first_paper_generator_holds_only_its_own_layout(
        self, fresh_python
    ):
        """The first GemsFDTD generator a paper-width System builds, in a
        fresh interpreter, holds its 16,384-region layout, popularity
        tables included, in about 117 KiB (4 bytes per cold id) and peaks
        at about 214 KiB while building it: no int object per cold id, no
        process-wide id table and no list of every id."""
        out = fresh_python(
            "import json\n"
            "import tracemalloc\n"
            "import repro.sim.system as system_module\n"
            "from repro.sim.config import SystemConfig\n"
            "from repro.sim.schemes import Scheme\n"
            "from repro.workloads.synthetic import RegionTrafficGenerator\n"
            "measured = []\n"
            "def measuring(profile, **kwargs):\n"
            "    tracemalloc.start()\n"
            "    generator = RegionTrafficGenerator(profile, **kwargs)\n"
            "    if not measured:\n"
            "        measured.append(tracemalloc.get_traced_memory())\n"
            "    tracemalloc.stop()\n"
            "    return generator\n"
            "system_module.RegionTrafficGenerator = measuring\n"
            "system_module.System(SystemConfig.paper(1), 'GemsFDTD', Scheme.RRM)\n"
            "print(json.dumps(measured[0]))\n"
        )
        held, peak = json.loads(out.splitlines()[-1])
        assert held < 150 * 1024, held
        assert peak < 300 * 1024, peak

    @settings(max_examples=settings.default.max_examples, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        rotations=st.integers(1, 300),
        fraction=st.floats(0.0, 1.0),
    )
    def test_rotations_keep_a_permutation_of_the_footprint(
        self, seed, rotations, fraction
    ):
        """Phase rotations swap ids between the hot list and the cold
        buffer: at paper width, every region stays in exactly one tier."""
        profile = RegionProfile(
            mpki=26.56, footprint_regions=16384, hot_regions=144,
            warm_regions=512, phase_rotation_fraction=fraction,
        )
        generator = RegionTrafficGenerator(profile, seed=seed)
        rng = random.Random(seed)
        for _ in range(rotations):
            generator._rotate_phase(rng)
        regions = generator._hot + generator._warm + list(generator._cold_ids)
        assert sorted(regions) == list(range(profile.footprint_regions))
        assert len(generator._hot) == profile.hot_regions
        assert generator.phase_changes == rotations


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mpki": 0.0},
            {"mpki": 10, "writeback_per_miss": -0.1},
            {"mpki": 10, "registrations_per_write": 0.5},
            {"mpki": 10, "footprint_regions": 10, "hot_regions": 8, "warm_regions": 8},
            {"mpki": 10, "hot_write_share": 0.9, "warm_write_share": 0.2},
            {"mpki": 10, "hot_working_blocks": 0},
            {"mpki": 10, "hot_working_blocks": 65},
            {"mpki": 10, "cold_dirty_fraction": 1.5},
        ],
    )
    def test_invalid_profiles(self, kwargs):
        with pytest.raises(ConfigError):
            RegionProfile(**kwargs)

    def test_negative_base_block_rejected(self, profile):
        with pytest.raises(ConfigError):
            RegionTrafficGenerator(profile, base_block=-1)

    def test_cold_write_share_derived(self, profile):
        expected = 1.0 - (
            profile.hot_write_share + profile.warm_write_share
            + profile.streaming_fraction
        )
        assert profile.cold_write_share == pytest.approx(expected)

    def test_empty_cold_tier_raises_at_first_cold_read(self, fresh_python):
        """With every region hot or warm and no streaming, the first cold
        read draws from an empty tier and raises ``randrange(0)``'s
        ValueError. ``getrandbits(0)`` is always 0, so a rejection loop
        inlined without the check would spin for ever; the fixture's
        timeout turns that hang into a failure."""
        out = fresh_python(
            "import json\n"
            "from repro.workloads.events import EV_READ\n"
            "from repro.workloads.synthetic import (\n"
            "    BLOCKS_PER_REGION, RegionProfile, RegionTrafficGenerator)\n"
            "profile = RegionProfile(\n"
            "    mpki=10.0, footprint_regions=64, hot_regions=16,\n"
            "    warm_regions=48, hot_write_share=0.8, warm_write_share=0.2,\n"
            "    streaming_fraction=0.0)\n"
            "generator = RegionTrafficGenerator(profile, seed=1)\n"
            "read_regions = []\n"
            "try:\n"
            "    for kind, _gap, block, _dirty in generator:\n"
            "        if kind == EV_READ:\n"
            "            read_regions.append(block // BLOCKS_PER_REGION)\n"
            "except ValueError as exc:\n"
            "    print(json.dumps({'error': str(exc), 'reads': read_regions,\n"
            "                      'hot': generator._hot}))\n"
        )
        report = json.loads(out)
        assert "randrange" in report["error"]
        # Every read before the error came from the hot tier: the
        # error is the first cold read's.
        assert set(report["reads"]) <= set(report["hot"])


# ----------------------------------------------------------------------
# Pinned streams: the exact events each workload's generators emit.
# ----------------------------------------------------------------------
STREAM_DIGESTS = Path(__file__).parent / "data" / "generator_streams.json"
STREAM_EVENTS = 50_000
#: Write groups between phase changes in the rotating variant, short
#: enough that the first STREAM_EVENTS events cross several rotations.
ROTATING_INTERVAL = 1_000


def built_generators(workload, config=None):
    """``(profile, kwargs)`` of every generator ``System._build_streams``
    constructs for *workload* on *config* (default: the tiny config at
    seed 1)."""
    import repro.sim.system as system_module
    from repro.sim.config import SystemConfig
    from repro.sim.schemes import Scheme
    from repro.workloads.mixes import MIXES

    built = []

    def recording(profile, **kwargs):
        built.append((profile, kwargs))
        return RegionTrafficGenerator(profile, **kwargs)

    if config is None:
        config = SystemConfig.tiny(1)
    if workload in MIXES:
        config = dataclasses.replace(config, n_cores=len(MIXES[workload]))
    original = system_module.RegionTrafficGenerator
    system_module.RegionTrafficGenerator = recording
    try:
        system_module.System(config, workload, Scheme.RRM)
    finally:
        system_module.RegionTrafficGenerator = original
    return built


def one_event_per_registration(events):
    """*events* with each registration run ``(EV_REGISTER, gap, block,
    (dirty, count))`` spelled as ``count`` events ``(EV_REGISTER, gap,
    block, dirty)``, the first with the run's gap and the rest with gap 0:
    the encoding the pinned digests were taken in."""
    for event in events:
        kind, gap, block, payload = event
        if kind != EV_REGISTER:
            yield event
            continue
        dirty, count = payload
        for _ in range(count):
            yield (kind, gap, block, dirty)
            gap = 0


def stream_digest(generator):
    """sha256 over the repr of the generator's first STREAM_EVENTS events,
    with registration runs spelled as single registrations."""
    digest = hashlib.sha256()
    events = one_event_per_registration(iter(generator))
    for event in itertools.islice(events, STREAM_EVENTS):
        digest.update(repr(event).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def add_streams(streams, prefix, built, cores, rotating):
    """Add ``{prefix}/core{n}`` for each of *cores*, plus
    ``{prefix}/core0/rotating`` (phase rotation every ROTATING_INTERVAL
    write groups) when *rotating*, from *built* generator arguments."""
    for core in cores:
        profile, kwargs = built[core]
        streams[f"{prefix}/core{core}"] = RegionTrafficGenerator(
            profile, **kwargs
        )
    if rotating:
        profile, kwargs = built[0]
        profile = dataclasses.replace(
            profile, phase_interval_writes=ROTATING_INTERVAL
        )
        streams[f"{prefix}/core0/rotating"] = RegionTrafficGenerator(
            profile, **kwargs
        )


def pinned_streams():
    """Stream key -> generator: cores 0 and 1 of every workload plus core 0
    rotating, on the tiny config; and ``paper/...`` streams on
    ``SystemConfig.paper(1)``, whose footprints are 32x the tiny ones."""
    from repro.sim.config import SystemConfig
    from repro.workloads.mixes import all_workload_names

    streams = {}
    for workload in all_workload_names():
        add_streams(streams, workload, built_generators(workload), (0, 1), True)
    paper = SystemConfig.paper(1)
    add_streams(
        streams, "paper/GemsFDTD", built_generators("GemsFDTD", paper), (0, 3), True
    )
    add_streams(streams, "paper/MIX_1", built_generators("MIX_1", paper), (0,), False)
    return streams


class TestPinnedStreams:
    """A generator rewrite must keep every stream event for event."""

    def test_streams_match_committed_digests(self):
        expected = json.loads(STREAM_DIGESTS.read_text())
        streams = pinned_streams()
        assert sorted(streams) == sorted(expected)
        for key, generator in streams.items():
            assert stream_digest(generator) == expected[key], key
            if key.endswith("/rotating"):
                assert generator.phase_changes > 0, key


if __name__ == "__main__":
    STREAM_DIGESTS.parent.mkdir(exist_ok=True)
    STREAM_DIGESTS.write_text(
        json.dumps(
            {key: stream_digest(g) for key, g in pinned_streams().items()},
            indent=1,
        )
        + "\n"
    )
    print(f"wrote stream digests to {STREAM_DIGESTS}")
