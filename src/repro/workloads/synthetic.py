"""Region-tier synthetic traffic generator.

The generator models the write-locality structure the paper measures in
Section III-C / Table III: a small set of *hot* regions receives most
writes at short intervals, a *warm* tier sits near the hotness boundary,
and a vast *cold* tail is written rarely or once. Reads follow a related
but independent mixture, plus an optional *streaming* component that
sweeps the footprint touching each line once (which the RRM's dirty-write
filter must ignore).

Mechanics per LLC-miss cycle:

1. draw an instruction gap (geometric, mean ``1000 / mpki``);
2. emit one memory READ from the read mixture;
3. with probability ``writeback_per_miss`` emit a write group: one
   REGISTER run event standing for a few LLC stores (dirty for reuse
   traffic, clean for streaming; see :mod:`repro.workloads.events`)
   followed by one memory WRITE to the same block.

Hot regions cycle through a per-region working set of blocks so each block
is written repeatedly — the temporal locality that makes short-retention
writes safe. All randomness is seeded; a given (profile, seed) pair always
produces the identical stream.
"""

from __future__ import annotations

import bisect
import math
import random
import sys
from dataclasses import dataclass
from typing import Iterator, List

from repro.errors import ConfigError
from repro.workloads.events import EV_READ, EV_REGISTER, EV_WRITE, WorkloadEvent


@dataclass(frozen=True)
class RegionProfile:
    """Statistical shape of one benchmark's LLC-level traffic.

    All shares are fractions of the relevant traffic class; region counts
    are in 4KB regions of the workload's private footprint.

    Attributes:
        mpki: LLC read misses per 1000 instructions (paper Table VII).
        writeback_per_miss: Memory writes per memory read.
        registrations_per_write: LLC store registrations preceding each
            memory writeback (dirty-line reuse in the LLC).
        footprint_regions: Total 4KB regions the workload touches.
        hot_regions: Regions in the hot tier.
        warm_regions: Regions in the warm (near-threshold) tier.
        hot_write_share / warm_write_share: Fraction of write groups
            targeting each tier (the rest is cold/streaming).
        streaming_fraction: Fraction of write groups that are streaming
            (clean registrations, write-once blocks).
        read_hot_share: Fraction of reads hitting the hot tier.
        hot_working_blocks: Blocks actively rewritten within a hot region
            (<= 64); writes cycle over these.
        zipf_alpha: Skew of popularity within the hot tier.
        gap_cv_shape: >=1 burstiness knob — gaps are drawn geometrically
            and multiplied by this for a fraction of long gaps.
        cold_dirty_fraction: Fraction of cold-tier writes whose LLC line
            was already dirty (occasional reuse in the tail).
        phase_interval_writes: Write groups between program phase changes
            (0 = stationary). On a phase change a fraction of the hot
            tier is swapped with cold regions — the behaviour the RRM's
            decay mechanism exists for (obsolete hot regions must stop
            being refreshed).
        phase_rotation_fraction: Share of the hot tier replaced per phase
            change: at least one region when positive, none at 0.
        tier_cluster_regions: Hot/warm regions are allocated in contiguous
            runs of this many 4KB regions (hot arrays are contiguous in
            real programs — this is why the paper finds 8KB/16KB RRM
            entries as accurate as 4KB ones).
    """

    mpki: float
    writeback_per_miss: float = 0.45
    registrations_per_write: float = 3.5
    footprint_regions: int = 8192
    hot_regions: int = 96
    warm_regions: int = 512
    hot_write_share: float = 0.70
    warm_write_share: float = 0.18
    streaming_fraction: float = 0.05
    read_hot_share: float = 0.45
    hot_working_blocks: int = 32
    zipf_alpha: float = 0.7
    gap_cv_shape: float = 1.0
    cold_dirty_fraction: float = 0.2
    phase_interval_writes: int = 30000
    phase_rotation_fraction: float = 0.2
    tier_cluster_regions: int = 8

    def __post_init__(self) -> None:
        if self.mpki <= 0:
            raise ConfigError("mpki must be positive")
        if not 0 <= self.writeback_per_miss <= 4:
            raise ConfigError("writeback_per_miss out of range")
        if self.registrations_per_write < 1:
            raise ConfigError("each writeback needs at least one registration")
        if self.footprint_regions < self.hot_regions + self.warm_regions:
            raise ConfigError("footprint smaller than hot+warm tiers")
        shares = self.hot_write_share + self.warm_write_share + self.streaming_fraction
        if shares > 1.0 + 1e-9:
            raise ConfigError("write shares exceed 1.0")
        if not 0 <= self.read_hot_share <= 1:
            raise ConfigError("read_hot_share must be in [0,1]")
        if not 1 <= self.hot_working_blocks <= 64:
            raise ConfigError("hot_working_blocks must be in [1, 64]")
        if self.zipf_alpha < 0:
            raise ConfigError("zipf_alpha must be non-negative")
        if not 0 <= self.cold_dirty_fraction <= 1:
            raise ConfigError("cold_dirty_fraction must be in [0,1]")
        if self.phase_interval_writes < 0:
            raise ConfigError("phase_interval_writes must be non-negative")
        if not 0 <= self.phase_rotation_fraction <= 1:
            raise ConfigError("phase_rotation_fraction must be in [0,1]")
        if self.tier_cluster_regions < 1:
            raise ConfigError("tier_cluster_regions must be positive")

    @property
    def cold_write_share(self) -> float:
        return max(
            0.0,
            1.0 - self.hot_write_share - self.warm_write_share - self.streaming_fraction,
        )

    @property
    def mean_gap(self) -> float:
        """Mean instructions between LLC misses."""
        return 1000.0 / self.mpki


def _log_spread_cdf(n: int, rng: random.Random) -> List[float]:
    """Cumulative probabilities with per-item weights log-uniform in
    [0.5, 6.0] — a ~12x popularity spread across warm regions, centred so
    that at the default hot_threshold a majority of warm regions qualify
    as hot while a meaningful population sits just below (giving the
    threshold sweep its gradient)."""
    weights = [math.exp(rng.uniform(math.log(0.5), math.log(6.0))) for _ in range(n)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


def _zipf_cdf(n: int, alpha: float) -> List[float]:
    """Cumulative probabilities of a Zipf(alpha) distribution over n items."""
    weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


#: Blocks per 4KB region (64-byte blocks).
BLOCKS_PER_REGION = 64


#: Ids written per integer by :func:`_region_id_buffer`.
_ID_BLOCK = 1024


def _region_id_buffer(n: int) -> memoryview:
    """Region ids ``0 … n-1`` as a buffer of native 4-byte signed ints.

    Each block of ``_ID_BLOCK`` ids is one integer whose 32-bit lanes
    are the ids, written out with ``int.to_bytes``: ``ramp`` has lanes
    0, 1, 2, …, ``ones`` has every lane 1, so ``ramp + start * ones``
    has lanes ``start``, ``start + 1``, …. That fills the buffer without
    an int object per id or a Python step per id, and without importing
    a module (``array`` would load one into every run).
    """
    buffer = bytearray(4 * n)
    ramp, ones, width = 0, 1, 1
    while width < min(n, _ID_BLOCK):
        ramp |= (ramp + width * ones) << (32 * width)
        ones |= ones << (32 * width)
        width *= 2
    for start in range(0, n, width):
        stop = min(start + width, n)
        lanes = (ramp + start * ones).to_bytes(4 * width, sys.byteorder)
        buffer[4 * start : 4 * stop] = lanes[: 4 * (stop - start)]
    return memoryview(buffer).cast("i")


def _clustered_order(n: int, cluster: int, shuffler: random.Random) -> memoryview:
    """Region ids ``0 … n-1`` in runs of *cluster* consecutive ids, the
    runs in shuffled order, as a buffer of 4-byte ints.

    Shuffling the run start ids draws the same permutation, with the same
    RNG draws, as shuffling the runs would. Each run is then one slice
    copy from the id buffer.
    """
    cluster = min(cluster, n)
    ids = _region_id_buffer(n)
    starts = list(range(0, n, cluster))
    shuffler.shuffle(starts)
    order = memoryview(bytearray(4 * n)).cast("i")
    position = 0
    for start in starts:
        run = ids[start : start + cluster]
        order[position : position + len(run)] = run
        position += len(run)
    return order


class RegionTrafficGenerator:
    """Generates one core's infinite LLC-level event stream.

    Args:
        profile: Traffic shape.
        base_block: First block of this core's private footprint (cores
            get disjoint windows, like separate program copies).
        seed: RNG seed; streams are fully deterministic per (profile,
            base_block, seed).
    """

    def __init__(
        self,
        profile: RegionProfile,
        base_block: int = 0,
        seed: int = 0,
    ) -> None:
        if base_block < 0:
            raise ConfigError("base_block must be non-negative")
        self.profile = profile
        self.base_block = base_block
        self._rng = random.Random((seed << 16) ^ 0x5EED ^ base_block)

        p = profile
        shuffler = random.Random(seed ^ 0xC0FFEE)
        # Tiers are allocated in contiguous runs ("clusters") so spatially
        # adjacent regions share behaviour, as hot arrays do in real
        # programs; the cluster order itself is shuffled. The cold tail
        # (all but a few hundred regions) stays in the order's 4-byte int
        # buffer, and only the hot and warm tiers, which the hot path
        # indexes most, become lists.
        order = _clustered_order(
            p.footprint_regions, p.tier_cluster_regions, shuffler
        )
        cold_start = p.hot_regions + p.warm_regions
        self._hot = order[: p.hot_regions].tolist()
        self._warm = order[p.hot_regions : cold_start].tolist()
        self._cold_ids = order[cold_start:]

        self._hot_cdf = _zipf_cdf(len(self._hot), p.zipf_alpha) if self._hot else []
        #: Per-hot-region rotating write cursor over the working blocks.
        self._hot_cursor = [0] * len(self._hot)
        # Warm regions get log-spread popularity so their per-interval
        # dirty-write counts straddle the hot_threshold boundary: the most
        # popular warm regions qualify as hot at low thresholds, the least
        # popular never do. This is what gives the hot_threshold sweep
        # (paper Fig. 11) its smooth performance/lifetime gradient.
        self._warm_cdf = _log_spread_cdf(len(self._warm), shuffler) if self._warm else []
        self.phase_changes = 0

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[WorkloadEvent]:
        return self._generate()

    def _generate(self) -> Iterator[WorkloadEvent]:
        """The event stream, one LLC-miss cycle per loop iteration.

        Hot path: one event per core step, so the whole cycle — gap draw,
        read pick and write group (a registration run, then the write) —
        is inlined here, with profile constants and bound RNG methods
        held in locals. The RNG draws
        happen in a fixed order per cycle, which is what makes a
        (profile, seed) pair reproduce its stream exactly:

        1. the gap (plus one burst draw when ``gap_cv_shape > 1``);
        2. the read tier roll, then the tier's block draws;
        3. the writeback roll; for a write group, the tier roll, the
           tier's block draws (plus the dirty draw for cold blocks), then
           the fractional-registration draw.

        ``_rotate_phase`` swaps regions in place, so the ``_hot`` and
        ``_cold_ids`` aliases below stay current. The stream is meant to
        be iterated once: the streaming cursor and the write count live
        in this loop.
        """
        p = self.profile
        rng = self._rng
        rand = rng.random
        # randrange(n) is inlined at its seven sites below as CPython's own
        # rejection loop (Random._randbelow): n.bit_length()-bit draws
        # until one is below n, which gives the identical stream. For
        # BLOCKS_PER_REGION those are 7-bit draws until one is < 64.
        getrandbits = rng.getrandbits
        log = math.log
        bisect_left = bisect.bisect_left
        rotate_phase = self._rotate_phase

        lambd = 1.0 / p.mean_gap
        gap_cv_shape = p.gap_cv_shape
        bursty = gap_cv_shape > 1.0
        read_hot_share = p.read_hot_share
        read_stream_share = p.read_hot_share + p.streaming_fraction
        writeback_per_miss = p.writeback_per_miss
        hot_share = p.hot_write_share
        warm_share = p.hot_write_share + p.warm_write_share
        stream_share = warm_share + p.streaming_fraction
        cold_dirty_fraction = p.cold_dirty_fraction
        hot_working_blocks = p.hot_working_blocks
        regs_base = int(p.registrations_per_write)
        regs_extra = p.registrations_per_write - regs_base
        phase_interval = p.phase_interval_writes

        base_block = self.base_block
        hot = self._hot
        hot_cdf = self._hot_cdf
        hot_last = len(hot) - 1
        hot_cursor = self._hot_cursor
        warm = self._warm
        warm_cdf = self._warm_cdf
        warm_last = len(warm) - 1
        jitter_bits = hot_working_blocks.bit_length()
        cold_ids = self._cold_ids
        n_cold = len(cold_ids)
        cold_bits = n_cold.bit_length()
        n_stream_regions = max(1, n_cold)
        stream_block = 0
        writes = 0

        while True:
            # Gap: exponential with mean ``mean_gap`` (expovariate's own
            # formula), stretched for an occasional burst.
            gap = -log(1.0 - rand()) / lambd
            if bursty and rand() < 0.05:
                gap *= gap_cv_shape
            gap = int(gap)

            # Read: hot tier (Zipf), streaming sweep, or uniform cold.
            roll = rand()
            if roll < read_hot_share and hot:
                region = hot[min(bisect_left(hot_cdf, rand()), hot_last)]
                offset = getrandbits(7)
                while offset >= BLOCKS_PER_REGION:
                    offset = getrandbits(7)
            elif roll < read_stream_share:
                # The streaming pointer sweeps the cold part of the
                # footprint.
                region = cold_ids[
                    (stream_block // BLOCKS_PER_REGION) % n_stream_regions
                ]
                offset = stream_block % BLOCKS_PER_REGION
                stream_block += 1
            else:
                if not n_cold:
                    # randrange(0)'s ValueError, where the loop below
                    # would spin on getrandbits(0).
                    rng.randrange(n_cold)
                index = getrandbits(cold_bits)
                while index >= n_cold:
                    index = getrandbits(cold_bits)
                region = cold_ids[index]
                offset = getrandbits(7)
                while offset >= BLOCKS_PER_REGION:
                    offset = getrandbits(7)
            yield (
                EV_READ,
                gap if gap > 1 else 1,
                base_block + region * BLOCKS_PER_REGION + offset,
                False,
            )

            if rand() >= writeback_per_miss:
                continue

            # Write group: pick the tier and block, then the LLC store
            # registrations and the memory writeback.
            roll = rand()
            if roll < hot_share and hot:
                index = min(bisect_left(hot_cdf, rand()), hot_last)
                region = hot[index]
                # Cycle over the region's working blocks with slight
                # jitter so the short_retention_vector fills
                # progressively, as in real reuse.
                offset = hot_cursor[index]
                hot_cursor[index] = (offset + 1) % hot_working_blocks
                if rand() < 0.1:
                    offset = getrandbits(jitter_bits)
                    while offset >= hot_working_blocks:
                        offset = getrandbits(jitter_bits)
                dirty = True
            elif roll < warm_share and warm:
                region = warm[min(bisect_left(warm_cdf, rand()), warm_last)]
                # Warm writes spread over the whole region: halving the
                # entry coverage size halves each entry's dirty-write
                # accumulation rate, which is the paper's stated reason
                # 2KB entries underperform.
                offset = getrandbits(7)
                while offset >= BLOCKS_PER_REGION:
                    offset = getrandbits(7)
                dirty = True
            elif roll < stream_share:
                region = cold_ids[
                    (stream_block // BLOCKS_PER_REGION) % n_stream_regions
                ]
                offset = stream_block % BLOCKS_PER_REGION
                stream_block += 1
                dirty = False  # streaming lines are written once: never dirty
            else:
                if not n_cold:
                    rng.randrange(n_cold)  # raises, as for reads above
                index = getrandbits(cold_bits)
                while index >= n_cold:
                    index = getrandbits(cold_bits)
                region = cold_ids[index]
                offset = getrandbits(7)
                while offset >= BLOCKS_PER_REGION:
                    offset = getrandbits(7)
                dirty = rand() < cold_dirty_fraction
            block = base_block + region * BLOCKS_PER_REGION + offset

            # The group's registrations are one run event (events.py).
            n_regs = regs_base + 1 if rand() < regs_extra else regs_base
            yield (EV_REGISTER, 0, block, (dirty, n_regs))
            yield (EV_WRITE, 0, block, False)
            writes += 1
            if phase_interval and writes % phase_interval == 0:
                rotate_phase(rng)

    def _rotate_phase(self, rng: random.Random) -> None:
        """Program phase change: retire part of the hot tier into the cold
        pool and promote random cold regions in its place."""
        p = self.profile
        if not self._hot or not self._cold_ids:
            return
        fraction = p.phase_rotation_fraction
        count = max(1, int(len(self._hot) * fraction)) if fraction > 0 else 0
        for _ in range(count):
            hot_index = rng.randrange(len(self._hot))
            cold_index = rng.randrange(len(self._cold_ids))
            self._hot[hot_index], self._cold_ids[cold_index] = (
                self._cold_ids[cold_index],
                self._hot[hot_index],
            )
            self._hot_cursor[hot_index] = 0
        self.phase_changes += 1

    # ------------------------------------------------------------------
    @property
    def footprint_blocks(self) -> int:
        return self.profile.footprint_regions * BLOCKS_PER_REGION
