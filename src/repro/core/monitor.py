"""The Region Retention Monitor proper (paper Section IV).

The monitor glues together the tag array, the write-mode decision, the
selective-fast-refresh interrupt, and the decay machinery. It talks to the
memory controller through a narrow protocol (``can_accept`` / ``enqueue``
/ ``notify_space``) so it can be unit-tested against a stub.

Timing: the monitor does not consume simulation time itself — its 4-cycle
lookup is negligible against memory latencies (paper Table IV) — but its
refresh requests occupy banks and its refresh queue is bounded, so refresh
pressure is simulated faithfully.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Protocol, Tuple

from repro.core.config import RRMConfig
from repro.core.entry import RRMEntry
from repro.core.tag_array import RRMTagArray
from repro.engine import Simulator
from repro.errors import ConfigError
from repro.memctrl.request import MemRequest, RequestType, _request_ids
from repro.pcm.write_modes import WriteModeTable
from repro.telemetry.trace import NULL_TRACER
from repro.utils.units import s_to_ns


#: Bytes per waiting refresh: ``req_id << 64 | block << 8 | kind``.
_RECORD_BYTES = 16
_BLOCK_KIND_MASK = (1 << 64) - 1
#: Kinds one burst can name in a record's low byte.
_MAX_KINDS = 256


class _Burst:
    """Refreshes queued at one simulated instant, in queue order.

    The burst's ``generated_time_ns`` and its kinds, the distinct
    ``(rtype, n_sets, deadline_ns)`` triples its refreshes carry, are
    stored once; each refresh adds one 16-byte record to ``records``.
    """

    __slots__ = ("generated_time_ns", "kinds", "records")

    def __init__(self, generated_time_ns: Optional[float]) -> None:
        self.generated_time_ns = generated_time_ns
        self.kinds: List[Tuple[RequestType, int, Optional[float]]] = []
        self.records = bytearray()


#: A waiting refresh's request fields: ``(rtype, block, n_sets,
#: deadline_ns, generated_time_ns, req_id)``.
_Refresh = Tuple[RequestType, int, int, Optional[float], Optional[float], int]


class _PendingRefreshes:
    """FIFO of refreshes the controller's refresh queue has not yet taken.

    A waiting refresh is held as the fields its ``MemRequest`` will
    carry, in 16 bytes, so the request is built only once the queue
    takes it. A refresh joins the newest burst when it shares that
    burst's time object (``sim.now`` within one event) and, to share a
    kind, its rtype, SET count and deadline object: an interrupt queues
    all its refreshes with one deadline object, so a burst holds one to
    three kinds however its refreshes interleave. Grouping tests object
    identity, so records only share fields that are the same values.
    ``len()`` counts refreshes, not bursts.
    """

    __slots__ = ("_bursts", "_count", "_head")

    def __init__(self) -> None:
        self._bursts: Deque[_Burst] = deque()
        self._count = 0
        #: The oldest refresh, decoded once for every look at it.
        self._head: Optional[_Refresh] = None

    def __len__(self) -> int:
        return self._count

    def push(
        self,
        rtype: RequestType,
        block: int,
        n_sets: int,
        deadline_ns: Optional[float],
        generated_time_ns: Optional[float],
        req_id: int,
    ) -> None:
        bursts = self._bursts
        burst = bursts[-1] if bursts else None
        if burst is None or burst.generated_time_ns is not generated_time_ns:
            burst = _Burst(generated_time_ns)
            bursts.append(burst)
        for kind, (k_rtype, k_n_sets, k_deadline) in enumerate(burst.kinds):
            if k_rtype is rtype and k_n_sets == n_sets and k_deadline is deadline_ns:
                break
        else:
            if len(burst.kinds) == _MAX_KINDS:
                burst = _Burst(generated_time_ns)
                bursts.append(burst)
            kind = len(burst.kinds)
            burst.kinds.append((rtype, n_sets, deadline_ns))
        burst.records += (req_id << 64 | block << 8 | kind).to_bytes(
            _RECORD_BYTES, "little"
        )
        self._count += 1

    def head(self) -> _Refresh:
        """The oldest refresh's request fields."""
        head = self._head
        if head is None:
            burst = self._bursts[0]
            record = int.from_bytes(burst.records[:_RECORD_BYTES], "little")
            rtype, n_sets, deadline_ns = burst.kinds[record & 0xFF]
            head = self._head = (
                rtype,
                (record & _BLOCK_KIND_MASK) >> 8,
                n_sets,
                deadline_ns,
                burst.generated_time_ns,
                record >> 64,
            )
        return head

    def drop_head(self) -> None:
        """Remove the oldest refresh."""
        records = self._bursts[0].records
        # Deleting from the front of a bytearray moves no data, and frees
        # the buffer in halves as a burst drains.
        del records[:_RECORD_BYTES]
        if not records:
            self._bursts.popleft()
        self._count -= 1
        self._head = None


class RefreshSink(Protocol):
    """What the monitor needs from the memory controller."""

    def can_accept(self, rtype: RequestType, block: int) -> bool: ...

    def enqueue(self, request: MemRequest) -> None: ...

    def notify_space(self, rtype, block, callback) -> None: ...


@dataclass
class RRMStats:
    """Counters describing RRM behaviour during a run."""

    registrations: int = 0
    clean_writes_filtered: int = 0
    promotions: int = 0
    demotions: int = 0
    renewals: int = 0
    evictions_with_fast_blocks: int = 0
    fast_decisions: int = 0
    slow_decisions: int = 0
    fast_refreshes_issued: int = 0
    slow_refreshes_issued: int = 0
    refresh_interrupts: int = 0
    decay_ticks: int = 0

    @property
    def decisions(self) -> int:
        return self.fast_decisions + self.slow_decisions

    @property
    def fast_write_fraction(self) -> float:
        return self.fast_decisions / self.decisions if self.decisions else 0.0

    def register_metrics(self, registry, prefix: str = "rrm") -> None:
        """Publish every monitor counter into a telemetry registry."""
        for field_name in (
            "registrations",
            "clean_writes_filtered",
            "promotions",
            "demotions",
            "renewals",
            "evictions_with_fast_blocks",
            "fast_decisions",
            "slow_decisions",
            "fast_refreshes_issued",
            "slow_refreshes_issued",
            "refresh_interrupts",
            "decay_ticks",
        ):
            registry.gauge(
                f"{prefix}.{field_name}",
                lambda f=field_name: getattr(self, f),
            )
        registry.gauge(
            f"{prefix}.fast_write_fraction", lambda: self.fast_write_fraction
        )


class RegionRetentionMonitor:
    """Tracks region write hotness and directs write modes and refreshes.

    Args:
        config: Structure/policy parameters.
        modes: The device's write-mode table (supplies retention times
            from which the refresh interval and deadline slack derive).
        sim: Simulator used for the periodic refresh interrupt and decay
            ticks. May be None for purely combinational unit tests; then
            :meth:`start` must not be called.
        controller: Refresh request sink. May be None in unit tests, in
            which case refreshes are only counted.
    """

    def __init__(
        self,
        config: RRMConfig,
        modes: WriteModeTable,
        sim: Optional[Simulator] = None,
        controller: Optional[RefreshSink] = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.config = config
        self.modes = modes
        self.sim = sim
        self.controller = controller
        #: Telemetry recorder; the shared no-op unless tracing is on.
        self.tracer = tracer
        self.tags = RRMTagArray(config)
        self.stats = RRMStats()
        # Read on every registration and write decision; the config is
        # frozen, so they are copied out of it once.
        self._blocks_per_region = config.blocks_per_region
        self._hot_threshold = config.hot_threshold
        self._streaming_filter = config.streaming_filter
        self._fast_n_sets = config.fast_n_sets
        self._slow_n_sets = config.slow_n_sets
        # The tag array's sets and set mask, for the lookups inlined into
        # the two per-write paths below.
        self._tag_sets = self.tags._sets
        self._set_mask = self.tags._set_mask

        fast_retention = modes.mode(config.fast_n_sets).retention_s
        #: Interval between short-retention interrupts: the fast mode's
        #: retention minus a safety slack (2.0s vs 2.01s in the paper).
        self.refresh_slack_s = fast_retention * config.refresh_slack_fraction
        self.refresh_interval_s = modes.refresh_interval_s(
            config.fast_n_sets, slack_s=self.refresh_slack_s
        )
        #: Decay tick period: 1/16 of the refresh interval by default.
        self.decay_period_s = self.refresh_interval_s / config.decay_ticks_per_interval

        self._pending_refreshes = _PendingRefreshes()
        self._draining = False
        self._space_wait_registered = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic refresh interrupt and decay tick."""
        if self.sim is None:
            raise ConfigError("monitor started without a simulator")
        if self._started:
            raise ConfigError("monitor already started")
        self._started = True
        self.sim.schedule_periodic(
            s_to_ns(self.refresh_interval_s), self.on_refresh_interrupt
        )
        self.sim.schedule_periodic(s_to_ns(self.decay_period_s), self.on_decay_tick)

    # ------------------------------------------------------------------
    # Input 1: LLC write registration (paper Section IV-D)
    # ------------------------------------------------------------------
    def register_llc_write(
        self, block: int, was_dirty: bool, count: int = 1
    ) -> None:
        """Record a run of *count* LLC writes to *block*.

        Only writes to *dirty* LLC entries are registered — a streaming
        pattern touches each line once (clean), so requiring dirtiness
        filters spatial-only locality out of the hotness statistics.
        (``config.streaming_filter=False`` disables this, for ablation.)

        The run leaves the monitor exactly as *count* single
        registrations would. The first finds or allocates the region's
        entry; the rest are hits on it, so their lookups, LRU touches
        and counter steps are applied at once. An allocation's eviction
        enqueues slow rewrites, and the scheduler kick that follows can
        run cores whose registrations evict the new entry in turn; the
        rest of the run is then registered one by one, as singles
        would be.
        """
        stats = self.stats
        if not was_dirty and self._streaming_filter:
            stats.clean_writes_filtered += count
            return

        # Region and vector-bit index; the offset is in range by
        # construction, so the bit is set without the entry's check.
        region, offset = divmod(block, self._blocks_per_region)
        # One frame per run: ``tags.lookup(region)`` (count, LRU touch)
        # and ``entry.record_dirty_write`` are inlined.
        tags = self.tags
        entry = self._tag_sets[region & self._set_mask].get(region)
        if entry is not None:
            steps = hits = count
        else:
            entry, victim = tags.allocate(region)
            steps = count
            if victim is not None:
                self._handle_eviction(victim)
                if not entry.valid:
                    steps = 1
            hits = steps - 1
        stats.registrations += steps
        tags.lookups += steps
        if hits:
            tags.hits += hits
            use = tags._use_clock + hits
            tags._use_clock = use
            entry.last_use = use

        # ``steps`` counter steps: the counter saturates at the
        # threshold, and reaching it promotes a cold entry.
        hot_threshold = self._hot_threshold
        counter = entry.dirty_write_counter
        if counter < hot_threshold:
            counter += steps
            if counter >= hot_threshold:
                counter = hot_threshold
                if not entry.hot:
                    entry.hot = True
                    stats.promotions += 1
                    if self.tracer.enabled:
                        self.tracer.instant(
                            "promotion", "monitor", args={"region": region}
                        )
            entry.dirty_write_counter = counter
        if entry.hot:
            entry.short_retention_vector |= 1 << offset
        if steps != count:
            # The run's entry was evicted under it: the rest are singles.
            for _ in range(count - 1):
                self.register_llc_write(block, was_dirty)

    # ------------------------------------------------------------------
    # Input 2 / Output 1: memory write mode decision (Section IV-E)
    # ------------------------------------------------------------------
    def decide_write_mode(self, block: int) -> int:
        """SET count for a memory write to *block*.

        Fast (3-SETs) iff the block's region is tracked and the block's
        short-retention bit is set; slow (7-SETs) otherwise. The lookup
        does not disturb LRU (it is a read of the retention array, not a
        registration).
        """
        region, offset = divmod(block, self._blocks_per_region)
        # ``tags.lookup(region, touch=False)``, inlined.
        tags = self.tags
        tags.lookups += 1
        entry = self._tag_sets[region & self._set_mask].get(region)
        if entry is not None:
            tags.hits += 1
            if entry.short_retention_vector >> offset & 1:
                self.stats.fast_decisions += 1
                return self._fast_n_sets
        self.stats.slow_decisions += 1
        return self._slow_n_sets

    # ------------------------------------------------------------------
    # Output 2: selective fast refresh (Section IV-F)
    # ------------------------------------------------------------------
    def on_refresh_interrupt(self) -> None:
        """Re-write every short-retention block of every hot entry with the
        fast mode, before the fast retention expires."""
        self.stats.refresh_interrupts += 1
        if not self.config.selective_refresh_enabled:
            return  # fault injection: let short-retention data expire
        deadline = None
        if self.sim is not None:
            deadline = self.sim.now + s_to_ns(self.refresh_slack_s)
        issued_before = self.stats.fast_refreshes_issued
        for entry in self.tags.hot_entries():
            base_block = entry.region * self.config.blocks_per_region
            for offset in entry.short_retention_offsets():
                self._queue_refresh(
                    block=base_block + offset,
                    n_sets=self.config.fast_n_sets,
                    rtype=RequestType.RRM_REFRESH,
                    deadline_ns=deadline,
                )
        if self.tracer.enabled:
            self.tracer.instant(
                "refresh_interrupt",
                "monitor",
                args={
                    "interrupt": self.stats.refresh_interrupts,
                    "refreshes": self.stats.fast_refreshes_issued - issued_before,
                },
            )

    # ------------------------------------------------------------------
    # Decay (Section IV-G)
    # ------------------------------------------------------------------
    def on_decay_tick(self) -> None:
        """Advance every entry's decay counter; re-evaluate hotness on wrap."""
        self.stats.decay_ticks += 1
        if not self.config.decay_enabled:
            return
        for entry in list(self.tags.entries()):
            if not entry.tick_decay(self.config.decay_ticks_per_interval):
                continue
            if not entry.hot:
                continue
            if entry.reevaluate_hotness(self.config.hot_threshold):
                self.stats.renewals += 1
            else:
                self._demote(entry)

    def _demote(self, entry: RRMEntry) -> None:
        """Demote a no-longer-hot entry: its short-retention blocks must be
        rewritten with the slow mode so they survive without fast refresh."""
        self.stats.demotions += 1
        base_block = entry.region * self.config.blocks_per_region
        offsets = list(entry.short_retention_offsets())
        if self.tracer.enabled:
            # Drift demotion: the entry went cold, so its short-retention
            # blocks must be rewritten slow before drift expires them.
            self.tracer.instant(
                "demotion",
                "monitor",
                args={"region": entry.region, "rewrites": len(offsets)},
            )
        entry.demote()
        for offset in offsets:
            self._queue_refresh(
                block=base_block + offset,
                n_sets=self.config.slow_n_sets,
                rtype=RequestType.RRM_SLOW_REFRESH,
                deadline_ns=None,
            )

    def _handle_eviction(self, victim: RRMEntry) -> None:
        """An evicted entry's short-retention blocks lose their refresh
        coverage; rewrite them with the slow mode (the paper leaves this
        case implicit — dropping them would corrupt data, so we rewrite,
        controlled by ``config.refresh_on_eviction``)."""
        if victim.short_retention_vector == 0:
            return
        self.stats.evictions_with_fast_blocks += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "eviction",
                "monitor",
                args={"region": victim.region,
                      "rewritten": self.config.refresh_on_eviction},
            )
        if not self.config.refresh_on_eviction:
            return
        base_block = victim.region * self.config.blocks_per_region
        for offset in victim.short_retention_offsets():
            self._queue_refresh(
                block=base_block + offset,
                n_sets=self.config.slow_n_sets,
                rtype=RequestType.RRM_SLOW_REFRESH,
                deadline_ns=None,
            )

    # ------------------------------------------------------------------
    # Refresh dispatch with queue backpressure
    # ------------------------------------------------------------------
    def _queue_refresh(
        self,
        block: int,
        n_sets: int,
        rtype: RequestType,
        deadline_ns: Optional[float],
    ) -> None:
        if rtype is RequestType.RRM_REFRESH:
            self.stats.fast_refreshes_issued += 1
        else:
            self.stats.slow_refreshes_issued += 1
        if self.controller is None:
            return
        self._pending_refreshes.push(
            rtype,
            block,
            n_sets,
            deadline_ns,
            self.sim.now if self.sim is not None else None,
            # The request's id is drawn now, as building it now would.
            next(_request_ids),
        )
        if not self._space_wait_registered:
            self._drain_refreshes()

    def _drain_refreshes(self) -> None:
        """Push pending refreshes into the controller's bounded refresh
        queues; re-arm on space when a queue is full.

        Guarded against reentrancy: enqueueing a refresh kicks the
        scheduler, which may free a queue slot and wake this very drain —
        the guard turns that recursive wake into a no-op since the
        outermost call is already draining.
        """
        if self._draining:
            return
        controller = self.controller
        assert controller is not None
        pending = self._pending_refreshes
        self._draining = True
        try:
            while pending:
                rtype, block, n_sets, deadline_ns, generated_time_ns, req_id = (
                    pending.head()
                )
                if not controller.can_accept(rtype, block):
                    if not self._space_wait_registered:
                        self._space_wait_registered = True
                        controller.notify_space(
                            rtype, block, self._on_refresh_space
                        )
                    return
                pending.drop_head()
                # The request is built only now that the queue takes it.
                controller.enqueue(
                    MemRequest(
                        rtype=rtype,
                        block=block,
                        n_sets=n_sets,
                        deadline_ns=deadline_ns,
                        # Stamp creation time so latency attribution can
                        # report the pre-queue backpressure a full refresh
                        # queue imposes.
                        generated_time_ns=generated_time_ns,
                        req_id=req_id,
                    )
                )
        finally:
            self._draining = False

    def _on_refresh_space(self) -> None:
        """Wake path for refresh-queue space: exactly one waiter is kept
        registered at a time."""
        self._space_wait_registered = False
        self._drain_refreshes()

    @property
    def pending_refresh_count(self) -> int:
        """Refreshes generated but not yet accepted by the controller."""
        return len(self._pending_refreshes)

    def register_metrics(self, registry, prefix: str = "rrm") -> None:
        """Publish monitor counters plus live queue state into *registry*."""
        self.stats.register_metrics(registry, prefix)
        registry.gauge(
            f"{prefix}.pending_refreshes", lambda: len(self._pending_refreshes)
        )
        registry.gauge(f"{prefix}.tracked_regions", lambda: self.tags.occupancy)
        self.tags.register_metrics(registry, f"{prefix}.tags")
