"""In-simulation latency attribution: observe, carve, blame, conserve.

The :class:`AttributionCollector` hangs off the memory controller's
issue/complete path and maintains, per bank, a timeline of *occupancy
segments* — ``[start, end, class]`` intervals describing what the bank
was doing. When a request issues, its queue-wait window
``[issue, start]`` is carved against that timeline: overlap with a
segment is blamed on the segment's class, the remainder on the
scheduler. Write pausing splices the timeline (the preempted write's
segment is truncated at the read start and its remainder re-appended at
the extended end) so blame stays mutually exclusive.

The collector is a pure observer: it reads times the controller already
computed and never touches the simulator, so an attributed run is
bit-identical to an unattributed one. The conservation invariant —
components sum to the measured total latency — is enforced on every
completion (:data:`~repro.attribution.model.CONSERVATION_TOLERANCE_NS`),
and the worst observed error is exported so tests and CI can assert it
stayed at exactly zero.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.attribution.model import (
    BLOCKER_SCHEDULER,
    CONSERVATION_TOLERANCE_NS,
    CLASS_READ,
    BlameMatrix,
    RequestAnatomy,
    classify_request,
)
from repro.errors import SimulationError
from repro.memctrl.request import MemRequest

#: Prune a bank's segment timeline once it grows past this length.
_PRUNE_THRESHOLD = 64

#: Region aggregates tracked individually before spilling to "other".
_MAX_REGIONS = 4096


class AttributionCollector:
    """Per-request latency anatomy for one run.

    Args:
        n_banks: Flat bank count (channel-major, matching the
            controller's bank indices).
        banks_per_channel: For deriving the channel of a bank index.
        fast_n_sets / slow_n_sets: The device's write-mode SET counts,
            used to split write traffic into fast/slow classes.
        top_n: How many slowest-request anatomies to retain.
        region_of: Optional ``block -> region`` map enabling per-region
            aggregation (the RRM's region geometry when available).
    """

    def __init__(
        self,
        n_banks: int,
        banks_per_channel: int,
        *,
        fast_n_sets: int,
        slow_n_sets: int,
        row_hit_read_ns: float,
        top_n: int = 32,
        region_of: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.n_banks = n_banks
        self.banks_per_channel = banks_per_channel
        self.fast_n_sets = fast_n_sets
        self.slow_n_sets = slow_n_sets
        #: Base (row-hit) read service time; the measured surplus over it
        #: is the row-miss penalty.
        self.row_hit_read_ns = row_hit_read_ns
        self.top_n = top_n
        self.region_of = region_of

        #: Per-bank occupancy timeline: [start_ns, end_ns, class] lists,
        #: sorted by start, mutually disjoint.
        self._segments: List[List[list]] = [[] for _ in range(n_banks)]
        #: Per-bank in-flight write's segment (the splice target).
        self._write_seg: List[Optional[list]] = [None] * n_banks
        #: Per-bank issue times of requests still waiting in a queue;
        #: their minimum bounds how far back carving can ever reach.
        self._waiting: List[Dict[int, float]] = [{} for _ in range(n_banks)]

        self.matrix = BlameMatrix()
        self.bank_matrices: List[BlameMatrix] = [
            BlameMatrix() for _ in range(n_banks)
        ]
        #: victim class -> component name -> summed ns.
        self.component_sums: Dict[str, Dict[str, float]] = {}
        #: region -> [requests, wait_ns, refresh_blamed_ns].
        self.region_blame: Dict[int, list] = {}
        self.region_overflow: List[float] = [0, 0.0, 0.0]

        self.requests_observed = 0
        self.conservation_checks = 0
        self.max_conservation_error_ns = 0.0
        self.read_refresh_blame_ns = 0.0
        self.refresh_backpressure_ns = 0.0
        self.pause_preempt_total_ns = 0.0
        #: min-heap of (total_ns, req_id, anatomy) for the slowest N.
        self._slowest: List[Tuple[float, int, RequestAnatomy]] = []

    # ------------------------------------------------------------------
    # Controller hooks (issue-side)
    # ------------------------------------------------------------------
    def on_enqueue(self, request: MemRequest) -> None:
        """A request entered a controller queue (issue_time_ns is set)."""
        anatomy = RequestAnatomy(
            req_id=request.req_id,
            victim=classify_request(
                request, self.fast_n_sets, self.slow_n_sets
            ),
            block=request.block,
            bank_index=request.bank_index,
            channel=request.bank_index // self.banks_per_channel,
            issue_ns=request.issue_time_ns,
        )
        generated = getattr(request, "generated_time_ns", None)
        if generated is not None:
            anatomy.refresh_backpressure_ns = (
                request.issue_time_ns - generated
            )
        request.anatomy = anatomy
        self._waiting[request.bank_index][request.req_id] = (
            request.issue_time_ns
        )

    def on_dequeue(self, queue, request: MemRequest, n_bypassed: int) -> None:
        """The scheduler picked *request*, skipping *n_bypassed* older
        same-queue entries (the FR-FCFS reordering depth)."""
        anatomy = request.anatomy
        if anatomy is not None:
            anatomy.bypassed = n_bypassed

    def on_read_issue(self, request: MemRequest, row_hit: bool) -> None:
        """A read was scheduled onto its bank (start/finish are set)."""
        anatomy: RequestAnatomy = request.anatomy
        start = request.start_time_ns
        finish = request.finish_time_ns
        self._carve_wait(anatomy, start)
        anatomy.start_ns = start
        anatomy.row_hit = row_hit
        # Base read service is the row-hit time; the measured surplus
        # becomes the row-miss penalty at completion.
        anatomy.service_base_ns = min(finish - start, self.row_hit_read_ns)
        bank = request.bank_index
        read_seg = [start, finish, CLASS_READ]
        wseg = self._write_seg[bank]
        if wseg is not None and wseg[0] <= start < wseg[1]:
            # The read preempts the in-flight write: truncate the write's
            # segment at the read start; on_write_paused appends the
            # remainder once the extended end is known.
            wseg[1] = start
        self._segments[bank].append(read_seg)

    def on_write_issue(self, request: MemRequest) -> None:
        """A write or refresh was scheduled onto its bank."""
        anatomy: RequestAnatomy = request.anatomy
        start = request.start_time_ns
        finish = request.finish_time_ns
        self._carve_wait(anatomy, start)
        anatomy.start_ns = start
        anatomy.service_base_ns = finish - start
        bank = request.bank_index
        seg = [start, finish, anatomy.victim]
        self._segments[bank].append(seg)
        self._write_seg[bank] = seg

    def on_write_paused(
        self,
        write_request: MemRequest,
        read_request: MemRequest,
        new_end_ns: float,
    ) -> None:
        """A read cut into *write_request*; its finish moved to
        *new_end_ns*. Re-append the write's unserved remainder after the
        read so the occupancy timeline stays disjoint."""
        bank = write_request.bank_index
        read_finish = read_request.finish_time_ns
        remainder = [read_finish, new_end_ns, write_request.anatomy.victim]
        self._segments[bank].append(remainder)
        self._write_seg[bank] = remainder

    # ------------------------------------------------------------------
    # Controller hook (completion-side)
    # ------------------------------------------------------------------
    def on_complete(self, request: MemRequest) -> Optional[dict]:
        """Finalise the request's anatomy; returns compact span args for
        the tracer (or None when the anatomy is unexpectedly absent)."""
        anatomy: RequestAnatomy = request.anatomy
        if anatomy is None:
            return None
        if request.is_write:
            self._write_seg[request.bank_index] = None
        finish = request.finish_time_ns
        anatomy.finish_ns = finish
        service = finish - anatomy.start_ns
        extra = service - anatomy.service_base_ns
        if anatomy.victim == CLASS_READ:
            anatomy.row_miss_penalty_ns = extra
        else:
            anatomy.pause_preempt_ns = extra
        anatomy.sched_wait_ns = (
            anatomy.wait_ns - anatomy.blocked_total_ns
        )
        self._check_conservation(anatomy)
        self._aggregate(anatomy)
        return anatomy.trace_args()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _carve_wait(self, anatomy: RequestAnatomy, start: float) -> None:
        """Split the wait window ``[issue, start]`` over the bank's
        occupancy segments into per-blocker blamed time."""
        bank = anatomy.bank_index
        waiting = self._waiting[bank]
        waiting.pop(anatomy.req_id, None)
        issue = anatomy.issue_ns
        if start > issue:
            blocked = anatomy.blocked_ns
            for seg in self._segments[bank]:
                seg_start = seg[0]
                if seg_start >= start:
                    break
                seg_end = seg[1]
                if seg_end <= issue:
                    continue
                lo = issue if issue > seg_start else seg_start
                hi = start if start < seg_end else seg_end
                overlap = hi - lo
                if overlap > 0.0:
                    cls = seg[2]
                    blocked[cls] = blocked.get(cls, 0.0) + overlap
        segments = self._segments[bank]
        if len(segments) > _PRUNE_THRESHOLD:
            # Segments ending before every waiter's issue time can never
            # be blamed again (future requests issue even later).
            horizon = min(waiting.values()) if waiting else start
            self._segments[bank] = [s for s in segments if s[1] > horizon]

    def _check_conservation(self, anatomy: RequestAnatomy) -> None:
        self.conservation_checks += 1
        error = anatomy.conservation_error_ns()
        if error > self.max_conservation_error_ns:
            self.max_conservation_error_ns = error
        if error > CONSERVATION_TOLERANCE_NS:
            raise SimulationError(
                f"attribution conservation violated for request "
                f"{anatomy.req_id} ({anatomy.victim}): components sum to "
                f"{anatomy.components_sum_ns()!r} ns but measured total is "
                f"{anatomy.total_ns!r} ns (error {error:g} ns)"
            )
        if anatomy.sched_wait_ns < -CONSERVATION_TOLERANCE_NS:
            raise SimulationError(
                f"attribution over-blamed request {anatomy.req_id} "
                f"({anatomy.victim}): blocked time "
                f"{anatomy.blocked_total_ns!r} ns exceeds measured wait "
                f"{anatomy.wait_ns!r} ns"
            )

    def _aggregate(self, anatomy: RequestAnatomy) -> None:
        self.requests_observed += 1
        victim = anatomy.victim
        total = anatomy.total_ns
        self.matrix.add_victim(victim, total)
        bank_matrix = self.bank_matrices[anatomy.bank_index]
        bank_matrix.add_victim(victim, total)
        for cls, ns in anatomy.blocked_ns.items():
            self.matrix.add(victim, cls, ns)
            bank_matrix.add(victim, cls, ns)
        if anatomy.sched_wait_ns:
            self.matrix.add(victim, BLOCKER_SCHEDULER, anatomy.sched_wait_ns)
            bank_matrix.add(victim, BLOCKER_SCHEDULER, anatomy.sched_wait_ns)

        sums = self.component_sums.setdefault(victim, {})
        for name, ns in anatomy.components().items():
            if ns:
                sums[name] = sums.get(name, 0.0) + ns

        if victim == CLASS_READ:
            self.read_refresh_blame_ns += anatomy.refresh_blamed_ns
        self.refresh_backpressure_ns += anatomy.refresh_backpressure_ns
        self.pause_preempt_total_ns += anatomy.pause_preempt_ns

        if self.region_of is not None:
            region = self.region_of(anatomy.block)
            acc = self.region_blame.get(region)
            if acc is None:
                if len(self.region_blame) < _MAX_REGIONS:
                    acc = self.region_blame[region] = [0, 0.0, 0.0]
                else:
                    acc = self.region_overflow
            acc[0] += 1
            acc[1] += anatomy.wait_ns
            acc[2] += anatomy.refresh_blamed_ns

        entry = (total, anatomy.req_id, anatomy)
        if len(self._slowest) < self.top_n:
            heapq.heappush(self._slowest, entry)
        elif entry > self._slowest[0]:
            heapq.heapreplace(self._slowest, entry)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def slowest(self) -> List[RequestAnatomy]:
        """Retained anatomies, slowest first."""
        return [
            item[2] for item in sorted(self._slowest, reverse=True)
        ]

    @property
    def read_latency_total_ns(self) -> float:
        return self.matrix.victim_latency_ns.get(CLASS_READ, 0.0)

    @property
    def read_refresh_share(self) -> float:
        """Fraction of total read latency blamed on RRM refresh traffic
        occupying the bank — the paper's interference cost, pinned in
        ``BENCH_core.json``."""
        total = self.read_latency_total_ns
        return self.read_refresh_blame_ns / total if total else 0.0

    def register_metrics(self, registry, prefix: str = "attribution") -> None:
        """Publish collector counters into a telemetry registry."""
        registry.gauge(
            f"{prefix}.requests_observed", lambda: self.requests_observed
        )
        registry.gauge(
            f"{prefix}.conservation_checks", lambda: self.conservation_checks
        )
        registry.gauge(
            f"{prefix}.max_conservation_error_ns",
            lambda: self.max_conservation_error_ns,
        )
        registry.gauge(
            f"{prefix}.read_refresh_blame_ns",
            lambda: self.read_refresh_blame_ns,
        )
        registry.gauge(
            f"{prefix}.refresh_backpressure_ns",
            lambda: self.refresh_backpressure_ns,
        )
        registry.gauge(
            f"{prefix}.pause_preempt_total_ns",
            lambda: self.pause_preempt_total_ns,
        )
        registry.gauge(
            f"{prefix}.read_refresh_share", lambda: self.read_refresh_share
        )
        registry.gauge(
            f"{prefix}.total_blamed_ns",
            lambda: self.matrix.total_blamed_ns,
        )
