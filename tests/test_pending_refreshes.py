"""The compact pending-refresh queue.

A refresh the controller's refresh queue cannot yet take waits in the
monitor as a 16-byte record, and its ``MemRequest`` is built only when the
queue takes it. The reference below builds every request when it is
queued, as the monitor once did. Driven through the same calls against
the same sink, the two must enqueue equal requests, with the same ids,
and make the same ``can_accept`` and ``notify_space`` calls.
"""

import tracemalloc
from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.monitor
from repro.core.config import RRMConfig
from repro.core.monitor import RegionRetentionMonitor
from repro.memctrl import request as request_module
from repro.memctrl.request import MemRequest, RequestType
from repro.pcm.write_modes import WriteModeTable

#: The three request kinds the monitors queue: fast, mid and slow rewrites.
KINDS = (
    (RequestType.RRM_REFRESH, 3),
    (RequestType.RRM_REFRESH, 5),
    (RequestType.RRM_SLOW_REFRESH, 7),
)


class RequestQueueMonitor(RegionRetentionMonitor):
    """Builds each refresh's ``MemRequest`` when it is queued."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._requests = deque()

    def _queue_refresh(self, block, n_sets, rtype, deadline_ns):
        self._requests.append(
            MemRequest(
                rtype=rtype,
                block=block,
                n_sets=n_sets,
                deadline_ns=deadline_ns,
                generated_time_ns=self.sim.now,
            )
        )
        if not self._space_wait_registered:
            self._drain_refreshes()

    def _drain_refreshes(self):
        if self._draining:
            return
        self._draining = True
        try:
            while self._requests:
                head = self._requests[0]
                if not self.controller.can_accept(head.rtype, head.block):
                    if not self._space_wait_registered:
                        self._space_wait_registered = True
                        self.controller.notify_space(
                            head.rtype, head.block, self._on_refresh_space
                        )
                    return
                self._requests.popleft()
                self.controller.enqueue(head)
        finally:
            self._draining = False

    @property
    def pending_refresh_count(self):
        return len(self._requests)


class ScriptedSink:
    """Per-channel refresh queues (channel = block % len(capacities)).

    Logs every call. The n-th ``enqueue`` runs ``reentrant[n]``, if any,
    the way a scheduler kick can run a core whose write queues refreshes.
    """

    def __init__(self, capacities, reentrant):
        self.queues = [deque() for _ in capacities]
        self.capacities = capacities
        self.reentrant = reentrant
        self.waiters = []
        self.calls = []
        self.enqueued = []
        self.base_id = 0

    def channel(self, block):
        return block % len(self.capacities)

    def can_accept(self, rtype, block):
        self.calls.append(("can_accept", rtype, block))
        channel = self.channel(block)
        return len(self.queues[channel]) < self.capacities[channel]

    def enqueue(self, request):
        self.queues[self.channel(request.block)].append(request)
        self.enqueued.append((
            request.rtype, request.block, request.n_sets, request.deadline_ns,
            request.generated_time_ns, request.req_id - self.base_id,
        ))
        action = self.reentrant.get(len(self.enqueued))
        if action is not None:
            action()

    def notify_space(self, rtype, block, callback):
        self.calls.append(("notify_space", rtype, block))
        self.waiters.append((self.channel(block), callback))

    def free(self, channel, count):
        """Service *count* requests of *channel*, then wake its waiters."""
        queue = self.queues[channel]
        for _ in range(min(count, len(queue))):
            queue.popleft()
            # Demand traffic draws request ids between refreshes.
            MemRequest(rtype=RequestType.READ, block=0)
        woken = [cb for ch, cb in self.waiters if ch == channel]
        self.waiters = [(ch, cb) for ch, cb in self.waiters if ch != channel]
        for callback in woken:
            callback()


def make_monitor(cls, sink, sim=None):
    sim = sim if sim is not None else SimpleNamespace(now=0.0)
    return cls(RRMConfig(), WriteModeTable(), sim=sim, controller=sink)


def play(cls, capacities, steps, reentrant_steps):
    """Run *steps* on a fresh *cls* monitor; returns what the sink saw
    and the pending count after every step."""
    sink = ScriptedSink(capacities, {})
    monitor = make_monitor(cls, sink)
    sim = monitor.sim
    sink.base_id = next(request_module._request_ids)

    def queue(kind, block, deadline_ns):
        rtype, n_sets = KINDS[kind]
        monitor._queue_refresh(
            block=block, n_sets=n_sets, rtype=rtype, deadline_ns=deadline_ns
        )

    sink.reentrant = {
        at: (lambda kind=kind, block=block: queue(kind, block, None))
        for at, kind, block in reentrant_steps
    }
    counts = []
    for step in steps:
        op = step[0]
        if op == "burst":
            # One interrupt: one time and one deadline object for all.
            _, slack_ns, refreshes = step
            deadline_ns = None if slack_ns is None else sim.now + slack_ns
            for kind, block in refreshes:
                queue(kind, block, deadline_ns if kind < 2 else None)
        elif op == "single":
            _, kind, block, slack_ns = step
            queue(kind, block, None if slack_ns is None else sim.now + slack_ns)
        elif op == "free":
            sink.free(step[1] % len(capacities), step[2])
        else:
            sim.now += step[1]
        counts.append(monitor.pending_refresh_count)
    # Open every queue, so each refresh still waiting is enqueued and seen.
    sink.capacities = [len(sink.enqueued) + 1000] * len(capacities)
    for channel in range(len(capacities)):
        sink.free(channel, 0)
    counts.append(monitor.pending_refresh_count)
    return sink.enqueued, sink.calls, counts


blocks = st.integers(0, 1 << 27)
slacks = st.one_of(st.none(), st.floats(0.0, 1e7, allow_nan=False))
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("burst"),
            slacks,
            st.lists(st.tuples(st.integers(0, 2), blocks), max_size=40),
        ),
        st.tuples(st.just("single"), st.integers(0, 2), blocks, slacks),
        st.tuples(st.just("free"), st.integers(0, 3), st.integers(0, 10)),
        st.tuples(st.just("tick"), st.floats(1.0, 1e6, allow_nan=False)),
    ),
    max_size=30,
)


#: 100 examples in tier-1, ten times as many under the ``thorough``
#: hypothesis profile (tests/conftest.py).
@settings(max_examples=settings.default.max_examples, deadline=None)
@given(
    capacities=st.lists(st.integers(0, 8), min_size=1, max_size=4),
    steps=steps,
    reentrant_steps=st.lists(
        st.tuples(st.integers(1, 60), st.integers(0, 2), blocks), max_size=5
    ),
)
def test_compact_pending_matches_request_queue(capacities, steps, reentrant_steps):
    reference = play(RequestQueueMonitor, capacities, steps, reentrant_steps)
    compact = play(RegionRetentionMonitor, capacities, steps, reentrant_steps)
    assert compact == reference


class RefusingSink:
    """Takes no refresh until ``open`` is set, then takes every one."""

    def __init__(self):
        self.open = False
        self.waiter = None
        self.enqueued = []

    def can_accept(self, rtype, block):
        return self.open

    def enqueue(self, request):
        self.enqueued.append(request)

    def notify_space(self, rtype, block, callback):
        self.waiter = callback


def test_waiting_refreshes_cost_under_32_bytes_each(monkeypatch):
    built = []

    def counting_request(**fields):
        request = MemRequest(**fields)
        built.append(request.req_id)
        return request

    monkeypatch.setattr(repro.core.monitor, "MemRequest", counting_request)
    sink = RefusingSink()
    monitor = make_monitor(RegionRetentionMonitor, sink)
    config = monitor.config
    n = 20_000
    deadline_ns = monitor.sim.now + 1e6

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for block in range(n):
            monitor._queue_refresh(
                block=block,
                n_sets=config.fast_n_sets,
                rtype=RequestType.RRM_REFRESH,
                deadline_ns=deadline_ns,
            )
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    assert monitor.pending_refresh_count == n
    assert grown < 32 * n, f"{grown / n:.1f} B per waiting refresh"
    assert built == [] and sink.enqueued == []

    sink.open = True
    sink.waiter()
    assert monitor.pending_refresh_count == 0
    assert [r.block for r in sink.enqueued] == list(range(n))
    assert len(built) == n
    assert built == sorted(built)


def test_a_burst_past_256_kinds_keeps_every_deadline():
    """Refreshes at one time but with distinct deadline objects each take
    a kind; past 256 kinds a new burst opens and order is kept."""
    sink = RefusingSink()
    monitor = make_monitor(RegionRetentionMonitor, sink)
    deadlines = [monitor.sim.now + 1.5 * i for i in range(600)]
    for block, deadline_ns in enumerate(deadlines):
        monitor._queue_refresh(
            block=block, n_sets=3, rtype=RequestType.RRM_REFRESH,
            deadline_ns=deadline_ns,
        )
    assert monitor.pending_refresh_count == len(deadlines)
    sink.open = True
    sink.waiter()
    assert [r.deadline_ns for r in sink.enqueued] == deadlines
    assert [r.block for r in sink.enqueued] == list(range(len(deadlines)))
