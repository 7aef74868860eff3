"""Tests for bounded controller queues."""

import pytest

from repro.errors import QueueFullError
from repro.memctrl.queues import BoundedQueue, QueueSet
from repro.memctrl.request import MemRequest, RequestType


def req(block=0, rtype=RequestType.READ):
    return MemRequest(rtype=rtype, block=block)


class TestBoundedQueue:
    def test_fifo_order(self):
        q = BoundedQueue(4)
        a, b = req(1), req(2)
        q.push(a)
        q.push(b)
        assert q.pop() is a
        assert q.pop() is b

    def test_capacity_enforced(self):
        q = BoundedQueue(2)
        q.push(req())
        q.push(req())
        assert q.full
        with pytest.raises(QueueFullError):
            q.push(req())
        assert q.rejected == 1

    def test_peek_does_not_remove(self):
        q = BoundedQueue(2)
        a = req()
        q.push(a)
        assert q.peek() is a
        assert len(q) == 1

    def test_peek_empty(self):
        assert BoundedQueue(1).peek() is None

    def test_stats(self):
        q = BoundedQueue(4)
        for i in range(3):
            q.push(req(i))
        q.pop()
        assert q.total_enqueued == 3
        assert q.peak_occupancy == 3


class TestQueueSet:
    def test_request_type_routing(self):
        qs = QueueSet()
        assert qs.by_type[RequestType.READ] is qs.read_queue
        assert qs.by_type[RequestType.WRITE] is qs.write_queue
        assert qs.by_type[RequestType.RRM_REFRESH] is qs.refresh_queue
        assert qs.by_type[RequestType.RRM_SLOW_REFRESH] is qs.refresh_queue

    def test_priority_order(self):
        qs = QueueSet()
        assert qs.in_priority_order() == [
            qs.refresh_queue, qs.read_queue, qs.write_queue
        ]

    def test_paper_capacities(self):
        qs = QueueSet()
        assert qs.refresh_queue.capacity == 64
        assert qs.read_queue.capacity == 32
        assert qs.write_queue.capacity == 64

    def test_total_pending(self):
        qs = QueueSet()
        qs.read_queue.push(req())
        qs.write_queue.push(req(rtype=RequestType.WRITE))
        assert qs.total_pending == 2
