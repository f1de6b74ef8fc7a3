"""Future-event list: heap behaviour, lazy cancellation."""

import pytest

from repro.core.errors import SimulationStateError
from repro.core.event_queue import EventQueue
from repro.core.events import Event, EventType, make_event


def ev(time: float, kind: EventType = EventType.TASK_ARRIVAL) -> Event:
    return make_event(time, kind)


class TestBasicOps:
    def test_empty_queue_is_falsy(self):
        queue = EventQueue()
        assert not queue
        assert len(queue) == 0

    def test_push_pop_orders_by_time(self):
        queue = EventQueue()
        events = [ev(3.0), ev(1.0), ev(2.0)]
        for e in events:
            queue.push(e)
        assert [queue.pop()[0] for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationStateError):
            EventQueue().pop()

    def test_len_counts_live_events(self):
        queue = EventQueue()
        for t in (1.0, 2.0, 3.0):
            queue.push(ev(t))
        assert len(queue) == 3
        queue.pop()
        assert len(queue) == 2

class TestPriorityInterleaving:
    def test_same_time_priority_order(self):
        queue = EventQueue()
        arrival = ev(1.0, EventType.TASK_ARRIVAL)
        completion = ev(1.0, EventType.TASK_COMPLETION)
        deadline = ev(1.0, EventType.TASK_DEADLINE)
        for e in (deadline, arrival, completion):
            queue.push(e)
        assert queue.pop() is completion
        assert queue.pop() is arrival
        assert queue.pop() is deadline


class TestCancellation:
    def test_cancelled_event_never_pops(self):
        queue = EventQueue()
        doomed = queue.push(ev(1.0))
        queue.push(ev(2.0))
        assert queue.cancel(doomed)
        assert queue.pop()[0] == 2.0
        assert not queue

    def test_cancel_updates_len(self):
        queue = EventQueue()
        doomed = queue.push(ev(1.0))
        queue.push(ev(2.0))
        queue.cancel(doomed)
        assert len(queue) == 1

    def test_double_cancel_returns_false(self):
        queue = EventQueue()
        doomed = queue.push(ev(1.0))
        assert queue.cancel(doomed)
        assert not queue.cancel(doomed)

    def test_cancel_all_then_empty(self):
        queue = EventQueue()
        handles = [queue.push(ev(float(t))) for t in range(5)]
        for h in handles:
            queue.cancel(h)
        assert not queue
        with pytest.raises(SimulationStateError):
            queue.pop()

    def test_interleaved_cancel_and_pop(self):
        queue = EventQueue()
        events = [queue.push(ev(float(t))) for t in range(6)]
        queue.cancel(events[0])
        queue.cancel(events[3])
        popped = [queue.pop()[0] for _ in range(len(queue))]
        assert popped == [1.0, 2.0, 4.0, 5.0]
