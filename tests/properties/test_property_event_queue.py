"""Property-based tests: the future-event list is a stable priority queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.event_queue import EventQueue
from repro.core.events import EventType, make_event

event_types = st.sampled_from(list(EventType))
times = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


def drain(queue):
    """Pop every live event, in order."""
    return [queue.pop() for _ in range(len(queue))]


@given(st.lists(st.tuples(times, event_types), max_size=200))
def test_pop_order_is_total_order(items):
    queue = EventQueue()
    for t, kind in items:
        queue.push(make_event(t, kind))
    popped = drain(queue)
    keys = [e[:3] for e in popped]
    assert keys == sorted(keys)


@given(st.lists(st.tuples(times, event_types), max_size=200))
def test_len_matches_pushes(items):
    queue = EventQueue()
    for t, kind in items:
        queue.push(make_event(t, kind))
    assert len(queue) == len(items)


@given(
    st.lists(st.tuples(times, event_types), min_size=1, max_size=100),
    st.data(),
)
def test_cancellation_removes_exactly_the_cancelled(items, data):
    queue = EventQueue()
    handles = [queue.push(make_event(t, kind)) for t, kind in items]
    to_cancel = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(handles) - 1),
            unique=True,
            max_size=len(handles),
        )
    )
    for i in to_cancel:
        queue.cancel(handles[i])
    survivors = {h[2] for i, h in enumerate(handles) if i not in set(to_cancel)}
    popped = {e[2] for e in drain(queue)}
    assert popped == survivors


@given(st.lists(times, min_size=2, max_size=100))
def test_fifo_stability_at_equal_keys(ts):
    """Events with identical (time, priority) pop in push order."""
    queue = EventQueue()
    fixed_time = 5.0
    events = [
        make_event(fixed_time, EventType.TASK_ARRIVAL, payload=i)
        for i in range(len(ts))
    ]
    for e in events:
        queue.push(e)
    payloads = [e[4] for e in drain(queue)]
    assert payloads == list(range(len(ts)))


OPS = st.sampled_from(["push", "cancel", "cancel_again", "pop"])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_queue_matches_a_sorted_list_model(data):
    """Push, cancel, double cancel and pop against a sorted list.

    ``live`` holds the live events in key order; ``dead`` holds the
    cancelled events whose heap entries have not been popped yet. The
    queue's length is derived from its heap and cancelled set, so every
    cancelled seq must stay in the heap until its entry is popped.
    """
    queue = EventQueue()
    live = []
    dead = []
    for _ in range(data.draw(st.integers(0, 80))):
        op = data.draw(OPS)
        if op == "push":
            event = make_event(data.draw(times), data.draw(event_types))
            assert queue.push(event) is event
            live.append(event)
            live.sort(key=lambda e: e[:3])
        elif op == "cancel" and live:
            event = live.pop(data.draw(st.integers(0, len(live) - 1)))
            assert queue.cancel(event) is True
            assert event[2] in queue._cancelled
            dead.append(event)
        elif op == "cancel_again" and dead:
            assert queue.cancel(data.draw(st.sampled_from(dead))) is False
        elif op == "pop" and live:
            head = live.pop(0)
            assert queue.pop() is head
            # The pop dropped every cancelled entry ahead of the head.
            dead = [e for e in dead if e[:3] > head[:3]]

        assert len(queue) == len(live)
        assert bool(queue) is bool(live)
        assert queue._cancelled == {e[2] for e in dead}
        assert queue._cancelled <= {e[2] for e in queue._heap}

    assert [e[2] for e in drain(queue)] == [e[2] for e in live]
    assert len(queue) == 0 and not queue
    assert len(queue._heap) == len(queue._cancelled)
