"""Event taxonomy: ordering, priorities, tie-breaks."""

import pytest

from repro.core.events import EVENT_PRIORITY, Event, EventType, reserve_seqs


class TestEventOrdering:
    def test_earlier_time_fires_first(self):
        early = Event(1.0, EventType.TASK_ARRIVAL)
        late = Event(2.0, EventType.TASK_ARRIVAL)
        assert early < late

    def test_completion_beats_deadline_at_same_time(self):
        """A task completing exactly at its deadline is on time."""
        completion = Event(5.0, EventType.TASK_COMPLETION)
        deadline = Event(5.0, EventType.TASK_DEADLINE)
        assert completion < deadline

    def test_completion_beats_arrival_at_same_time(self):
        completion = Event(5.0, EventType.TASK_COMPLETION)
        arrival = Event(5.0, EventType.TASK_ARRIVAL)
        assert completion < arrival

    def test_arrival_beats_deadline_at_same_time(self):
        arrival = Event(5.0, EventType.TASK_ARRIVAL)
        deadline = Event(5.0, EventType.TASK_DEADLINE)
        assert arrival < deadline

    def test_delivery_between_completion_and_arrival(self):
        completion = Event(5.0, EventType.TASK_COMPLETION)
        delivery = Event(5.0, EventType.NETWORK_DELIVERY)
        arrival = Event(5.0, EventType.TASK_ARRIVAL)
        assert completion < delivery < arrival

    def test_fifo_stability_for_identical_kind_and_time(self):
        first = Event(3.0, EventType.TASK_ARRIVAL, payload="a")
        second = Event(3.0, EventType.TASK_ARRIVAL, payload="b")
        assert first < second  # seq counter is monotonic

    def test_time_dominates_priority(self):
        deadline_early = Event(1.0, EventType.TASK_DEADLINE)
        completion_late = Event(2.0, EventType.TASK_COMPLETION)
        assert deadline_early < completion_late


class TestEventStructure:
    def test_priority_property_matches_table(self):
        for kind in EventType:
            assert Event(0.0, kind).priority == EVENT_PRIORITY[kind]

    def test_sort_key_shape(self):
        event = Event(1.5, EventType.TASK_ARRIVAL, payload="p", cluster=(0, 2))
        key = event.sort_key()
        assert key[0] == 1.5
        assert key[1] == EVENT_PRIORITY[EventType.TASK_ARRIVAL]
        # The event is its own heap entry: the key is its first three fields.
        assert event[:3] == key == (1.5, event.priority, event.seq)
        assert event[3:] == (EventType.TASK_ARRIVAL, "p", (0, 2))

    def test_payload_carried_verbatim(self):
        sentinel = object()
        assert Event(0.0, EventType.CROSS_TRAFFIC, sentinel).payload is sentinel

    def test_events_are_frozen(self):
        event = Event(0.0, EventType.CROSS_TRAFFIC)
        with pytest.raises(AttributeError):
            event.time = 1.0  # type: ignore[misc]
        for field in ("priority", "seq", "type", "payload", "cluster", "extra"):
            with pytest.raises(AttributeError):
                setattr(event, field, None)

    def test_every_event_type_has_priority(self):
        assert set(EVENT_PRIORITY) == set(EventType)


class TestEventCopySemantics:
    def test_pickle_round_trip(self):
        import pickle

        event = Event(2.5, EventType.TASK_DEADLINE, payload={"k": 1}, cluster=(3, 1))
        clone = pickle.loads(pickle.dumps(event))
        assert type(clone) is Event
        assert clone.time == event.time
        assert clone.type is event.type
        assert clone.payload == event.payload
        assert clone.seq == event.seq
        assert clone.cluster == (3, 1)
        assert clone.sort_key() == event.sort_key()

    def test_deepcopy(self):
        import copy

        event = Event(1.0, EventType.TASK_ARRIVAL, payload=[1], seq=10**9, cluster=2)
        clone = copy.deepcopy(event)
        assert type(clone) is Event
        assert clone.seq == 10**9
        assert clone.sort_key() == event.sort_key()
        assert clone.cluster == 2
        assert clone.payload == [1] and clone.payload is not event.payload


class TestReserveSeqs:
    def test_reserved_block_is_skipped_by_later_events(self):
        first = reserve_seqs(3)
        assert Event(0.0, EventType.TASK_ARRIVAL).seq == first + 3

    def test_empty_reservation_consumes_nothing(self):
        first = reserve_seqs(0)
        assert Event(0.0, EventType.TASK_ARRIVAL).seq == first
