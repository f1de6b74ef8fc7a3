"""Event taxonomy: ordering, priorities, tie-breaks."""

import pytest

from repro.core.events import EVENT_PRIORITY, EventType, make_event, reserve_seqs


class TestEventOrdering:
    def test_earlier_time_fires_first(self):
        early = make_event(1.0, EventType.TASK_ARRIVAL)
        late = make_event(2.0, EventType.TASK_ARRIVAL)
        assert early < late

    def test_completion_beats_deadline_at_same_time(self):
        """A task completing exactly at its deadline is on time."""
        completion = make_event(5.0, EventType.TASK_COMPLETION)
        deadline = make_event(5.0, EventType.TASK_DEADLINE)
        assert completion < deadline

    def test_completion_beats_arrival_at_same_time(self):
        completion = make_event(5.0, EventType.TASK_COMPLETION)
        arrival = make_event(5.0, EventType.TASK_ARRIVAL)
        assert completion < arrival

    def test_arrival_beats_deadline_at_same_time(self):
        arrival = make_event(5.0, EventType.TASK_ARRIVAL)
        deadline = make_event(5.0, EventType.TASK_DEADLINE)
        assert arrival < deadline

    def test_delivery_between_completion_and_arrival(self):
        completion = make_event(5.0, EventType.TASK_COMPLETION)
        delivery = make_event(5.0, EventType.NETWORK_DELIVERY)
        arrival = make_event(5.0, EventType.TASK_ARRIVAL)
        assert completion < delivery < arrival

    def test_fifo_stability_for_identical_kind_and_time(self):
        first = make_event(3.0, EventType.TASK_ARRIVAL, payload="a")
        second = make_event(3.0, EventType.TASK_ARRIVAL, payload="b")
        assert first < second  # seq counter is monotonic

    def test_time_dominates_priority(self):
        deadline_early = make_event(1.0, EventType.TASK_DEADLINE)
        completion_late = make_event(2.0, EventType.TASK_COMPLETION)
        assert deadline_early < completion_late


class TestEventStructure:
    def test_priority_property_matches_table(self):
        for kind in EventType:
            assert make_event(0.0, kind)[1] == EVENT_PRIORITY[kind]

    def test_sort_key_shape(self):
        event = make_event(1.5, EventType.TASK_ARRIVAL, payload="p", cluster=(0, 2))
        time, priority, seq, etype, payload, cluster = event
        key = event[:3]
        assert key[0] == 1.5
        assert key[1] == EVENT_PRIORITY[EventType.TASK_ARRIVAL]
        # The event is its own heap entry: the key is its first three fields.
        assert key == (time, priority, seq) == (1.5, EVENT_PRIORITY[etype], seq)
        assert event[3:] == (EventType.TASK_ARRIVAL, "p", (0, 2))
        assert (etype, payload, cluster) == event[3:]

    def test_payload_carried_verbatim(self):
        sentinel = object()
        assert make_event(0.0, EventType.CROSS_TRAFFIC, sentinel)[4] is sentinel

    def test_events_are_frozen(self):
        event = make_event(0.0, EventType.CROSS_TRAFFIC)
        with pytest.raises(AttributeError):
            event.time = 1.0  # type: ignore[attr-defined]
        for field in ("priority", "seq", "type", "payload", "cluster", "extra"):
            with pytest.raises(AttributeError):
                setattr(event, field, None)
        for index in range(6):
            with pytest.raises(TypeError):
                event[index] = None  # type: ignore[index]

    def test_every_event_type_has_priority(self):
        assert set(EVENT_PRIORITY) == set(EventType)


class TestEventCopySemantics:
    def test_pickle_round_trip(self):
        import pickle

        event = make_event(2.5, EventType.TASK_DEADLINE, payload={"k": 1}, cluster=(3, 1))
        clone = pickle.loads(pickle.dumps(event))
        assert type(clone) is tuple and len(clone) == 6
        time, priority, seq, etype, payload, cluster = clone
        assert time == event[0]
        assert etype is event[3]
        assert payload == event[4]
        assert seq == event[2]
        assert cluster == (3, 1)
        assert clone[:3] == event[:3] == (2.5, priority, seq)

    def test_deepcopy(self):
        import copy

        rank = EVENT_PRIORITY[EventType.TASK_ARRIVAL]
        event = (1.0, rank, 10**9, EventType.TASK_ARRIVAL, [1], 2)
        clone = copy.deepcopy(event)
        assert type(clone) is tuple and len(clone) == 6
        assert clone[2] == 10**9
        assert clone[:3] == event[:3]
        assert clone[3] is EventType.TASK_ARRIVAL
        assert clone[5] == 2
        assert clone[4] == [1] and clone[4] is not event[4]


class TestReserveSeqs:
    def test_reserved_block_is_skipped_by_later_events(self):
        first = reserve_seqs(3)
        assert make_event(0.0, EventType.TASK_ARRIVAL)[2] == first + 3

    def test_empty_reservation_consumes_nothing(self):
        first = reserve_seqs(0)
        assert make_event(0.0, EventType.TASK_ARRIVAL)[2] == first
