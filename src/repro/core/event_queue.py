"""Future-event list: a binary heap with lazy cancellation.

Dropping a running task at its deadline invalidates that task's pending
completion event. Rather than O(n) heap surgery, cancelled events are marked
in a set and skipped on pop (lazy deletion) — the standard priority-queue
idiom, O(log n) per operation amortised.
"""

from __future__ import annotations

import heapq

from .errors import SimulationStateError
from .events import Event

__all__ = ["EventQueue"]


class EventQueue:
    """Min-heap of :data:`~repro.core.events.Event` tuples.

    Supports O(log n) push/pop and O(1) cancellation by event identity.

    An event is its own heap entry: a tuple whose first three fields are
    ``(time, priority, seq)``, so ``heapq`` orders events by tuple
    comparison in C, and the unique ``seq`` keeps it from ever comparing
    the fields after it. Every cancelled seq stays in the heap
    until its event is popped, so the live count is the heap size less the
    cancelled-set size.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._cancelled: set[int] = set()

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return len(self._heap) - len(self._cancelled)

    def __bool__(self) -> bool:
        return len(self._heap) > len(self._cancelled)

    def push(self, event: Event) -> Event:
        """Insert *event* and return it (handy for keeping a handle)."""
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event: Event) -> bool:
        """Mark *event* cancelled. Returns False if already cancelled/popped."""
        cancelled = self._cancelled
        seq = event[2]
        if seq in cancelled:
            return False
        # Callers hold handles only to events they pushed, so the event is
        # in the heap unless it was popped. Cancelling a popped event is a
        # caller bug; it surfaces once more seqs are cancelled than the
        # heap holds, which we guard against explicitly.
        cancelled.add(seq)
        if len(cancelled) > len(self._heap):  # pragma: no cover - defensive
            raise SimulationStateError("cancelled an event that already fired")
        return True

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises
        ------
        SimulationStateError
            If the queue holds no live events.
        """
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            event = heapq.heappop(heap)
            if cancelled and event[2] in cancelled:
                cancelled.discard(event[2])
                continue
            return event
        raise SimulationStateError("pop from an empty event queue")
