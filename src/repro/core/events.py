"""Event taxonomy for the discrete-event simulation kernel.

The future-event list orders events by ``(time, priority, seq)``. Priorities
encode the paper's tie-break semantics at equal timestamps:

* a task completing exactly at its deadline counts as *on time*, therefore
  ``TASK_COMPLETION`` sorts before ``TASK_DEADLINE``;
* arrivals are processed after completions (a machine freed at *t* is visible
  to the scheduling pass triggered by an arrival at *t*) but before deadline
  sweeps, so a task arriving exactly at another task's deadline does not see
  stale queue state.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, TypeAlias

__all__ = ["EventType", "Event", "EVENT_PRIORITY", "make_event", "reserve_seqs"]


class EventType(enum.Enum):
    """Kinds of events the simulator processes."""

    TASK_COMPLETION = "task_completion"
    MACHINE_REPAIR = "machine_repair"
    NETWORK_DELIVERY = "network_delivery"
    LINK_TRANSFER = "link_transfer"
    TASK_ARRIVAL = "task_arrival"
    TASK_MIGRATION = "task_migration"
    TASK_DEADLINE = "task_deadline"
    MACHINE_FAILURE = "machine_failure"
    CROSS_TRAFFIC = "cross_traffic"

    # Members are singletons, so identity hashing is exact; Enum's own hash
    # goes through the member name in Python, a frame per EVENT_PRIORITY
    # lookup on the push sites whose event type is a variable.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventType.{self.name}"


#: Total order of event kinds at equal timestamps (lower fires first).
#: Repairs precede arrivals (an arrival at the repair instant sees the
#: machine up); WAN link transfers precede arrivals (a task routed onto a
#: link at the instant a serialization finishes sees the link free);
#: migrations follow arrivals (a rebalance pass at an arrival instant sees
#: the freshly-queued task; a migrated task delivered alongside a local
#: arrival queues behind it) but precede deadlines (a task migrated and
#: expiring at the same instant is swept at its destination, not lost);
#: failures follow deadlines (a task completing or expiring at the failure
#: instant resolves before the machine dies); WAN cross-traffic capacity
#: changes fire after everything that was scheduled under the outgoing
#: rate (a serialisation finishing exactly at an epoch boundary completes
#: under the rate it was integrated with), last of all.
EVENT_PRIORITY: dict[EventType, int] = {
    EventType.TASK_COMPLETION: 0,
    EventType.MACHINE_REPAIR: 1,
    EventType.NETWORK_DELIVERY: 2,
    EventType.LINK_TRANSFER: 3,
    EventType.TASK_ARRIVAL: 4,
    EventType.TASK_MIGRATION: 5,
    EventType.TASK_DEADLINE: 6,
    EventType.MACHINE_FAILURE: 7,
    EventType.CROSS_TRAFFIC: 8,
}

#: Tie-break seq source. :func:`reserve_seqs` rebinds it, so a push site
#: reads it through the module (``events._seq_counter``), never a copy.
_seq_counter = itertools.count()


def reserve_seqs(n: int) -> int:
    """Take the next *n* tie-break seqs off the shared counter; return the first.

    An engine that creates a known set of events lazily (the arrival feed)
    reserves their seqs up front, so each event gets the seq it would have
    had if it had been built at reservation time.
    """
    global _seq_counter
    first = next(_seq_counter)
    _seq_counter = itertools.count(first + n)
    return first


#: A single simulation event: the plain tuple
#: ``(time, priority, seq, type, payload, cluster)``.
#:
#: ``time`` is the simulation timestamp at which it fires; ``priority`` the
#: rank of ``type`` in :data:`EVENT_PRIORITY` (lower fires first); ``seq`` a
#: monotonic tie-break counter, FIFO among equal ``(time, priority)``;
#: ``type`` its :class:`EventType`; ``payload`` event-specific data (a task,
#: a machine, ...) the queue never inspects. ``cluster`` is the routing
#: address in a federated simulation (see :mod:`repro.federation`): a plain
#: ``int`` is the owning cluster shard, which the federation loop routes the
#: event straight back to; a *cluster path* (non-empty ``tuple`` of node ids,
#: root-most first) addresses an event still hopping a hierarchical
#: federation, the remaining hops toward its destination leaf (see
#: :meth:`repro.federation.simulator.FederatedSimulator.route`). A final hop
#: is always stamped in its ``int`` form, so flat federations, whose routes
#: are one hop, carry the same events as pre-hierarchy builds. ``None`` for
#: single-cluster simulations and for federation-level events (gateway
#: arrivals, global deadlines).
#:
#: The future-event list puts an event on its heap as is: tuple comparison
#: orders events by ``(time, priority, seq)``, and the unique ``seq`` means
#: the fields after it are never compared. The engine creates an arrival
#: and a deadline per task plus one event per execution, so the hot push
#: sites build the tuple literal themselves, with priorities bound from
#: :data:`EVENT_PRIORITY` at module scope; every other site calls
#: :func:`make_event`. Readers index or unpack it.
Event: TypeAlias = tuple[float, int, int, EventType, Any, int | tuple[int, ...] | None]


def make_event(
    time: float,
    type: EventType,
    payload: Any = None,
    cluster: int | tuple[int, ...] | None = None,
) -> Event:
    """Build an :data:`Event` with the next shared seq."""
    return (time, EVENT_PRIORITY[type], next(_seq_counter), type, payload, cluster)
