"""WAN links as queueing resources: contention + energy for federations.

PR 3's federation layer charged every offload an *independent*
``latency + size/bandwidth`` delay: two transfers entering the same WAN link
at the same instant overlapped for free, and moving a megabyte cost no
energy. This module turns each inter-cluster link into a first-class
simulated resource:

* :class:`LinkChannel` — the per-physical-link state machine. Transfers are
  split into a **serialisation** phase (payload bytes occupy the pipe; this
  is what concurrent transfers contend for) followed by a **propagation**
  phase (the link's latency; propagation always overlaps). The channel runs
  the link's configured discipline (:attr:`repro.net.topology.Link.contention`):

  - ``"none"`` — the legacy model, kept bit-identical: one delivery event per
    transfer at ``submit + latency + size/bandwidth``, no interaction.
  - ``"fifo"`` — transfers serialise one at a time in arrival order; the
    channel keeps a queue and one in-service transfer whose completion is a
    :attr:`~repro.core.events.EventType.LINK_TRANSFER` event on the shared
    federation heap.
  - ``"ps"`` — processor sharing: all in-flight transfers split the
    bandwidth equally; on every membership change the channel re-integrates
    remaining payloads and reschedules the next finisher.

* :class:`WanManager` — owns every channel of a federation (lazily, keyed by
  :meth:`~repro.net.topology.InterClusterTopology.link_key` so symmetric
  traffic shares one pipe), submits/cancels/delivers transfers, accumulates
  WAN time, and produces the per-link usage + energy report.

Energy model (per link): ``energy_per_mb`` joules are charged as payload
megabytes are serialised (cancelled transfers pay only for the fraction
that crossed); ``busy_watts`` accrues while the link is serialising at least
one transfer and ``idle_watts`` for the rest of the run. For ``"none"``
links the busy time is the *sum* of individual serialisation times (the
discipline lets transfers overlap for free, so there is no shared busy
interval to integrate — documented approximation).

Links may additionally carry a background **cross-traffic** process (see
:mod:`repro.net.crosstraffic`): the channel then serves transfers at the
residual capacity ``bandwidth * (1 - u(t))``, re-integrating in-flight
payloads at every utilisation epoch via ``CROSS_TRAFFIC`` tick events that
exist only while the pipe is busy. Channels without cross-traffic take the
exact legacy arithmetic paths, so historical runs stay bit-identical.

Deadline cancellation is exact for every phase: a queued transfer is lazily
removed, an in-service transfer frees the link immediately (FIFO starts the
next queued transfer; PS re-shares the bandwidth), and a propagating
transfer's delivery event is cancelled. Conservation — every routed task
reaches a terminal state — is unchanged because the federation records the
cancelled task exactly as the uncontended path did.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.errors import SimulationStateError
from ..core import events as _events
from ..core.events import EVENT_PRIORITY, Event, EventType, make_event
from ..core.rng import derive_seed
from .crosstraffic import CrossTrafficState
from .topology import InterClusterTopology, Link

if TYPE_CHECKING:  # pragma: no cover
    from ..core.event_queue import EventQueue
    from ..tasks.task import Task

__all__ = [
    "TransferPhase",
    "WanTransfer",
    "LinkChannel",
    "LinkUsage",
    "WanManager",
]

#: Residual-payload tolerance (MB) under which a PS transfer counts as done.
_EPS_MB = 1e-9

# Enum member access costs an attribute lookup per hit on CPython; the WAN
# channel machinery sits on the contended-federation hot path, so the members
# it tests/schedules with are bound once at module level.
_LINK_TRANSFER = EventType.LINK_TRANSFER
_LINK_TRANSFER_RANK = EVENT_PRIORITY[_LINK_TRANSFER]
_CROSS_TRAFFIC_EVENT = EventType.CROSS_TRAFFIC


class TransferPhase(enum.Enum):
    """Lifecycle of one WAN transfer inside its link channel."""

    DIRECT = "direct"            # legacy "none" discipline: single delivery event
    QUEUED = "queued"            # FIFO: waiting for the pipe
    SERVING = "serving"          # serialising (FIFO head, or PS member)
    PROPAGATING = "propagating"  # serialised; latency left before delivery
    DELIVERED = "delivered"      # reached the destination shard
    CANCELLED = "cancelled"      # deadline fired while still in the WAN


# Bound at module level like the event types above: each WAN hop sets its
# transfer's phase three times and tests it at delivery.
_DIRECT = TransferPhase.DIRECT
_QUEUED = TransferPhase.QUEUED
_SERVING = TransferPhase.SERVING
_PROPAGATING = TransferPhase.PROPAGATING
_DELIVERED = TransferPhase.DELIVERED
_CANCELLED = TransferPhase.CANCELLED


class WanTransfer:
    """One task crossing one WAN link (the unit the channels queue).

    Mutable bookkeeping object; the federation holds it as the cancellation
    handle for a task that is still in the WAN (the contended twin of a
    bare delivery :data:`~repro.core.events.Event`).
    """

    __slots__ = (
        "task",
        "megabytes",
        "submitted_at",
        "started_at",
        "remaining_mb",
        "phase",
        "channel",
        "service_event",
        "delivery_event",
        "kind",
        "tag",
    )

    def __init__(
        self,
        task: "Task",
        megabytes: float,
        submitted_at: float,
        channel: "LinkChannel",
        kind: EventType,
        tag: int | tuple[int, ...],
    ) -> None:
        self.task = task
        self.megabytes = megabytes
        self.submitted_at = submitted_at
        self.started_at = submitted_at
        self.remaining_mb = megabytes
        self.phase = _QUEUED
        self.channel = channel
        self.service_event: Event | None = None
        self.delivery_event: Event | None = None
        #: Event kind of the delivery (TASK_ARRIVAL for gateway offloads,
        #: TASK_MIGRATION for mid-queue migrations); both kinds share the
        #: link's pipe and pay the same energy — only dispatch differs.
        self.kind = kind
        #: ``cluster`` field stamped on the delivery event: the
        #: destination index on a final hop; the federation tags the relay
        #: hops of a tree route with the remaining node path instead
        #: (:meth:`repro.federation.simulator.FederatedSimulator.route`).
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WanTransfer(task={self.task.id}, mb={self.megabytes}, "
            f"phase={self.phase.value}, link={self.channel.label})"
        )


@dataclass(frozen=True)
class LinkUsage:
    """Traffic + energy account of one physical WAN link over a run.

    ``busy_time`` is the time the link spent serialising at least one
    transfer (for ``"none"`` links: the sum of serialisation times, since
    that discipline lets transfers overlap). ``transfer_energy`` is the
    J/MB payload cost; ``active_energy``/``idle_energy`` integrate the
    link's electrical power over busy/idle time.
    """

    delivered: int
    abandoned: int
    mb_delivered: float
    mb_abandoned: float
    busy_time: float
    wait_time: float
    transfer_energy: float
    active_energy: float
    idle_energy: float

    @property
    def total_energy(self) -> float:
        """All joules attributable to this link."""
        return self.transfer_energy + self.active_energy + self.idle_energy

    def utilization(self, end_time: float) -> float:
        """Fraction of the run the link spent serialising."""
        return self.busy_time / end_time if end_time > 0 else 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat numeric form for CSV/JSON reporting."""
        out = {
            "delivered": float(self.delivered),
            "abandoned": float(self.abandoned),
            "mb_delivered": self.mb_delivered,
            "mb_abandoned": self.mb_abandoned,
            "busy_time": self.busy_time,
            "wait_time": self.wait_time,
            "transfer_energy": self.transfer_energy,
            "active_energy": self.active_energy,
            "idle_energy": self.idle_energy,
            "total_energy": self.total_energy,
        }
        return out


class LinkChannel:
    """Contention + energy state of one physical WAN link.

    Created lazily by :class:`WanManager` the first time traffic touches a
    link; keyed by the topology's canonical
    :meth:`~repro.net.topology.InterClusterTopology.link_key`, so with a
    symmetric topology both directions of a cluster pair share this state —
    one pipe, as on a real WAN.
    """

    __slots__ = (
        "key",
        "label",
        "link",
        "_events",
        "_fifo_mode",
        "_ps_mode",
        "_serving",
        "_fifo",
        "_queued_mb",
        "_active",
        "_last_update",
        "_next_finish",
        "_rate",
        "_traffic",
        "_tick",
        "_drained_at",
        "busy_time",
        "wait_time",
        "transfer_energy",
        "mb_delivered",
        "mb_abandoned",
        "delivered",
        "abandoned",
    )

    def __init__(
        self,
        key: tuple[str, str],
        link: Link,
        events: "EventQueue",
        label: str | None = None,
        cross_traffic: "CrossTrafficState | None" = None,
    ) -> None:
        self.key = key
        self.label = label if label is not None else f"{key[0]}->{key[1]}"
        self.link = link
        self._events = events
        # The discipline never changes after construction; every hot method
        # branches on it, so the string compare is resolved once here.
        self._fifo_mode = link.contention == "fifo"
        self._ps_mode = link.contention == "ps"
        # FIFO state
        self._serving: WanTransfer | None = None
        self._fifo: deque[WanTransfer] = deque()
        self._queued_mb = 0.0
        # PS state
        self._active: list[WanTransfer] = []
        self._last_update = 0.0
        self._next_finish: Event | None = None
        # Cross-traffic state. ``_rate`` is the residual capacity (MB/s)
        # simulated transfers currently serve at; without cross-traffic it
        # is exactly ``link.bandwidth`` forever, so the drain/reschedule
        # arithmetic below is bit-identical to the unmodulated engine.
        self._rate = link.bandwidth
        self._traffic = cross_traffic
        self._tick: Event | None = None
        self._drained_at = 0.0
        # accounting
        self.busy_time = 0.0
        self.wait_time = 0.0
        self.transfer_energy = 0.0
        self.mb_delivered = 0.0
        self.mb_abandoned = 0.0
        self.delivered = 0
        self.abandoned = 0

    # -- signals for gateway policies ------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Transfers currently occupying or waiting for the pipe."""
        if self._fifo_mode:
            waiting = sum(
                1 for t in self._fifo if t.phase is _QUEUED
            )
            return waiting + (1 if self._serving is not None else 0)
        if self._ps_mode:
            return len(self._active)
        return 0

    def estimated_delay(self, megabytes: float, now: float) -> float:
        """Expected in-WAN time of a payload submitted now (backlog-aware).

        FIFO: remaining service of the head + queued payloads + own
        serialisation + latency. PS: own serialisation stretched by the
        current sharing factor + latency (optimistic — departures speed it
        up, joiners slow it down). ``"none"``: the static
        :meth:`~repro.net.topology.Link.delay_for`.
        """
        link = self.link
        if self._fifo_mode:
            backlog = self._queued_mb / self._rate
            head = self._serving
            if head is not None and head.service_event is not None:
                backlog += max(0.0, head.service_event[0] - now)
            return backlog + link.latency + self._service_time(megabytes)
        if self._ps_mode:
            share = len(self._active) + 1
            return link.latency + self._service_time(megabytes) * share
        return link.delay_for(megabytes)

    def _service_time(self, megabytes: float) -> float:
        """Serialisation time at the current residual capacity.

        Identical to :meth:`~repro.net.topology.Link.service_time` while no
        cross-traffic is attached (the rate then equals the bandwidth).
        """
        if self._rate > 0 and megabytes > 0:
            return megabytes / self._rate
        return 0.0

    # -- background cross-traffic -------------------------------------------------------

    def _sync_cross_traffic(self, now: float) -> None:
        """Apply the background utilisation in effect at *now*.

        Called before any submit/tick under the old rate has been integrated
        up to *now*; cheap no-op while the utilisation epoch is unchanged.
        """
        traffic = self._traffic
        if traffic is None:
            return
        rate = self.link.bandwidth * (1.0 - traffic.utilisation_at(now))
        if rate != self._rate:
            self._set_rate(rate, now)

    def _set_rate(self, rate: float, now: float) -> None:
        """Switch the residual capacity, re-integrating in-flight payloads."""
        if self._ps_mode:
            self._elapse(now)  # drain under the outgoing rate first
            self._rate = rate
            if self._active:
                self._reschedule(now)
            return
        # FIFO: drain the serving transfer under the outgoing rate, then
        # re-plan its completion at the new one.
        serving = self._serving
        if serving is not None:
            self._drain_serving(now)
        self._rate = rate
        if serving is not None:
            when = now + self._service_time(max(serving.remaining_mb, 0.0))
            stale = serving.service_event
            if stale is not None:
                if stale[0] == when:
                    # Coalesced: the rate change leaves the completion where
                    # it already is (e.g. the payload has fully drained) —
                    # keep the scheduled event, skip the cancel + re-push.
                    return
                self._events.cancel(stale)
            serving.service_event = self._events.push(
                make_event(when, _LINK_TRANSFER, self)
            )

    def _drain_serving(self, now: float) -> None:
        """Integrate the FIFO head's payload drain since the last update."""
        serving = self._serving
        if serving is not None:
            dt = now - self._drained_at
            if dt > 0:
                serving.remaining_mb = max(
                    serving.remaining_mb - dt * self._rate, 0.0
                )
        self._drained_at = now

    def _busy(self) -> bool:
        """At least one transfer is serialising on this pipe."""
        return self._serving is not None or bool(self._active)

    def _schedule_tick(self, now: float) -> None:
        """Plan the next utilisation-change event while the pipe is busy.

        An idle channel schedules nothing — the process is advanced lazily
        at the next submit — so cross-traffic never keeps the future-event
        list non-empty after the workload drains.
        """
        traffic = self._traffic
        if traffic is None or self._tick is not None or not self._busy():
            return
        self._tick = self._events.push(
            make_event(traffic.next_boundary(now), _CROSS_TRAFFIC_EVENT, self)
        )

    def _cancel_tick(self) -> None:
        if self._tick is not None:
            self._events.cancel(self._tick)
            self._tick = None

    def on_traffic_tick(self, now: float) -> None:
        """A CROSS_TRAFFIC event fired: enter the next utilisation epoch."""
        self._tick = None
        self._sync_cross_traffic(now)
        self._schedule_tick(now)

    # -- submission --------------------------------------------------------------------

    def submit(self, transfer: WanTransfer, now: float) -> None:
        """Admit a transfer; schedules whatever event its discipline needs."""
        if self._traffic is not None:
            self._sync_cross_traffic(now)
        if self._fifo_mode:
            if self._serving is None:
                self._start_service(transfer, now)
            else:
                transfer.phase = _QUEUED
                self._fifo.append(transfer)
                self._queued_mb += transfer.megabytes
            self._schedule_tick(now)
            return
        if self._ps_mode:
            self._elapse(now)
            transfer.phase = _SERVING
            transfer.started_at = now
            self._active.append(transfer)
            self._reschedule(now)
            self._schedule_tick(now)
            return
        # "none": the legacy single delivery event, scheduled by the caller
        # (WanManager) so the event creation order matches PR 3 exactly.
        transfer.phase = _DIRECT

    # -- FIFO machinery ---------------------------------------------------------------

    def _start_service(self, transfer: WanTransfer, now: float) -> None:
        transfer.phase = _SERVING
        transfer.started_at = now
        self.wait_time += now - transfer.submitted_at
        self._drained_at = now
        when = now + self._service_time(transfer.remaining_mb)
        transfer.service_event = self._events.push(
            (when, _LINK_TRANSFER_RANK, next(_events._seq_counter), _LINK_TRANSFER, self, None)
        )
        self._serving = transfer

    def _start_next(self, now: float) -> None:
        while self._fifo:
            candidate = self._fifo.popleft()
            if candidate.phase is _CANCELLED:
                continue
            self._queued_mb -= candidate.megabytes
            self._start_service(candidate, now)
            return

    # -- PS machinery -----------------------------------------------------------------

    def _elapse(self, now: float) -> None:
        """Integrate payload drain (and busy time) since the last update."""
        active = self._active
        if active:
            dt = now - self._last_update
            if dt > 0:
                drained = dt * self._rate / len(active)
                for transfer in active:
                    transfer.remaining_mb -= drained
                self.busy_time += dt
        self._last_update = now

    def _reschedule(self, now: float) -> None:
        stale = self._next_finish
        active = self._active
        if active:
            min_remaining = min(t.remaining_mb for t in active)
            dt = max(min_remaining, 0.0) * len(active) / self._rate
            when = now + dt
            if stale is not None:
                if stale[0] == when:
                    # Coalesced: the membership/rate change did not move the
                    # next serialisation milestone (e.g. a joiner with zero
                    # payload) — keep the scheduled event as-is.
                    return
                self._events.cancel(stale)
            self._next_finish = self._events.push(
                (when, _LINK_TRANSFER_RANK, next(_events._seq_counter), _LINK_TRANSFER, self, None)
            )
        elif stale is not None:
            self._events.cancel(stale)
            self._next_finish = None

    # -- the LINK_TRANSFER event handler ------------------------------------------------

    def on_fire(self, now: float) -> None:
        """A serialisation milestone on this link fired."""
        if self._fifo_mode:
            transfer = self._serving
            if transfer is None:  # pragma: no cover - defensive
                raise SimulationStateError(
                    f"link {self.label}: serialisation event fired while idle"
                )
            transfer.service_event = None
            self._serving = None
            self.busy_time += now - transfer.started_at
            self._finish_serialisation(transfer, now)
            self._start_next(now)
            if self._traffic is not None and self._serving is None:
                self._cancel_tick()
            return
        if self._ps_mode:
            self._next_finish = None
            self._elapse(now)
            finished = [
                t for t in self._active if t.remaining_mb <= _EPS_MB
            ]
            if not finished and self._active:  # float residue guard
                finished = [min(self._active, key=lambda t: t.remaining_mb)]
            for transfer in finished:
                self._active.remove(transfer)
                self._finish_serialisation(transfer, now)
            self._reschedule(now)
            if self._traffic is not None and not self._active:
                self._cancel_tick()
            return
        raise SimulationStateError(  # pragma: no cover - defensive
            f"link {self.label}: discipline {self.link.contention!r} "
            "schedules no serialisation events"
        )

    def _finish_serialisation(self, transfer: WanTransfer, now: float) -> None:
        """Payload fully across the pipe; propagate, then deliver."""
        self.transfer_energy += self.link.transfer_energy(transfer.megabytes)
        self.mb_delivered += transfer.megabytes
        transfer.remaining_mb = 0.0
        transfer.phase = _PROPAGATING
        kind, seq = transfer.kind, next(_events._seq_counter)
        transfer.delivery_event = self._events.push(
            (now + self.link.latency, EVENT_PRIORITY[kind], seq, kind, transfer.task, transfer.tag)
        )

    # -- delivery / cancellation --------------------------------------------------------

    def on_delivered(self, transfer: WanTransfer) -> None:
        """The transfer's task reached its destination shard."""
        if transfer.phase is _DIRECT:
            # Legacy discipline: all accounting happens at delivery.
            serial = self.link.service_time(transfer.megabytes)
            self.busy_time += serial
            self.transfer_energy += self.link.transfer_energy(
                transfer.megabytes
            )
            self.mb_delivered += transfer.megabytes
        transfer.phase = _DELIVERED
        transfer.delivery_event = None
        self.delivered += 1

    def record_instant(self, megabytes: float) -> None:
        """A zero-delay offload (no event): count payload + energy only."""
        self.transfer_energy += self.link.transfer_energy(megabytes)
        self.mb_delivered += megabytes
        self.delivered += 1

    def cancel(self, transfer: WanTransfer, now: float) -> None:
        """Deadline fired while the transfer was still in the WAN."""
        link = self.link
        phase = transfer.phase
        self.abandoned += 1
        if phase is _QUEUED:
            # Lazily removed from the FIFO by _start_next.
            self._queued_mb -= transfer.megabytes
            self.mb_abandoned += transfer.megabytes
            self.wait_time += now - transfer.submitted_at
        elif phase is _SERVING:
            if self._fifo_mode:
                elapsed = now - transfer.started_at
                if self._traffic is None:
                    # Legacy arithmetic, kept verbatim: golden runs compare
                    # these energies bit-for-bit.
                    service = link.service_time(transfer.megabytes)
                    fraction = elapsed / service if service > 0 else 1.0
                    energy = link.transfer_energy(transfer.megabytes) * fraction
                else:
                    # Residual capacity varied mid-service: the drained
                    # payload, not elapsed/service, is what crossed.
                    self._drain_serving(now)
                    crossed = transfer.megabytes - max(
                        transfer.remaining_mb, 0.0
                    )
                    energy = link.energy_per_mb * crossed
                self.busy_time += elapsed
                self.transfer_energy += energy
                self.mb_abandoned += transfer.megabytes
                if transfer.service_event is not None:
                    self._events.cancel(transfer.service_event)
                    transfer.service_event = None
                self._serving = None
                self._start_next(now)
            else:  # ps
                self._elapse(now)
                self._active.remove(transfer)
                crossed = transfer.megabytes - max(transfer.remaining_mb, 0.0)
                self.transfer_energy += link.energy_per_mb * crossed
                self.mb_abandoned += transfer.megabytes
                self._reschedule(now)
            if self._traffic is not None and not self._busy():
                self._cancel_tick()
        elif phase is _PROPAGATING:
            # Payload already crossed (and was charged); only the delivery
            # is abandoned.
            if transfer.delivery_event is not None:
                self._events.cancel(transfer.delivery_event)
                transfer.delivery_event = None
        elif phase is _DIRECT:
            if transfer.delivery_event is not None:
                self._events.cancel(transfer.delivery_event)
                transfer.delivery_event = None
            serial = link.service_time(transfer.megabytes)
            elapsed = now - transfer.submitted_at
            crossed_time = min(elapsed, serial)
            fraction = crossed_time / serial if serial > 0 else 1.0
            self.busy_time += crossed_time
            self.transfer_energy += (
                link.transfer_energy(transfer.megabytes) * fraction
            )
            self.mb_abandoned += transfer.megabytes
        else:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"cannot cancel transfer of task {transfer.task.id} "
                f"in phase {phase.value}"
            )
        transfer.phase = _CANCELLED

    # -- reporting ---------------------------------------------------------------------

    def usage(self, end_time: float) -> LinkUsage:
        """Snapshot this link's traffic + energy account at *end_time*."""
        busy = self.busy_time
        # A partial-run snapshot may catch a transfer mid-serialisation;
        # integrate the open interval without mutating state.
        if self._active and end_time > self._last_update:
            busy += end_time - self._last_update
        if self._serving is not None and end_time > self._serving.started_at:
            busy += end_time - self._serving.started_at
        idle = max(end_time - busy, 0.0)
        return LinkUsage(
            delivered=self.delivered,
            abandoned=self.abandoned,
            mb_delivered=self.mb_delivered,
            mb_abandoned=self.mb_abandoned,
            busy_time=busy,
            wait_time=self.wait_time,
            transfer_energy=self.transfer_energy,
            active_energy=self.link.busy_watts * busy,
            idle_energy=self.link.idle_watts * idle,
        )


class WanManager:
    """Every WAN link channel of one federated run, plus totals.

    The federation submits each offloaded task here; the manager resolves
    the physical link (lazily creating its :class:`LinkChannel`), runs the
    link's discipline, and keeps the WAN-time total the federation reports.
    For ``"none"`` links it reproduces PR 3's event stream exactly — one
    delivery event per transfer, scheduled at submit — so golden runs
    recorded before contention existed stay bit-identical.
    """

    def __init__(
        self,
        topology: InterClusterTopology,
        events: "EventQueue",
        names: list[str],
        seed: int | None = None,
    ) -> None:
        self._topology = topology
        self._events = events
        self._names = names
        #: Root seed of the per-link cross-traffic substreams (each link's
        #: MMPP dwell sequence is derived from it by link key, so adding a
        #: link never perturbs another link's bursts).
        self._seed = seed
        self._channels: dict[tuple[str, str], LinkChannel] = {}
        #: Per-(origin, destination) resolved route — ``(channel, link,
        #: is_contended)`` memoized on first use so the submit/query hot
        #: paths skip the name → link_key → dict resolution chain. Entries
        #: appear only once traffic (or a query against an existing
        #: channel) touches the pair.
        n = len(names)
        self._route: list[list[tuple[LinkChannel, Link, bool] | None]] = [
            [None] * n for _ in range(n)
        ]
        #: Sum of every transfer's in-WAN time ("none": planned delay at
        #: submit, PR 3 semantics; contended: actual time, at delivery or
        #: cancellation).
        self.total_time = 0.0
        # Materialise channels for every energy-bearing link up front: an
        # idle WAN port burns joules whether or not traffic ever arrives,
        # so zero-traffic links must still appear in the energy report
        # (and idle power must not be discontinuous in the first offload).
        # Plain links stay lazy — no energy to account, no report row.
        for (src, dst), link in topology.links.items():
            if link.has_energy_model and src in names and dst in names:
                self.channel_between(src, dst)
        if topology.default.has_energy_model:
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    # Only pairs whose *effective* link carries the energy
                    # model: an explicit plain link overrides the default
                    # and must not produce an all-zero report row.
                    if topology.link_between(a, b).has_energy_model:
                        self.channel_between(a, b)
                    if not topology.symmetric and topology.link_between(
                        b, a
                    ).has_energy_model:
                        self.channel_between(b, a)

    # -- channel resolution ------------------------------------------------------------

    def channel_between(self, src: str, dst: str) -> LinkChannel:
        """The (lazily created) physical-link state for src→dst traffic."""
        key = self._topology.link_key(src, dst)
        channel = self._channels.get(key)
        if channel is None:
            shared = self._topology.symmetric and (
                key[1],
                key[0],
            ) not in self._topology.links
            link = self._topology.link_between(src, dst)
            state = None
            if link.cross_traffic is not None:
                state = link.cross_traffic.make_state(
                    derive_seed(self._seed, "crosstraffic", key[0], key[1])
                )
            channel = LinkChannel(
                key,
                link,
                self._events,
                label=(
                    f"{key[0]}<->{key[1]}" if shared else f"{key[0]}->{key[1]}"
                ),
                cross_traffic=state,
            )
            self._channels[key] = channel
        return channel

    def _route_to(
        self, origin: int, destination: int
    ) -> tuple[LinkChannel, Link, bool]:
        """The memoized physical route for origin→destination traffic."""
        route = self._route[origin][destination]
        if route is None:
            channel = self.channel_between(
                self._names[origin], self._names[destination]
            )
            route = (channel, channel.link, channel.link.is_contended)
            self._route[origin][destination] = route
        return route

    # -- gateway-facing signals ---------------------------------------------------------

    def _open_channel(self, origin: int, destination: int) -> LinkChannel | None:
        """The origin→destination channel if one exists; never creates it.

        A query must not materialise a channel: that would add a row to the
        link report. An existing channel's route is memoized for later
        queries and submits.
        """
        route = self._route[origin][destination]
        if route is not None:
            return route[0]
        channel = self._channels.get(
            self._topology.link_key(self._names[origin], self._names[destination])
        )
        if channel is not None:
            self._route[origin][destination] = (
                channel,
                channel.link,
                channel.link.is_contended,
            )
        return channel

    def estimated_delay(
        self, origin: int, destination: int, megabytes: float, now: float
    ) -> float:
        """Backlog-aware expected in-WAN time of a payload at *now*.

        ``origin``/``destination`` are node indices, as for :meth:`submit`.
        A pair no traffic has touched yet answers with the static topology
        delay.
        """
        if origin == destination:
            return 0.0
        channel = self._open_channel(origin, destination)
        if channel is None:
            return self._topology.wan_delay(
                self._names[origin], self._names[destination], megabytes
            )
        return channel.estimated_delay(megabytes, now)

    def queue_depth(self, origin: int, destination: int) -> int:
        """Transfers occupying/waiting for the origin→destination link."""
        if origin == destination:
            return 0
        channel = self._open_channel(origin, destination)
        return 0 if channel is None else channel.queue_depth

    # -- transfer lifecycle -------------------------------------------------------------

    def submit(
        self,
        task: "Task",
        origin: int,
        destination: int,
        now: float,
        kind: EventType = EventType.TASK_ARRIVAL,
        tag: int | tuple[int, ...] | None = None,
    ) -> WanTransfer | None:
        """Route an offloaded (or migrated) task into the WAN.

        ``kind`` is the delivery event's type: ``TASK_ARRIVAL`` for gateway
        offloads, ``TASK_MIGRATION`` for mid-queue migrations — both contend
        for the same physical link. ``tag`` overrides the ``cluster`` field
        stamped on the delivery (the relay hops of a tree route carry
        the remaining node path; the default is ``destination``, the
        final-hop form). Returns the :class:`WanTransfer` handle
        the federation keeps for deadline cancellation, or ``None`` when the
        task crosses instantly (zero-delay link) and was already accounted.
        """
        channel, link, contended = self._route_to(origin, destination)
        megabytes = task.task_type.data_in
        if tag is None:
            tag = destination
        if not contended:
            delay = link.delay_for(megabytes)
            if delay <= 0.0:
                channel.record_instant(megabytes)
                return None
            self.total_time += delay
            transfer = WanTransfer(task, megabytes, now, channel, kind, tag)
            channel.submit(transfer, now)
            transfer.delivery_event = self._events.push(
                (now + delay, EVENT_PRIORITY[kind], next(_events._seq_counter), kind, task, tag)
            )
            return transfer
        transfer = WanTransfer(task, megabytes, now, channel, kind, tag)
        channel.submit(transfer, now)
        return transfer

    def release(self, transfer: WanTransfer) -> None:
        """No-op, kept because ``perfbench/tracing.py`` wraps it per engine.

        A transfer is a plain object freed with its last reference.
        """

    def on_delivered(self, transfer: WanTransfer, now: float) -> None:
        """A WAN delivery event fired: the task is at its destination."""
        if transfer.phase is not _DIRECT:
            self.total_time += now - transfer.submitted_at
        transfer.channel.on_delivered(transfer)

    def cancel(self, transfer: WanTransfer, now: float) -> None:
        """Deadline fired mid-WAN; free the link and account the abandon."""
        if transfer.phase in (
            _QUEUED,
            _SERVING,
            _PROPAGATING,
        ):
            self.total_time += now - transfer.submitted_at
        transfer.channel.cancel(transfer, now)

    # -- event dispatch -----------------------------------------------------------------

    @staticmethod
    def on_link_event(event: Event, now: float) -> None:
        """Handle a LINK_TRANSFER event (payload is the owning channel)."""
        channel = event[4]
        if not isinstance(channel, LinkChannel):  # pragma: no cover
            raise SimulationStateError(
                f"LINK_TRANSFER event carries {type(channel).__name__}, "
                "expected a LinkChannel"
            )
        channel.on_fire(now)

    @staticmethod
    def on_cross_traffic(event: Event, now: float) -> None:
        """Handle a CROSS_TRAFFIC event (payload is the owning channel)."""
        channel = event[4]
        if not isinstance(channel, LinkChannel):  # pragma: no cover
            raise SimulationStateError(
                f"CROSS_TRAFFIC event carries {type(channel).__name__}, "
                "expected a LinkChannel"
            )
        channel.on_traffic_tick(now)

    # -- reporting ----------------------------------------------------------------------

    def usage(self, end_time: float) -> dict[str, LinkUsage]:
        """Per-link traffic/energy report, keyed by link label."""
        return {
            channel.label: channel.usage(end_time)
            for _, channel in sorted(self._channels.items())
        }
