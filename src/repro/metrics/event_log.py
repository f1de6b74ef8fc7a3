"""Event trace log — every individual action of a simulation, as data.

The GUI's Increment button exists so users can "analyze each specific action
of the simulation" (§3). :class:`EventLog` is the programmatic equivalent: an
observer that records one row per processed event (timestamp, kind, task,
machine, and the live queue/outcome counters), exportable as CSV and
queryable for timelines and diagnostics.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from ..core.events import Event, EventType

if TYPE_CHECKING:  # pragma: no cover
    from ..core.simulator import Simulator
    from ..federation.simulator import FederatedSimulator

__all__ = ["EventLog", "EventRecord"]


@dataclass(frozen=True)
class EventRecord:
    """One processed simulation event.

    ``batch_queue_length`` is summed over the shards of a federation.
    """

    seq: int
    time: float
    event_type: str
    task_id: int | None
    task_type: str
    machine: str
    batch_queue_length: int
    completed: int
    cancelled: int
    missed: int


_COLUMNS = [
    "seq", "time", "event_type", "task_id", "task_type", "machine",
    "batch_queue_length", "completed", "cancelled", "missed",
]


class EventLog:
    """Observer collecting an :class:`EventRecord` per event.

    Works on either engine. Attach at simulator construction::

        log = EventLog()
        sim = Simulator(..., observers=[log])
        sim.run()
        log.to_csv("trace.csv")
    """

    def __init__(self, *, max_records: int | None = None) -> None:
        self.records: list[EventRecord] = []
        self.max_records = max_records
        self._seq = 0

    # -- observer protocol --------------------------------------------------------

    def __call__(
        self, sim: "Simulator | FederatedSimulator", event: Event
    ) -> None:
        self._seq += 1
        if self.max_records is not None and len(self.records) >= self.max_records:
            return
        task_id: int | None = None
        task_type = ""
        machine = ""
        time, _, _, etype, payload, _ = event
        if payload is not None and etype in (
            EventType.TASK_ARRIVAL,
            EventType.TASK_DEADLINE,
            EventType.TASK_MIGRATION,
        ):
            task_id, task_type = payload.id, payload.task_type.name
            if payload.machine is not None:
                machine = payload.machine.name
        elif etype in (EventType.TASK_COMPLETION, EventType.NETWORK_DELIVERY):
            m, task = payload
            task_id, task_type, machine = task.id, task.task_type.name, m.name
        elif etype in (EventType.MACHINE_FAILURE, EventType.MACHINE_REPAIR):
            machine = payload.name
        counts = sim.counts()
        shards = getattr(sim, "shards", None)
        queued = (
            len(sim.batch_queue)  # type: ignore[union-attr]
            if shards is None
            else sum(len(shard.batch_queue) for shard in shards)
        )
        self.records.append(
            EventRecord(
                seq=self._seq,
                time=time,
                event_type=etype.value,
                task_id=task_id,
                task_type=task_type,
                machine=machine,
                batch_queue_length=queued,
                completed=counts["completed"],
                cancelled=counts["cancelled"],
                missed=counts["missed"],
            )
        )

    # -- queries -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    # -- export ----------------------------------------------------------------------

    def to_csv(self, target: str | Path | TextIO | None = None) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for r in self.records:
            writer.writerow(
                [
                    r.seq,
                    f"{r.time:.9g}",
                    r.event_type,
                    "" if r.task_id is None else r.task_id,
                    r.task_type,
                    r.machine,
                    r.batch_queue_length,
                    r.completed,
                    r.cancelled,
                    r.missed,
                ]
            )
        text = buffer.getvalue()
        if target is not None:
            if isinstance(target, (str, Path)):
                Path(target).write_text(text, encoding="utf-8")
            else:
                target.write(text)
        return text

    def to_text(self, limit: int = 40) -> str:
        """Human-readable trace (first *limit* rows)."""
        lines = [
            f"{'t':>10}  {'event':<18} {'task':>5} {'type':<8} {'machine':<12} "
            f"{'queue':>5}"
        ]
        for r in self.records[:limit]:
            lines.append(
                f"{r.time:10.3f}  {r.event_type:<18} "
                f"{'' if r.task_id is None else r.task_id:>5} "
                f"{r.task_type:<8} {r.machine:<12} {r.batch_queue_length:>5}"
            )
        if len(self.records) > limit:
            lines.append(f"... ({len(self.records) - limit} more)")
        return "\n".join(lines)
