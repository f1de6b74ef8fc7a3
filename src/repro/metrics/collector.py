"""Metrics collection: the raw material of every report.

The simulator feeds the collector with lifecycle notifications; at the end of
a run the collector produces columnar task records, machine records and the
summary — the data behind the paper's Full/Task/Machine/Summary reports and
behind the completion-percentage bar charts of Figures 5–7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from ..core.errors import ReportError
from ..scheduling.context import LiveTypeStats
from ..tasks.task import Task, TaskStatus
from .stats import jain_fairness

if TYPE_CHECKING:  # pragma: no cover
    from ..machines.cluster import Cluster

__all__ = ["MetricsCollector", "SummaryMetrics"]


@dataclass(frozen=True)
class SummaryMetrics:
    """Aggregate outcome of one simulation run (the Summary report body)."""

    total_tasks: int
    completed: int
    cancelled: int
    missed: int
    completion_rate: float
    cancellation_rate: float
    miss_rate: float
    on_time: int
    on_time_rate: float
    makespan: float
    total_energy: float
    idle_energy: float
    busy_energy: float
    energy_per_completed_task: float
    mean_wait_time: float
    mean_response_time: float
    throughput: float
    mean_utilization: float
    completion_rate_by_type: dict[str, float] = field(default_factory=dict)
    fairness_index: float = 1.0

    def as_dict(self) -> dict:
        out = {
            k: v
            for k, v in self.__dict__.items()
            if k != "completion_rate_by_type"
        }
        for name, rate in sorted(self.completion_rate_by_type.items()):
            out[f"completion_rate[{name}]"] = rate
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SummaryMetrics":
        """Inverse of :meth:`as_dict` — exact reconstruction.

        The campaign service stores summaries in its result cache as the
        flat ``as_dict`` form (JSON keeps float ``repr`` precision), so a
        cache round-trip must reproduce the original dataclass field for
        field: ``SummaryMetrics.from_dict(m.as_dict()) == m``.
        """
        by_type: dict[str, float] = {}
        fields: dict = {}
        for key, value in data.items():
            if key.startswith("completion_rate[") and key.endswith("]"):
                by_type[key[len("completion_rate["):-1]] = value
            else:
                fields[key] = value
        return cls(completion_rate_by_type=by_type, **fields)


class MetricsCollector:
    """Accumulates task outcomes and snapshots machine counters.

    Ingestion is append-only: each terminal task contributes one compact
    column row (scalars only) plus O(1) outcome-counter bumps. Aggregation —
    means, makespan, per-type rates, fairness — happens once, at
    :meth:`summary` time, in a single pass over the columnar buffer. Live
    consumers (the renderer's outcome boxes) read the counters instead of
    re-scanning every recorded task per frame.
    """

    def __init__(self) -> None:
        self._tasks: list[Task] = []
        self._seen: set[int] = set()
        # Columnar buffer: (id, status, wait, response, completion, on_time,
        # type name) per terminal task, in record order.
        self._rows: list[
            tuple[int, TaskStatus, float | None, float | None, float | None, bool, str]
        ] = []
        # Live outcome counters (the GUI's completed/cancelled/missed boxes).
        self._completed = 0
        self._cancelled = 0
        self._missed = 0
        self._on_time = 0
        #: Per-type on-time rates, live during the run (fairness-aware
        #: policies such as FELARE read them through the scheduling context).
        self.type_stats = LiveTypeStats()
        #: Optional observer fired after each terminal task is recorded.
        #: Every terminal path of every engine funnels through
        #: :meth:`record_terminal`, so this single hook sees completions,
        #: deadline misses and in-WAN cancellations alike — the federated
        #: simulator uses it to pay the adaptive gateway's reward signal.
        self.on_terminal: Callable[[Task], None] | None = None

    # -- ingestion ---------------------------------------------------------------

    def record_terminal(self, task: Task) -> None:
        """Register a task that reached a terminal state."""
        status = task.status
        if not status.is_terminal:
            raise ReportError(
                f"task {task.id} recorded before reaching a terminal state "
                f"({task.status.name})"
            )
        if task.id in self._seen:
            raise ReportError(f"task {task.id} recorded twice")
        self._seen.add(task.id)
        self._tasks.append(task)
        # Derived quantities inlined from the Task properties (wait_time,
        # response_time, on_time): this runs once per terminal event.
        arrival = task.arrival_time
        start = task.start_time
        completion = task.completion_time
        type_name = task.task_type.name
        on_time = (
            status is TaskStatus.COMPLETED
            and completion is not None
            and completion <= task.deadline
        )
        self._rows.append(
            (
                task.id,
                status,
                None if start is None else start - arrival,
                None if completion is None else completion - arrival,
                completion,
                on_time,
                type_name,
            )
        )
        if status is TaskStatus.COMPLETED:
            self._completed += 1
        elif status is TaskStatus.CANCELLED:
            self._cancelled += 1
        else:
            self._missed += 1
        if on_time:
            self._on_time += 1
        self.type_stats.record(type_name, on_time)
        if self.on_terminal is not None:
            self.on_terminal(task)

    def merge_from(self, other: "MetricsCollector") -> None:
        """Fold another collector's recorded tasks into this one.

        The federation rollup path: per-cluster collectors stay untouched
        (per-cluster summaries remain exact) and a scratch collector absorbs
        them all to aggregate the global summary. Task ids must be disjoint —
        a task recorded by two shards is a conservation bug. The live
        ``type_stats`` are not folded: the merged collector only builds the
        global summary.
        """
        duplicate = self._seen & other._seen
        if duplicate:
            raise ReportError(
                f"tasks {sorted(duplicate)[:5]} recorded by multiple collectors"
            )
        self._tasks.extend(other._tasks)
        self._seen.update(other._seen)
        self._rows.extend(other._rows)
        self._completed += other._completed
        self._cancelled += other._cancelled
        self._missed += other._missed
        self._on_time += other._on_time

    @property
    def recorded(self) -> int:
        return len(self._tasks)

    def counts(self) -> dict[str, int]:
        """Live outcome counters — O(1), no task scan."""
        return {
            "completed": self._completed,
            "cancelled": self._cancelled,
            "missed": self._missed,
        }

    def tasks(self) -> list[Task]:
        """All recorded tasks, by id (stable across runs with equal seeds)."""
        return sorted(self._tasks, key=lambda t: t.id)

    # -- record tables -------------------------------------------------------------

    def task_records(self) -> list[dict]:
        """One dict per task — the Task report rows."""
        rows = []
        for t in self.tasks():
            rows.append(
                {
                    "task_id": t.id,
                    "task_type": t.task_type.name,
                    "arrival_time": t.arrival_time,
                    "deadline": t.deadline,
                    "status": t.status.value,
                    "machine": t.machine.name if t.machine is not None else "",
                    "assigned_time": _opt(t.assigned_time),
                    "start_time": _opt(t.start_time),
                    "completion_time": _opt(t.completion_time),
                    "missed_time": _opt(t.missed_time),
                    "cancelled_time": _opt(t.cancelled_time),
                    "drop_stage": t.drop_stage.value if t.drop_stage else "",
                    "execution_time": _opt(t.execution_time),
                    "wait_time": _opt(t.wait_time),
                    "response_time": _opt(t.response_time),
                    "energy": _opt(t.energy),
                    "on_time": t.on_time,
                }
            )
        return rows

    def machine_records(self, cluster: "Cluster") -> list[dict]:
        """One dict per machine — the Machine report rows."""
        rows = []
        for m in cluster:
            meter = m.energy
            rows.append(
                {
                    "machine_id": m.id,
                    "machine": m.name,
                    "machine_type": m.machine_type.name,
                    "completed": m.completed_count,
                    "missed": m.missed_count,
                    "busy_time": meter.busy_time,
                    "idle_time": meter.idle_time,
                    "utilization": meter.utilization(),
                    "idle_energy": meter.idle_energy,
                    "busy_energy": meter.busy_energy,
                    "total_energy": meter.total_energy,
                }
            )
        return rows

    # -- summary ----------------------------------------------------------------------

    def summary(self, cluster: "Cluster", *, end_time: float) -> SummaryMetrics:
        """Aggregate the run. ``end_time`` is the simulation clock at finish.

        One pass over the columnar buffer, in task-id order — the same
        element order (and therefore bit-identical float sums) as the
        previous multi-scan implementation.
        """
        rows = sorted(self._rows, key=itemgetter(0))
        total = len(rows)
        completed = self._completed
        cancelled = self._cancelled
        missed = self._missed
        on_time = self._on_time

        wait_sum = 0.0
        wait_n = 0
        resp_sum = 0.0
        resp_n = 0
        makespan = 0.0
        by_type_total: dict[str, int] = {}
        by_type_done: dict[str, int] = {}
        for _id, status, wait, response, completion, _on_time, name in rows:
            if wait is not None:
                wait_sum += wait
                wait_n += 1
            if response is not None:
                resp_sum += response
                resp_n += 1
            if completion is not None and completion > makespan:
                makespan = completion
            by_type_total[name] = by_type_total.get(name, 0) + 1
            if status is TaskStatus.COMPLETED:
                by_type_done[name] = by_type_done.get(name, 0) + 1

        idle_energy = sum(m.energy.idle_energy for m in cluster)
        busy_energy = sum(m.energy.busy_energy for m in cluster)
        total_energy = idle_energy + busy_energy

        rate_by_type = {
            name: by_type_done.get(name, 0) / count
            for name, count in by_type_total.items()
        }
        fairness = (
            jain_fairness(list(rate_by_type.values())) if rate_by_type else 1.0
        )

        utils = [m.energy.utilization() for m in cluster]
        return SummaryMetrics(
            total_tasks=total,
            completed=completed,
            cancelled=cancelled,
            missed=missed,
            completion_rate=completed / total if total else 0.0,
            cancellation_rate=cancelled / total if total else 0.0,
            miss_rate=missed / total if total else 0.0,
            on_time=on_time,
            on_time_rate=on_time / total if total else 0.0,
            makespan=makespan,
            total_energy=total_energy,
            idle_energy=idle_energy,
            busy_energy=busy_energy,
            energy_per_completed_task=(
                total_energy / completed if completed else 0.0
            ),
            mean_wait_time=wait_sum / wait_n if wait_n else 0.0,
            mean_response_time=resp_sum / resp_n if resp_n else 0.0,
            throughput=completed / end_time if end_time > 0 else 0.0,
            mean_utilization=sum(utils) / len(utils) if utils else 0.0,
            completion_rate_by_type=rate_by_type,
            fairness_index=fairness,
        )

    def reset(self) -> None:
        self._tasks.clear()
        self._seen.clear()
        self._rows.clear()
        self._completed = self._cancelled = self._missed = self._on_time = 0


def _opt(value):
    """None-to-empty-string for CSV friendliness."""
    return "" if value is None else value
