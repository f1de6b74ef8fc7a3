"""Lazy report-row sources for simulation results.

Building the Task/Machine report rows — one 17-key dict per task, one per
machine — used to happen eagerly inside ``_build_result``, costing a
measurable slice of small benchmark tiers even when nobody read the rows.
A :class:`RecordsSource` instead captures the (collector, cluster) pairs a
finished run produced and materialises the rows on first access; the result
dataclasses expose them through ``functools.cached_property``, so consumers
see the exact same list objects they always did, just built on demand.

A result stays in the process that ran it: campaign workers send back
``RunRecord`` summaries and the service sends payload dicts, so a source
never needs to cross a process boundary.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from ..machines.cluster import Cluster
    from .collector import MetricsCollector

__all__ = ["RecordsSource"]


class RecordsSource:
    """On-demand builder of the Task/Machine report rows of one run.

    ``parts`` is a sequence of ``(cluster_label, collector, cluster)``
    triples — one for a single-cluster run (label ``None``: rows carry no
    ``"cluster"`` column), one per shard for a federated run (rows are
    tagged with the label and task rows are sorted by task id, exactly as
    the eager federation rollup did).
    """

    __slots__ = ("_parts",)

    def __init__(
        self,
        parts: Iterable[tuple[str | None, "MetricsCollector", "Cluster"]],
    ) -> None:
        self._parts = list(parts)

    def task_rows(self) -> list[dict[str, Any]]:
        parts = self._parts
        if len(parts) == 1 and parts[0][0] is None:
            return parts[0][1].task_records()
        rows: list[dict[str, Any]] = []
        for label, collector, _cluster in parts:
            for row in collector.task_records():
                row["cluster"] = label
                rows.append(row)
        rows.sort(key=itemgetter("task_id"))
        return rows

    def machine_rows(self) -> list[dict[str, Any]]:
        parts = self._parts
        if len(parts) == 1 and parts[0][0] is None:
            return parts[0][1].machine_records(parts[0][2])
        rows: list[dict[str, Any]] = []
        for label, collector, cluster in parts:
            for row in collector.machine_records(cluster):
                row["cluster"] = label
                rows.append(row)
        return rows
