"""CSV trace I/O — workload files and cluster-trace ingestion.

Two layers live here:

**Workload CSVs** (the E2C file format of Fig. 2) are already in the
simulator's vocabulary — one row per task, canonical columns, extras
preserved on round-trip:

```
task_id,task_type,arrival_time,deadline
0,T1,0.00,4.80
1,T3,0.35,6.10
```

``deadline`` may be omitted; then each task type must carry a
``relative_deadline`` (or one is supplied via ``default_relative_deadline``).
Columns beyond the canonical four ride along verbatim: they are parsed into
each task's ``extras`` tuple and written back by :func:`write_workload_csv`
in first-appearance order, so ``read → write`` is a fixpoint even for
annotated traces. The EET CSV format lives in :mod:`repro.machines.eet`.

**Cluster traces** (Google/Azure-style exports) are *not* in that
vocabulary: columns have site-specific names, times are epoch microseconds,
there is no deadline, and the file may hold millions of rows.
:class:`TraceSpec` declares how to turn such a file into a
:class:`~repro.tasks.workload.Workload` against a concrete EET matrix —
column mapping, time rescaling and windowing, task-type binning, deadline
synthesis, and deterministic down-sampling with derived seeds — and is the
JSON-serialisable ``trace`` field of a :class:`~repro.core.config.Scenario`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence, TextIO

import numpy as np

from ..core.errors import ConfigurationError, WorkloadError
from ..core.fields import integer, pair, real, record, text
from ..core.rng import derive_seed, make_rng
from .task import Task
from .task_type import TaskType
from .workload import Workload

__all__ = [
    "read_workload_csv",
    "write_workload_csv",
    "workload_from_rows",
    "TraceSpec",
    "resolve_trace_path",
]

_REQUIRED = ("task_id", "task_type", "arrival_time")

#: The workload-CSV columns the simulator itself consumes; everything else
#: is an "extra" preserved verbatim through the round-trip.
_CANONICAL = ("task_id", "task_type", "arrival_time", "deadline")


def _open_source(source: str | Path | TextIO) -> tuple[TextIO, bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", newline="", encoding="utf-8"), True
    return source, False


def read_workload_csv(
    source: str | Path | TextIO,
    task_types: Sequence[TaskType] | None = None,
    *,
    default_relative_deadline: float | None = None,
) -> Workload:
    """Parse a workload trace CSV into a :class:`Workload`.

    Parameters
    ----------
    source:
        Path or open text stream.
    task_types:
        The task-type universe; if None, types are inferred from the file in
        first-appearance order (deadline column then becomes mandatory unless
        ``default_relative_deadline`` is given).
    default_relative_deadline:
        Fallback ``deadline = arrival + default_relative_deadline`` for rows
        lacking a deadline.
    """
    stream, owned = _open_source(source)
    try:
        reader = csv.DictReader(stream)
        if reader.fieldnames is None:
            raise WorkloadError("workload CSV is empty (no header)")
        header = [h.strip() for h in reader.fieldnames]
        missing = [c for c in _REQUIRED if c not in header]
        if missing:
            raise WorkloadError(
                f"workload CSV missing required columns {missing}; header={header}"
            )
        has_deadline = "deadline" in header
        extra_columns = [c for c in header if c not in _CANONICAL]

        rows = []
        for lineno, raw in enumerate(reader, start=2):
            row = {k.strip(): (v.strip() if v is not None else "") for k, v in raw.items() if k}
            try:
                rows.append(
                    {
                        "task_id": int(row["task_id"]),
                        "task_type": row["task_type"],
                        "arrival_time": float(row["arrival_time"]),
                        "deadline": float(row["deadline"])
                        if has_deadline and row.get("deadline", "") != ""
                        else None,
                        "extras": tuple(
                            (c, row.get(c, "")) for c in extra_columns
                        ),
                        "line": lineno,
                    }
                )
            except (KeyError, ValueError) as exc:
                raise WorkloadError(f"workload CSV line {lineno}: {exc}") from exc
    finally:
        if owned:
            stream.close()

    return workload_from_rows(
        rows,
        task_types=task_types,
        default_relative_deadline=default_relative_deadline,
    )


def _row_label(row: Mapping) -> str:
    """Human-readable identity of a parsed row for error messages."""
    label = f"task {row['task_id']}"
    if row.get("line") is not None:
        label += f" (CSV line {row['line']})"
    return label


def workload_from_rows(
    rows: Sequence[Mapping],
    *,
    task_types: Sequence[TaskType] | None = None,
    default_relative_deadline: float | None = None,
) -> Workload:
    """Assemble a Workload from parsed row dicts (see read_workload_csv)."""
    if task_types is None:
        seen: dict[str, int] = {}
        for row in rows:
            seen.setdefault(row["task_type"], len(seen))
        task_types = [TaskType(name=n, index=i) for n, i in seen.items()]
    by_name = {t.name: t for t in task_types}

    tasks: list[Task] = []
    for row in rows:
        name = row["task_type"]
        if name not in by_name:
            raise WorkloadError(
                f"{_row_label(row)}: unknown task type {name!r}; "
                f"defined: {sorted(by_name)}"
            )
        task_type = by_name[name]
        deadline = row.get("deadline")
        if deadline is None:
            rel = (
                task_type.relative_deadline
                if task_type.relative_deadline is not None
                else default_relative_deadline
            )
            if rel is None:
                raise WorkloadError(
                    f"{_row_label(row)}: no deadline given "
                    f"(arrival_time={row['arrival_time']}, task type "
                    f"{name!r} has no relative_deadline and no "
                    "default_relative_deadline was supplied)"
                )
            deadline = row["arrival_time"] + rel
        extras = row.get("extras", ())
        if isinstance(extras, Mapping):
            extras = tuple((str(k), str(v)) for k, v in extras.items())
        else:
            extras = tuple((str(k), str(v)) for k, v in extras)
        tasks.append(
            Task(
                id=row["task_id"],
                task_type=task_type,
                arrival_time=row["arrival_time"],
                deadline=deadline,
                extras=extras,
            )
        )
    return Workload(task_types=list(task_types), tasks=tasks)


def write_workload_csv(
    workload: Workload, target: str | Path | TextIO | None = None
) -> str:
    """Serialise *workload* as CSV. Returns the CSV text; writes if given a target.

    Extra (non-canonical) columns carried in the tasks' ``extras`` tuples are
    appended after ``deadline`` in first-appearance order, so a file read by
    :func:`read_workload_csv` writes back with its annotation columns intact.
    """
    extra_columns: list[str] = []
    seen_extras: set[str] = set()
    for task in workload:
        for name, _ in task.extras:
            if name not in seen_extras:
                seen_extras.add(name)
                extra_columns.append(name)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(_CANONICAL) + extra_columns)
    for task in workload:
        by_name = dict(task.extras)
        writer.writerow(
            [
                task.id,
                task.task_type.name,
                f"{task.arrival_time:.9g}",
                f"{task.deadline:.9g}",
            ]
            + [by_name.get(c, "") for c in extra_columns]
        )
    text = buffer.getvalue()
    if target is not None:
        if isinstance(target, (str, Path)):
            Path(target).write_text(text, encoding="utf-8")
        else:
            target.write(text)
    return text


# ---------------------------------------------------------------------------
# Cluster-trace ingestion
# ---------------------------------------------------------------------------

#: Prefix selecting a CSV shipped inside ``repro.scenarios/data`` instead of
#: a filesystem path — keeps preset scenarios' JSON portable across machines.
_DATA_PREFIX = "data:"


def resolve_trace_path(path: str | Path) -> Path:
    """Resolve a :class:`TraceSpec` path, honouring the ``data:`` scheme.

    ``data:google_sample.csv`` names a trace bundled with the package
    (``src/repro/scenarios/data/``); anything else is an ordinary path.
    """
    text = str(path)
    if text.startswith(_DATA_PREFIX):
        from importlib.resources import files

        return Path(str(files("repro.scenarios") / "data" / text[len(_DATA_PREFIX):]))
    return Path(text)


@dataclass
class TraceSpec:
    """Recipe for importing a cluster-trace CSV into a :class:`Workload`.

    The pipeline, in order (every stage is deterministic given the spec and
    a seed):

    1. **Column mapping** — ``columns`` maps the canonical roles
       (``task_id``, ``task_type``, ``arrival_time``, ``deadline``) to the
       source file's column names; unmapped roles default to their own
       name. Unconsumed source columns become each task's ``extras``.
    2. **Time rescaling** — source times are multiplied by ``time_unit``
       (seconds per source unit; e.g. ``1e-6`` for Google's microseconds).
    3. **Rebasing** — ``time_offset`` (in rescaled seconds) is subtracted;
       ``None`` rebases to the earliest arrival, so traces with epoch
       timestamps start at 0.
    4. **Windowing** — keep arrivals in ``window = (start, end)`` (rebased
       seconds, end exclusive) and re-shift so the window starts at 0.
    5. **Compression** — arrivals (and mapped deadlines) are multiplied by
       ``time_scale`` (< 1 squeezes a day-long trace into minutes).
    6. **Task-type binning** — if the mapped ``task_type`` column exists,
       its values must name EET task types. Otherwise ``bin_column`` (a
       numeric source column, e.g. requested CPUs or runtime) is
       quantile-binned: the EET's task types are ordered by mean expected
       execution time and each quantile of the bin values maps onto one
       type, smallest values to the lightest type.
    7. **Deadline synthesis** — a mapped ``deadline`` column rides the same
       time transform as arrivals; otherwise ``deadline = arrival +
       slack_factor * relative_deadline`` (the type's, or
       ``default_relative_deadline``).
    8. **Down-sampling** — keep each row with probability ``sample`` using
       a derived-seed RNG (``derive_seed(seed, "trace", "sample",
       replication)``), then truncate to ``max_tasks``. Task ids are
       reassigned ``0..n-1`` in arrival order.
    """

    path: str
    columns: dict[str, str] = field(default_factory=dict)
    time_unit: float = 1.0
    time_offset: float | None = None
    window: tuple[float, float] | None = None
    time_scale: float = 1.0
    bin_column: str | None = None
    slack_factor: float = 1.0
    default_relative_deadline: float | None = None
    sample: float = 1.0
    max_tasks: int | None = None

    def __post_init__(self) -> None:
        text(self.path, "trace.path")
        self.columns = {
            role: text(column, f"trace.columns[{role!r}]")
            for role, column in record(self.columns, "trace.columns").items()
        }
        unknown_roles = set(self.columns) - set(_CANONICAL)
        if unknown_roles:
            raise ConfigurationError(
                f"trace column mapping has unknown roles {sorted(unknown_roles)}; "
                f"canonical roles: {list(_CANONICAL)}"
            )
        self.time_unit = real(self.time_unit, "trace.time_unit", above=0)
        if self.time_offset is not None:
            self.time_offset = real(self.time_offset, "trace.time_offset")
        self.time_scale = real(self.time_scale, "trace.time_scale", above=0)
        if self.window is not None:
            self.window = pair(self.window, "trace.window")
            if not self.window[0] < self.window[1]:
                raise ConfigurationError(
                    f"trace window must satisfy start < end, got {self.window}"
                )
        if self.bin_column is not None:
            text(self.bin_column, "trace.bin_column")
        self.slack_factor = real(self.slack_factor, "trace.slack_factor", above=0)
        if self.default_relative_deadline is not None:
            self.default_relative_deadline = real(
                self.default_relative_deadline, "trace.default_relative_deadline", above=0
            )
        self.sample = real(self.sample, "trace.sample", above=0, hi=1)
        if self.max_tasks is not None:
            self.max_tasks = integer(self.max_tasks, "trace.max_tasks", lo=1)

    # -- source access -------------------------------------------------------

    def _column(self, role: str) -> str:
        """Source column carrying the given canonical role."""
        return self.columns.get(role, role)

    def _read_raw(self) -> tuple[list[str], list[tuple[int, dict[str, str]]]]:
        path = resolve_trace_path(self.path)
        try:
            stream = open(path, "r", newline="", encoding="utf-8")
        except OSError as exc:
            raise WorkloadError(f"cannot read trace {self.path!r}: {exc}") from exc
        with stream:
            reader = csv.DictReader(stream)
            if reader.fieldnames is None:
                raise WorkloadError(f"trace {self.path!r} is empty (no header)")
            header = [h.strip() for h in reader.fieldnames]
            records = [
                (
                    lineno,
                    {
                        k.strip(): (v.strip() if v is not None else "")
                        for k, v in raw.items()
                        if k
                    },
                )
                for lineno, raw in enumerate(reader, start=2)
            ]
        arrival_col = self._column("arrival_time")
        if arrival_col not in header:
            raise WorkloadError(
                f"trace {self.path!r} has no arrival column {arrival_col!r}; "
                f"header={header}"
            )
        return header, records

    def describe(self) -> dict[str, Any]:
        """Inspection summary of the raw trace (the CLI ``trace inspect``).

        Reports row/column counts and the source-time arrival span *after*
        ``time_unit`` rescaling but before rebasing/windowing, so the values
        are directly usable as ``time_offset`` / ``window`` bounds.
        """
        header, records = self._read_raw()
        arrival_col = self._column("arrival_time")
        arrivals = sorted(
            self._parse_time(rec, lineno, arrival_col) for lineno, rec in records
        )
        out: dict[str, Any] = {
            "path": str(self.path),
            "rows": len(records),
            "columns": header,
            "arrival_min": arrivals[0] if arrivals else 0.0,
            "arrival_max": arrivals[-1] if arrivals else 0.0,
        }
        type_col = self._column("task_type")
        if type_col in header:
            counts: dict[str, int] = {}
            for _, rec in records:
                counts[rec.get(type_col, "")] = counts.get(rec.get(type_col, ""), 0) + 1
            out["type_counts"] = dict(sorted(counts.items()))
        if self.bin_column is not None and self.bin_column in header:
            values = [
                self._parse_number(rec, lineno, self.bin_column)
                for lineno, rec in records
            ]
            if values:
                arr = np.asarray(values, dtype=float)
                out["bin_column"] = self.bin_column
                out["bin_quartiles"] = [
                    float(q) for q in np.quantile(arr, [0.0, 0.25, 0.5, 0.75, 1.0])
                ]
        return out

    def _parse_number(self, rec: Mapping[str, str], lineno: int, col: str) -> float:
        try:
            return float(rec[col])
        except KeyError:
            raise WorkloadError(
                f"trace {self.path!r} line {lineno}: missing column {col!r}"
            ) from None
        except ValueError as exc:
            raise WorkloadError(
                f"trace {self.path!r} line {lineno}: bad value for {col!r}: {exc}"
            ) from exc

    def _parse_time(self, rec: Mapping[str, str], lineno: int, col: str) -> float:
        return self._parse_number(rec, lineno, col) * self.time_unit

    # -- the ingestion pipeline ----------------------------------------------

    def build_workload(
        self,
        eet: "Any",
        *,
        seed: int | None = None,
        replication: int = 0,
    ) -> Workload:
        """Run the full import pipeline against *eet*'s task-type universe."""
        header, records = self._read_raw()
        task_types: list[TaskType] = eet.task_types
        arrival_col = self._column("arrival_time")
        id_col = self._column("task_id")
        type_col = self._column("task_type")
        deadline_col = self._column("deadline")
        has_id = id_col in header
        has_type = type_col in header
        has_deadline = deadline_col in header
        if not has_type and self.bin_column is None:
            raise WorkloadError(
                f"trace {self.path!r} has no task-type column {type_col!r} "
                "and the spec names no bin_column to derive types from"
            )
        if self.bin_column is not None and self.bin_column not in header:
            raise WorkloadError(
                f"trace {self.path!r} has no bin column {self.bin_column!r}; "
                f"header={header}"
            )
        consumed = {arrival_col}
        if has_id:
            consumed.add(id_col)
        if has_type:
            consumed.add(type_col)
        if has_deadline:
            consumed.add(deadline_col)
        extra_columns = [c for c in header if c not in consumed]

        # 2-3: rescale to seconds and rebase.
        arrivals = [
            self._parse_time(rec, lineno, arrival_col) for lineno, rec in records
        ]
        offset = self.time_offset
        if offset is None:
            offset = min(arrivals) if arrivals else 0.0

        kept: list[tuple[float, int, dict[str, str], float | None]] = []
        for (lineno, rec), raw_arrival in zip(records, arrivals):
            arrival = raw_arrival - offset
            # 4: window filter + re-shift.
            if self.window is not None:
                start, end = self.window
                if not start <= arrival < end:
                    continue
                arrival -= start
            # 5: compression.
            arrival *= self.time_scale
            deadline: float | None = None
            if has_deadline and rec.get(deadline_col, "") != "":
                deadline = self._parse_time(rec, lineno, deadline_col) - offset
                if self.window is not None:
                    deadline -= self.window[0]
                deadline *= self.time_scale
            kept.append((arrival, lineno, rec, deadline))
        kept.sort(key=lambda item: (item[0], item[1]))

        # 6: task-type assignment (explicit names, or quantile binning).
        by_name = {t.name: t for t in task_types}
        if has_type:
            chosen = []
            for arrival, lineno, rec, _ in kept:
                name = rec.get(type_col, "")
                if name not in by_name:
                    raise WorkloadError(
                        f"trace {self.path!r} line {lineno}: unknown task "
                        f"type {name!r}; EET defines {sorted(by_name)}"
                    )
                chosen.append(by_name[name])
        else:
            assert self.bin_column is not None
            values = np.asarray(
                [
                    self._parse_number(rec, lineno, self.bin_column)
                    for _, lineno, rec, _ in kept
                ],
                dtype=float,
            )
            # Lightest type (smallest mean EET) takes the smallest values.
            order = np.argsort(eet.values.mean(axis=1), kind="stable")
            n_bins = len(order)
            if len(values):
                edges = np.quantile(
                    values, [i / n_bins for i in range(1, n_bins)]
                )
                bins = np.searchsorted(edges, values, side="right")
            else:
                bins = np.empty(0, dtype=int)
            chosen = [task_types[int(order[b])] for b in bins]

        # 7: deadline synthesis for rows the trace left open.
        rows: list[dict[str, Any]] = []
        for (arrival, lineno, rec, deadline), task_type in zip(kept, chosen):
            if deadline is None:
                rel = (
                    task_type.relative_deadline
                    if task_type.relative_deadline is not None
                    else self.default_relative_deadline
                )
                if rel is None:
                    raise WorkloadError(
                        f"trace {self.path!r} line {lineno}: no deadline "
                        f"column and task type {task_type.name!r} has no "
                        "relative_deadline (set default_relative_deadline "
                        "on the TraceSpec)"
                    )
                deadline = arrival + self.slack_factor * rel
            extras = [(c, rec.get(c, "")) for c in extra_columns]
            if has_id:
                extras.insert(0, ("source_id", rec.get(id_col, "")))
            rows.append(
                {
                    "task_type": task_type,
                    "arrival_time": arrival,
                    "deadline": deadline,
                    "extras": tuple(extras),
                }
            )

        # 8: deterministic down-sampling, truncation, id reassignment.
        if self.sample < 1.0:
            rng = make_rng(derive_seed(seed, "trace", "sample", replication))
            mask = rng.random(len(rows)) < self.sample
            rows = [row for row, keep in zip(rows, mask) if keep]
        if self.max_tasks is not None:
            rows = rows[: self.max_tasks]
        tasks = [
            Task(
                id=i,
                task_type=row["task_type"],
                arrival_time=row["arrival_time"],
                deadline=row["deadline"],
                extras=row["extras"],
            )
            for i, row in enumerate(rows)
        ]
        return Workload(task_types=list(task_types), tasks=tasks)

    # -- JSON round-trip ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"path": self.path}
        if self.columns:
            out["columns"] = dict(self.columns)
        if self.time_unit != 1.0:
            out["time_unit"] = self.time_unit
        if self.time_offset is not None:
            out["time_offset"] = self.time_offset
        if self.window is not None:
            out["window"] = list(self.window)
        if self.time_scale != 1.0:
            out["time_scale"] = self.time_scale
        if self.bin_column is not None:
            out["bin_column"] = self.bin_column
        if self.slack_factor != 1.0:
            out["slack_factor"] = self.slack_factor
        if self.default_relative_deadline is not None:
            out["default_relative_deadline"] = self.default_relative_deadline
        if self.sample != 1.0:
            out["sample"] = self.sample
        if self.max_tasks is not None:
            out["max_tasks"] = self.max_tasks
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceSpec":
        if isinstance(data, TraceSpec):
            return data
        return cls(**record(data, "trace", [f.name for f in fields(cls)], ("path",)))
