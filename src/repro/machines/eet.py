"""Expected Execution Time (EET) matrix — the paper's heterogeneity model.

"The heterogeneity of the system is modeled by a matrix, called the Expected
Execution Time (EET) matrix [Ali et al. 2000] ... This matrix defines the
expected execution time of each task type on each machine." (§3)

Rows are task types, columns are *machine types* (multiple physical machines
may share a column). Entries are strictly positive seconds. CSV format
(Fig. 2): header row = machine type names, first column = task type names:

```
task_type,CPU,GPU,FPGA
T1,10.0,2.0,4.0
T2,8.0,9.0,3.0
```
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from ..core.errors import EETError
from ..tasks.task_type import TaskType

__all__ = ["EETMatrix"]

_Groups = list[tuple[tuple[float, tuple[int, ...]], ...]]
#: What :meth:`EETMatrix.machine_tables` returns.
_MachineTables = tuple[np.ndarray, list[list[float]], _Groups]


class _RowIndex(dict):
    """Task-type name -> EET row; looking up an unknown name raises EETError."""

    def __missing__(self, name: str) -> int:
        raise EETError(f"unknown task type {name!r}; defined: {list(self)}")


class EETMatrix:
    """Immutable (task type × machine type) expected-execution-time table."""

    def __init__(
        self,
        values: np.ndarray | Sequence[Sequence[float]],
        task_types: Sequence[TaskType] | Sequence[str],
        machine_type_names: Sequence[str],
    ) -> None:
        matrix = np.array(values, dtype=float)
        if matrix.ndim != 2:
            raise EETError(f"EET matrix must be 2-D, got shape {matrix.shape}")
        if matrix.size == 0:
            raise EETError("EET matrix must be non-empty")
        if not np.isfinite(matrix).all():
            raise EETError("EET matrix entries must be finite")
        if (matrix <= 0).any():
            raise EETError("EET matrix entries must be strictly positive")

        if task_types and isinstance(task_types[0], str):
            task_types = [
                TaskType(name=n, index=i) for i, n in enumerate(task_types)
            ]
        task_types = list(task_types)  # type: ignore[arg-type]
        if len(task_types) != matrix.shape[0]:
            raise EETError(
                f"EET rows ({matrix.shape[0]}) != task types ({len(task_types)})"
            )
        for i, t in enumerate(task_types):
            if t.index != i:
                raise EETError(
                    f"task type {t.name!r} has index {t.index}, expected row {i}"
                )
        names = [t.name for t in task_types]
        if len(set(names)) != len(names):
            raise EETError(f"duplicate task type names {names}")

        machine_type_names = [str(n) for n in machine_type_names]
        if len(machine_type_names) != matrix.shape[1]:
            raise EETError(
                f"EET columns ({matrix.shape[1]}) != machine type names "
                f"({len(machine_type_names)})"
            )
        if len(set(machine_type_names)) != len(machine_type_names):
            raise EETError(f"duplicate machine type names {machine_type_names}")

        self._matrix = matrix
        self._matrix.setflags(write=False)
        self._task_types: list[TaskType] = task_types
        self._machine_names = machine_type_names
        #: Task-type name -> row index; an unknown name raises EETError.
        self._row_of = _RowIndex((t.name, t.index) for t in task_types)
        self._col_of = {n: j for j, n in enumerate(machine_type_names)}
        self._machine_tables: dict[tuple[int, ...], _MachineTables] = {}

    # -- basic accessors ---------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Read-only (n_task_types, n_machine_types) array."""
        return self._matrix

    @property
    def task_types(self) -> list[TaskType]:
        return list(self._task_types)

    @property
    def task_type_names(self) -> list[str]:
        return [t.name for t in self._task_types]

    @property
    def machine_type_names(self) -> list[str]:
        return list(self._machine_names)

    @property
    def n_task_types(self) -> int:
        return self._matrix.shape[0]

    @property
    def n_machine_types(self) -> int:
        return self._matrix.shape[1]

    def has_task_type(self, name: str) -> bool:
        return name in self._row_of

    def has_machine_type(self, name: str) -> bool:
        return name in self._col_of

    def task_type(self, name: str) -> TaskType:
        return self._task_types[self._row_of[name]]

    def row(self, task_type: TaskType | str) -> np.ndarray:
        """EETs of one task type across all machine types (read-only view)."""
        return self._matrix[self._row_index(task_type)]

    def column(self, machine_type: str) -> np.ndarray:
        """EETs of all task types on one machine type (read-only view)."""
        try:
            return self._matrix[:, self._col_of[machine_type]]
        except KeyError:
            raise EETError(f"unknown machine type {machine_type!r}") from None

    def _row_index(self, task_type: TaskType | str) -> int:
        name = task_type if isinstance(task_type, str) else task_type.name
        return self._row_of[name]

    def machine_tables(self, columns: tuple[int, ...]) -> _MachineTables:
        """The EET tables of a cluster whose machine ``i`` has column ``columns[i]``.

        Returns ``(by_machine, lists, groups)``: the read-only
        ``(n_task_types, n_machines)`` array (one fancy-index gather per batch
        pass instead of per-task vstacks); its rows as lists of Python floats
        for the small-cluster scalar paths (plain list indexing avoids NumPy
        scalar boxing inside the per-machine loop); and, per task-type row,
        the machine types in ascending EET (ties by column), each as
        ``(eet, its machine indices ascending)``, so the scalar completion
        scans visit the cheapest types first and stop once a type's EET
        alone cannot beat the best found. Built once per layout and shared
        by every cluster with it (a federation's identically laid-out
        shards), so none of the three may be written. Two threads building
        the same layout at once build equal tables; either may be kept.
        """
        tables = self._machine_tables.get(columns)
        if tables is None:
            by_machine = np.ascontiguousarray(self._matrix[:, list(columns)])
            # Row views of this array are handed out; keep it immutable so a
            # policy mutating its "own" EET vector cannot corrupt a cluster.
            by_machine.setflags(write=False)
            members: list[list[int]] = [[] for _ in self._machine_names]
            for i, col in enumerate(columns):
                members[col].append(i)
            groups = [
                tuple(
                    (e, tuple(members[col]))
                    for e, col in sorted(zip(row, range(len(row))))
                    if members[col]
                )
                for row in self._matrix.tolist()
            ]
            tables = (by_machine, [row.tolist() for row in by_machine], groups)
            self._machine_tables[columns] = tables
        return tables

    # -- heterogeneity diagnostics -------------------------------------------------

    def is_homogeneous(self, rel_tol: float = 1e-9) -> bool:
        """True iff every task type runs equally fast on every machine type."""
        return bool(
            np.allclose(self._matrix, self._matrix[:, [0]], rtol=rel_tol, atol=0.0)
        )

    # -- construction helpers --------------------------------------------------------

    @classmethod
    def homogeneous(
        cls,
        task_eets: Sequence[float],
        task_type_names: Sequence[str],
        n_machine_types: int,
        machine_type_names: Sequence[str] | None = None,
    ) -> "EETMatrix":
        """All machine types identical: column j = task_eets for every j."""
        if machine_type_names is None:
            machine_type_names = [f"M{j}" for j in range(n_machine_types)]
        col = np.asarray(task_eets, dtype=float).reshape(-1, 1)
        return cls(
            np.repeat(col, n_machine_types, axis=1),
            list(task_type_names),
            machine_type_names,
        )

    # -- CSV I/O -----------------------------------------------------------------------

    @classmethod
    def read_csv(cls, source: str | Path | TextIO) -> "EETMatrix":
        """Parse the Fig-2 EET CSV format."""
        if isinstance(source, (str, Path)):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = source.read()
        reader = csv.reader(io.StringIO(text))
        rows = [r for r in reader if r and any(cell.strip() for cell in r)]
        if len(rows) < 2:
            raise EETError("EET CSV needs a header and at least one row")
        header = [c.strip() for c in rows[0]]
        machine_names = header[1:]
        if not machine_names:
            raise EETError("EET CSV header defines no machine types")
        task_names: list[str] = []
        values: list[list[float]] = []
        for lineno, row in enumerate(rows[1:], start=2):
            cells = [c.strip() for c in row]
            if len(cells) != len(header):
                raise EETError(
                    f"EET CSV line {lineno}: expected {len(header)} cells, "
                    f"got {len(cells)}"
                )
            task_names.append(cells[0])
            try:
                values.append([float(c) for c in cells[1:]])
            except ValueError as exc:
                raise EETError(f"EET CSV line {lineno}: {exc}") from exc
        return cls(np.array(values), task_names, machine_names)

    def to_csv(self, target: str | Path | TextIO | None = None) -> str:
        """Serialise in the Fig-2 CSV format; returns the text."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["task_type", *self._machine_names])
        for t in self._task_types:
            writer.writerow(
                [t.name, *(f"{v:.9g}" for v in self._matrix[t.index])]
            )
        text = buffer.getvalue()
        if target is not None:
            if isinstance(target, (str, Path)):
                Path(target).write_text(text, encoding="utf-8")
            else:
                target.write(text)
        return text

    # -- dunder ------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EETMatrix):
            return NotImplemented
        return (
            self.task_type_names == other.task_type_names
            and self._machine_names == other._machine_names
            and np.array_equal(self._matrix, other._matrix)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EETMatrix({self.n_task_types} task types × "
            f"{self.n_machine_types} machine types)"
        )
