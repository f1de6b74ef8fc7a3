"""Tasks, task types, workloads and workload generation."""

from .arrivals import (
    ArrivalProcess,
    BurstyProcess,
    ConstantProcess,
    NormalProcess,
    PoissonProcess,
    UniformProcess,
    arrival_process_from_spec,
)
from .generator import (
    INTENSITY_LEVELS,
    TaskTypeSpec,
    WorkloadGenerator,
    oversubscription_for_level,
)
from .task import DropStage, Task, TaskStatus
from .task_type import TaskType
from .trace_io import read_workload_csv, workload_from_rows, write_workload_csv
from .workload import Workload

__all__ = [
    "Task",
    "TaskStatus",
    "DropStage",
    "TaskType",
    "Workload",
    "ArrivalProcess",
    "PoissonProcess",
    "UniformProcess",
    "NormalProcess",
    "ConstantProcess",
    "BurstyProcess",
    "arrival_process_from_spec",
    "WorkloadGenerator",
    "TaskTypeSpec",
    "INTENSITY_LEVELS",
    "oversubscription_for_level",
    "read_workload_csv",
    "write_workload_csv",
    "workload_from_rows",
]
