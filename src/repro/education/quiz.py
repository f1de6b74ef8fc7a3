"""Scheduling quiz engine — the §5 pre/post assessment and its answer key.

"The quizzes asked the students to map three arriving tasks to four
heterogeneous machines via the following scheduling methods: MEET, MECT, MM,
and MSD" — 3 tasks × 4 methods = 12 points, matching the paper's "out of 12
points" scale.

The ground truth is *computed by the actual scheduler implementations* of
this library: each question builds a miniature cluster, feeds the tasks
through the selected policy exactly as the simulator would (immediate
policies map sequentially with state carried between arrivals; batch policies
map the whole set in one pass), and records the mapping. A sheet scores one
point per (method, task) that matches :meth:`QuizQuestion.answer_key`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..core.rng import make_rng
from ..machines.cluster import Cluster
from ..machines.eet import EETMatrix
from ..machines.eet_generation import generate_eet_range_based
from ..scheduling.base import SchedulingMode
from ..scheduling.context import SchedulingContext
from ..scheduling.registry import create_scheduler
from ..tasks.task import Task

__all__ = ["QuizQuestion", "generate_quiz", "DEFAULT_METHODS"]

#: The four methods of the paper's quiz.
DEFAULT_METHODS: tuple[str, ...] = ("MEET", "MECT", "MM", "MSD")


@dataclass
class QuizQuestion:
    """One quiz instance: an EET table, task deadlines, and the methods.

    Tasks are one instance per EET row (task i is of type i), all arriving
    simultaneously at t = 0 in row order — the scenario the paper's quiz
    describes.
    """

    eet: EETMatrix
    deadlines: list[float]
    methods: tuple[str, ...] = DEFAULT_METHODS

    def __post_init__(self) -> None:
        if len(self.deadlines) != self.eet.n_task_types:
            raise ConfigurationError(
                f"need one deadline per task "
                f"({len(self.deadlines)} vs {self.eet.n_task_types})"
            )
        if any(d <= 0 for d in self.deadlines):
            raise ConfigurationError("deadlines must be positive")
        if not self.methods:
            raise ConfigurationError("a quiz needs at least one method")

    # -- ground truth ------------------------------------------------------------

    @property
    def n_tasks(self) -> int:
        return self.eet.n_task_types

    def _fresh_tasks(self) -> list[Task]:
        return [
            Task(
                id=i,
                task_type=self.eet.task_types[i],
                arrival_time=0.0,
                deadline=self.deadlines[i],
            )
            for i in range(self.n_tasks)
        ]

    def _fresh_cluster(self) -> Cluster:
        return Cluster.build(
            self.eet, {name: 1 for name in self.eet.machine_type_names}
        )

    def correct_mapping(self, method: str) -> dict[int, int]:
        """Ground-truth mapping {task id → machine id} under *method*.

        Immediate policies see tasks one at a time (queue state carried
        forward, as successive arrivals would); batch policies map the whole
        set in a single pass.
        """
        scheduler = create_scheduler(method)
        cluster = self._fresh_cluster()
        tasks = self._fresh_tasks()
        for task in tasks:
            task.enqueue_batch()
        mapping: dict[int, int] = {}
        if scheduler.mode is SchedulingMode.IMMEDIATE:
            for task in tasks:
                ctx = SchedulingContext(
                    now=0.0, pending=[task], cluster=cluster
                )
                (assignment,) = scheduler.schedule(ctx)
                assignment.machine.enqueue(task, 0.0)
                mapping[task.id] = assignment.machine.id
        else:
            ctx = SchedulingContext(now=0.0, pending=tasks, cluster=cluster)
            for assignment in scheduler.schedule(ctx):
                assignment.machine.enqueue(assignment.task, 0.0)
                mapping[assignment.task.id] = assignment.machine.id
        return mapping

    def answer_key(self) -> dict[str, dict[int, int]]:
        """Ground truth for every method."""
        return {m: self.correct_mapping(m) for m in self.methods}

    # -- presentation ----------------------------------------------------------------

    def to_text(self) -> str:
        """Printable question sheet (EET table + deadlines + instructions)."""
        lines = [
            "Scheduling quiz — map each task to a machine under every method.",
            "",
            "Expected execution times (seconds):",
        ]
        header = "        " + "  ".join(
            f"{n:>8}" for n in self.eet.machine_type_names
        )
        lines.append(header)
        for i, t in enumerate(self.eet.task_types):
            row = "  ".join(f"{v:8.2f}" for v in self.eet.values[i])
            lines.append(f"{t.name:>6}  {row}   (deadline {self.deadlines[i]:g} s)")
        lines.append("")
        lines.append(f"Methods: {', '.join(self.methods)}")
        lines.append("All tasks arrive at t = 0, in row order.")
        return "\n".join(lines)


def generate_quiz(
    *,
    n_tasks: int = 3,
    n_machines: int = 4,
    methods: Sequence[str] = DEFAULT_METHODS,
    seed: int | None | np.random.Generator = None,
    slack: float = 2.0,
) -> QuizQuestion:
    """Random quiz instance shaped like the paper's (3 tasks × 4 machines).

    Deadlines are ``slack × mean EET`` of each row — tight enough that the
    methods disagree, loose enough that correct mappings are feasible.
    """
    if n_tasks < 1 or n_machines < 2:
        raise ConfigurationError("need >= 1 task and >= 2 machines")
    if slack <= 0:
        raise ConfigurationError(f"slack must be positive, got {slack}")
    rng = make_rng(seed)
    eet = generate_eet_range_based(
        n_tasks,
        n_machines,
        task_range=8.0,
        machine_range=6.0,
        consistency="inconsistent",
        seed=rng,
    )
    deadlines = [
        float(slack * eet.values[i].mean()) for i in range(n_tasks)
    ]
    return QuizQuestion(eet=eet, deadlines=deadlines, methods=tuple(methods))
