"""Live system renderer — the Fig-1 layout in a terminal.

Draws the simulator state as the paper's overview diagram: the remaining
workload, the batch queue, the scheduler box (policy name), each machine with
its queue (tasks shown as their task-type tags, the visual analogue of the
GUI's colour coding), and the completed/cancelled/missed counters, plus the
"Current Time" display. Pure text; an optional ANSI colour mode tags task
types with stable colours.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..core.simulator import Simulator
    from ..machines.machine import Machine

__all__ = ["SystemRenderer"]

_ANSI_COLOURS = [36, 33, 35, 32, 34, 31, 96, 93, 95, 92]
_RESET = "\x1b[0m"


class SystemRenderer:
    """Renders a :class:`~repro.core.simulator.Simulator` as text frames."""

    def __init__(
        self,
        *,
        colour: bool = False,
        max_queue_display: int = 8,
        width: int = 78,
    ) -> None:
        self.colour = colour
        self.max_queue_display = max_queue_display
        self.width = width

    # -- helpers ---------------------------------------------------------------

    def _tag(self, task) -> str:
        name = task.task_type.name
        if not self.colour:
            return f"[{name}:{task.id}]"
        code = _ANSI_COLOURS[task.task_type.index % len(_ANSI_COLOURS)]
        return f"\x1b[{code}m[{name}:{task.id}]{_RESET}"

    def _queue_line(self, tasks, empty: str = "(empty)") -> str:
        tasks = list(tasks)
        if not tasks:
            return empty
        shown = tasks[: self.max_queue_display]
        suffix = (
            f" …+{len(tasks) - self.max_queue_display}"
            if len(tasks) > self.max_queue_display
            else ""
        )
        return " ".join(self._tag(t) for t in shown) + suffix

    def _machine_line(self, machine: "Machine") -> str:
        if machine.running is not None:
            running = f"▶ {self._tag(machine.running)}"
        else:
            running = "▷ idle"
        cap = machine.queue_capacity
        cap_str = "∞" if cap == float("inf") else str(int(cap))
        queue = self._queue_line(machine.queue, empty="·")
        return (
            f"  {machine.name:<12} {running:<18} "
            f"queue[{len(machine.queue)}/{cap_str}]: {queue}"
        )

    # -- frames -----------------------------------------------------------------

    def render(self, sim: "Simulator") -> str:
        """One full frame of the Fig-1 layout."""
        counts = sim.counts()
        bar = "─" * self.width
        lines = [
            bar,
            f" E2C simulator    policy: {sim.scheduler.name:<10} "
            f"current time: {sim.now:10.3f}",
            bar,
            f" workload: {sim.remaining_arrivals()} task(s) yet to arrive",
            f" batch queue ({len(sim.batch_queue)}): "
            + self._queue_line(sim.batch_queue),
            " machines:",
        ]
        for machine in sim.cluster:
            lines.append(self._machine_line(machine))
        lines.append(
            f" completed: {counts['completed']:<6} "
            f"cancelled: {counts['cancelled']:<6} "
            f"missed: {counts['missed']:<6}"
        )
        if sim.is_finished:
            lines.append(" ── simulation finished ──")
        lines.append(bar)
        return "\n".join(lines)

    def render_missed_tasks(self, sim: "Simulator") -> str:
        """The Missed Tasks component (Fig. 4): one row per missed task."""
        from ..tasks.task import TaskStatus

        rows = [
            t
            for t in sim.collector.tasks()
            if t.status is TaskStatus.MISSED
        ]
        header = (
            f"{'task':>6} {'type':<8} {'machine':<12} {'arrival':>10} "
            f"{'start':>10} {'missed at':>10} {'stage':<14}"
        )
        lines = ["Missed Tasks", header, "-" * len(header)]
        for t in rows:
            start = f"{t.start_time:.3f}" if t.start_time is not None else "—"
            lines.append(
                f"{t.id:>6} {t.task_type.name:<8} "
                f"{t.machine.name if t.machine else '—':<12} "
                f"{t.arrival_time:>10.3f} {start:>10} "
                f"{t.missed_time:>10.3f} "
                f"{t.drop_stage.value if t.drop_stage else '—':<14}"
            )
        if not rows:
            lines.append("(no missed tasks)")
        return "\n".join(lines)
