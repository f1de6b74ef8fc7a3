"""Cluster: the machine population of a scenario.

Builds machine instances from (machine type, count) pairs against an EET
matrix and provides the aggregate views the scheduler and the renderer need:
ready-time vectors, completion-time vectors (NumPy, vectorised across
machines), load snapshots and energy totals.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..core.fields import integer
from ..tasks.task import Task
from .eet import EETMatrix
from .machine import UNBOUNDED, ClusterState, Machine
from .machine_type import MachineType
from .power import PowerProfile

__all__ = ["Cluster", "ClusterState"]


class Cluster:
    """An ordered collection of machines sharing one EET matrix."""

    def __init__(self, machines: Sequence[Machine], eet: EETMatrix) -> None:
        if not machines:
            raise ConfigurationError("a cluster needs at least one machine")
        ids = [m.id for m in machines]
        if ids != list(range(len(machines))):
            raise ConfigurationError(
                f"machine ids must be 0..n-1 in order, got {ids}"
            )
        for m in machines:
            if not eet.has_machine_type(m.machine_type.name):
                raise ConfigurationError(
                    f"machine {m.name}: type {m.machine_type.name!r} has no EET "
                    f"column; columns: {eet.machine_type_names}"
                )
        self.machines = list(machines)
        self.eet = eet
        # The EET expanded to machine granularity, shared by every cluster
        # with this machine-type layout (see EETMatrix.machine_tables).
        col_of = eet._col_of
        (
            self._eet_by_machine,
            self._eet_lists,
            self._eet_groups,
        ) = eet.machine_tables(tuple(col_of[m.machine_type.name] for m in machines))
        # The EET's own private row index, shared and never written: an
        # unknown task type raises EETError.
        self._row_of = eet._row_of
        # Built on first use by the energy-aware policies (energy_table).
        self._energy_by_machine: np.ndarray | None = None
        self._energy_lists: list[list[float]] = []
        self._state = ClusterState(len(self.machines))
        for i, m in enumerate(self.machines):
            m.bind_state(self._state, i)

    @property
    def state(self) -> ClusterState:
        """The machines' planning scalars (read-only by convention)."""
        return self._state

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(
        cls,
        eet: EETMatrix,
        counts: Mapping[str, int] | Sequence[int],
        *,
        power_profiles: Mapping[str, PowerProfile] | None = None,
        queue_capacity: float = UNBOUNDED,
        memory_capacities: Mapping[str, float] | None = None,
        network: Mapping[str, tuple[float, float]] | None = None,
    ) -> "Cluster":
        """Create machines from per-machine-type counts.

        Parameters
        ----------
        counts:
            Either ``{"CPU": 2, "GPU": 1}`` or a sequence aligned with the EET
            columns.
        power_profiles:
            Optional per-machine-type power profiles.
        queue_capacity:
            Machine-queue capacity applied to all machines; the engine lifts
            it to unbounded under an immediate policy.
        memory_capacities / network:
            Optional extension parameters per machine type; ``network`` maps
            type name to ``(latency_s, bandwidth_MBps)``.
        """
        names = eet.machine_type_names
        if isinstance(counts, Mapping):
            unknown = set(counts) - set(names)
            if unknown:
                raise ConfigurationError(
                    f"counts reference unknown machine types {sorted(unknown)}"
                )
            counts = [counts.get(n, 0) for n in names]
        elif len(counts) != len(names):
            raise ConfigurationError(
                f"counts sequence length {len(counts)} != machine types "
                f"{len(names)}"
            )
        count_list = [
            integer(c, f"machine_counts[{n!r}]") for n, c in zip(names, counts)
        ]
        if sum(count_list) == 0:
            raise ConfigurationError("at least one machine is required")

        power_profiles = power_profiles or {}
        memory_capacities = memory_capacities or {}
        network = network or {}
        machine_types = []
        for j, name in enumerate(names):
            latency, bandwidth = network.get(name, (0.0, 0.0))
            machine_types.append(
                MachineType(
                    name=name,
                    index=j,
                    power=power_profiles.get(name, PowerProfile()),
                    memory_capacity=memory_capacities.get(name, 0.0),
                    network_latency=latency,
                    network_bandwidth=bandwidth,
                )
            )

        machines: list[Machine] = []
        for mtype, count in zip(machine_types, count_list):
            for _ in range(count):
                machines.append(
                    Machine(
                        machine_id=len(machines),
                        machine_type=mtype,
                        eet=eet,
                        queue_capacity=queue_capacity,
                    )
                )
        return cls(machines, eet)

    # -- container protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.machines)

    def __iter__(self) -> Iterator[Machine]:
        return iter(self.machines)

    def __getitem__(self, i: int) -> Machine:
        return self.machines[i]

    # -- vectorised planning views ------------------------------------------------------

    def eet_vector(self, task: Task) -> np.ndarray:
        """EET of *task* on each machine (aligned with machine order)."""
        return self._eet_by_machine[self._row_of[task.task_type.name]]

    def eet_rows(self, tasks: Sequence[Task]) -> np.ndarray:
        """(len(tasks), n_machines) EET sub-matrix in one gather."""
        row_of = self._row_of
        return self._eet_by_machine[[row_of[t.task_type.name] for t in tasks]]

    @property
    def energy_table(self) -> np.ndarray:
        """Read-only (n_task_types, n_machines) dynamic energy of one run.

        Cell ``[t, j]`` is ``active_watts(machine j, type t) × EET`` — the
        Joules a task of type *t* draws running on machine *j*. Neither
        factor changes during a run, so the table is built once, on first
        use, with the same IEEE multiply as a per-task ``watts * eet`` row.
        """
        if self._energy_by_machine is None:
            self._build_energy_table()
        return self._energy_by_machine

    def _build_energy_table(self) -> None:
        watts = np.array(
            [
                [m.machine_type.power.active_watts(t.name) for m in self.machines]
                for t in self.eet.task_types
            ],
            dtype=float,
        )
        table = watts * self._eet_by_machine
        if not np.isfinite(table).all():
            # argmin_open_energy and the matrix pass agree only on finite cells.
            raise ConfigurationError("dynamic energy (busy watts x EET) must be finite")
        table.setflags(write=False)
        self._energy_by_machine = table
        self._energy_lists = table.tolist()

    def scalar_eet_rows(self, tasks: Sequence[Task]) -> list[list[float]]:
        """Python-float EET rows of *tasks* for the list batch pass.

        The rows are the cluster's own cached lists; do not mutate them.
        """
        row_of = self._row_of
        eet_lists = self._eet_lists
        return [eet_lists[row_of[t.task_type.name]] for t in tasks]

    def scalar_energy_rows(self, tasks: Sequence[Task]) -> list[list[float]]:
        """Python-float ``energy_table`` rows of *tasks*.

        The rows are the cluster's own cached lists; do not mutate them.
        """
        if self._energy_by_machine is None:
            self._build_energy_table()
        row_of = self._row_of
        energy_lists = self._energy_lists
        return [energy_lists[row_of[t.task_type.name]] for t in tasks]

    def energy_rows(self, tasks: Sequence[Task]) -> np.ndarray:
        """(len(tasks), n_machines) dynamic-energy sub-matrix in one gather."""
        row_of = self._row_of
        rows = [row_of[t.task_type.name] for t in tasks]
        return self.energy_table[rows]

    def ready_times(self, now: float) -> np.ndarray:
        """Each machine's ready time: when a newly queued task could start.

        Computed from the incrementally-maintained :class:`ClusterState`
        arrays as ``now + max(0, finish_at - now) + queued_work``; a machine
        that is down is never ready (+inf).
        """
        state = self._state
        ready = state.finish_at - now
        np.maximum(ready, 0.0, out=ready)
        ready += now
        ready += state.queued_work
        if state.n_down:
            ready[~np.array(state.up)] = np.inf
        return ready

    def ready_list(self, now: float) -> list[float]:
        """:meth:`ready_times` as Python floats, by a scalar loop.

        The same IEEE operations in the same order, so each value is
        bit-identical to the vector form's (a down machine is +inf too).
        The one-call argmins below repeat this loop inline, fused with
        their pick: building on this list made each 25-120% slower per
        call at 4-48 machines (BENCH_20.json holds the measurement).
        """
        state = self._state
        ready = []
        for f, q in zip(state.finish_at.tolist(), state.queued_work.tolist()):
            remaining = f - now
            if remaining < 0.0:
                remaining = 0.0
            ready.append(remaining + now + q)
        if state.n_down:
            for j, up in enumerate(state.up):
                if not up:
                    ready[j] = float("inf")
        return ready

    def completion_times(self, task: Task, now: float) -> np.ndarray:
        """Expected completion time of *task* on each machine."""
        out = self.ready_times(now)  # fresh array; safe to reuse in place
        out += self.eet_vector(task)
        return out

    #: Machine count above which the vectorised NumPy path beats the scalar
    #: loop (its ~6 ufunc dispatches cost about as much as ~64 loop bodies).
    _SCALAR_ARGMIN_LIMIT = 64

    # The scalar branches of the three completion scans below visit the
    # machine types of the task's EET row cheapest first (``_eet_groups``)
    # and stop at the first type whose ``now + e`` is strictly greater than
    # the best completion found: with ``remaining >= 0`` and
    # ``queued_work >= 0`` every sum of the type's machines is at least
    # ``now + e``, because IEEE rounding is monotone. An equal completion
    # goes to the lower machine index, so the pick is the first minimum the
    # full scan in machine order returns.

    def argmin_completion(self, task: Task, now: float) -> int:
        """Index of the machine minimising completion time (MCT argmin).

        ``int(completion_times(task, now).argmin())``. Fully-up clusters up
        to ``_SCALAR_ARGMIN_LIMIT`` machines take the scalar scan, cheapest
        machine type first and stopping early (see above), which beats the
        fixed cost of the ~6 NumPy ufunc dispatches of the vector form; both
        perform the identical IEEE operations and pick the first minimum,
        so the chosen index, and with it the trajectory, is the same.
        """
        state = self._state
        if not state.n_down and len(self.machines) <= self._SCALAR_ARGMIN_LIMIT:
            finish = state.finish_at.tolist()
            queued = state.queued_work.tolist()
            best = float("inf")
            best_j = 0
            for e, group in self._eet_groups[self._row_of[task.task_type.name]]:
                if now + e > best:
                    break
                for j in group:
                    remaining = finish[j] - now
                    if remaining < 0.0:
                        remaining = 0.0
                    v = now + remaining + queued[j] + e
                    if v < best or (v == best and j < best_j):
                        best = v
                        best_j = j
            return best_j
        return int(self.completion_times(task, now).argmin())

    def min_completion_time(self, task: Task, now: float) -> float:
        """Smallest expected completion time of *task* across machines.

        Scalar twin of ``float(completion_times(task, now).min())`` — the
        same IEEE operations, the same scan and split as
        :meth:`argmin_completion`, without materialising the vector (the
        gateway's EET-aware policy calls this per decision).
        """
        state = self._state
        if not state.n_down and len(self.machines) <= self._SCALAR_ARGMIN_LIMIT:
            finish = state.finish_at.tolist()
            queued = state.queued_work.tolist()
            best = float("inf")
            for e, group in self._eet_groups[self._row_of[task.task_type.name]]:
                if now + e > best:
                    break
                for j in group:
                    remaining = finish[j] - now
                    if remaining < 0.0:
                        remaining = 0.0
                    v = now + remaining + queued[j] + e
                    if v < best:
                        best = v
            return best
        return float(self.completion_times(task, now).min())

    def argmin_open_completion(self, task: Task, now: float) -> int | None:
        """First machine with a free queue slot minimising completion time.

        ``None`` when no machine has a free slot (or every open one
        completes at +inf). This is what a one-task batch pass picks: the first
        minimum of ``ready_times(now) + eet_vector(task)`` with saturated
        columns masked to +inf, which is what ``argmin_2d`` picks from a
        1×M completion matrix. Fully-up clusters up to
        ``_SCALAR_ARGMIN_LIMIT`` machines take the scalar scan of
        :meth:`argmin_completion`, skipping closed machines, with the same
        IEEE operations; down machines take the vector form.
        """
        state = self._state
        if state.n_down or len(self.machines) > self._SCALAR_ARGMIN_LIMIT:
            completion = self.completion_times(task, now)
            completion[np.array(state.slots) <= 0] = np.inf
            j = int(completion.argmin())
            return j if np.isfinite(completion[j]) else None
        finish = state.finish_at.tolist()
        queued = state.queued_work.tolist()
        slots = state.slots
        best = float("inf")
        best_j = -1  # below every index, so an equal +inf never takes it
        for e, group in self._eet_groups[self._row_of[task.task_type.name]]:
            if now + e > best:
                break
            for j in group:
                if slots[j] <= 0:
                    continue
                remaining = finish[j] - now
                if remaining < 0.0:
                    remaining = 0.0
                v = remaining + now + queued[j] + e
                if v < best or (v == best and j < best_j):
                    best = v
                    best_j = j
        return best_j if best_j >= 0 else None

    def argmin_open_energy(self, task: Task, now: float) -> int | None:
        """First open machine of least energy that meets *task*'s deadline.

        Among machines with a free queue slot, the first one minimising
        ``energy_table`` whose completion time is finite and no later than
        the deadline; when none is, the first one minimising completion
        time, as :meth:`argmin_open_completion`. This is what ELARE and
        FELARE pick from a 1×M completion matrix. Same scalar/vector split
        as :meth:`argmin_open_completion`, with the same IEEE operations in
        the same order on both branches.
        """
        state = self._state
        row = self._row_of[task.task_type.name]
        deadline = float(task.deadline)
        if state.n_down or len(self.machines) > self._SCALAR_ARGMIN_LIMIT:
            completion = self.completion_times(task, now)
            completion[np.array(state.slots) <= 0] = np.inf
            feasible = np.isfinite(completion) & (completion <= deadline)
            if feasible.any():
                energy = np.where(feasible, self.energy_table[row], np.inf)
                return int(energy.argmin())
            j = int(completion.argmin())
            return j if np.isfinite(completion[j]) else None
        eet_row = self._eet_lists[row]
        if self._energy_by_machine is None:
            self._build_energy_table()
        energy_row = self._energy_lists[row]
        queued = state.queued_work.tolist()
        slots = state.slots
        best = best_energy = float("inf")
        best_j = best_energy_j = None
        for j, f in enumerate(state.finish_at.tolist()):
            if slots[j] <= 0:
                continue
            remaining = f - now
            if remaining < 0.0:
                remaining = 0.0
            v = remaining + now + queued[j] + eet_row[j]
            if v <= deadline and energy_row[j] < best_energy:
                best_energy = energy_row[j]
                best_energy_j = j
            if v < best:
                best = v
                best_j = j
        return best_j if best_energy_j is None else best_energy_j

    def argmin_ready(self, now: float) -> int:
        """Index of the earliest-ready machine (first minimum).

        Scalar twin of ``int(ready_times(now).argmin())`` — the
        earliest-ready pick of FCFS and OLB — with the same scalar/vector
        split as :meth:`argmin_completion`.
        """
        state = self._state
        if not state.n_down and len(self.machines) <= self._SCALAR_ARGMIN_LIMIT:
            queued = state.queued_work.tolist()
            best = float("inf")
            best_j = 0
            for j, f in enumerate(state.finish_at.tolist()):
                remaining = f - now
                if remaining < 0.0:
                    remaining = 0.0
                v = remaining + now + queued[j]
                if v < best:
                    best = v
                    best_j = j
            return best_j
        return int(self.ready_times(now).argmin())

    # -- queue slots ---------------------------------------------------------------------------

    def unbound_queues(self) -> None:
        """Lift every (empty) machine queue to unbounded (pre-run configuration)."""
        for m in self.machines:
            if len(m.queue) or m.running is not None:
                raise ConfigurationError(
                    "cannot change queue capacity while tasks are in flight"
                )
            m.queue_capacity = UNBOUNDED
            m.recount_slots()

    def free_slots_snapshot(self) -> np.ndarray:
        """Fresh free-slots-per-machine array (callers may mutate it)."""
        return np.array(self._state.slots)
