"""Scenario configuration: declarative description of a whole experiment.

A :class:`Scenario` bundles everything the GUI collects before "Play": the
EET matrix, the machine population (with power profiles), the scheduler and
its parameters, the machine-queue capacity, and the workload (an explicit
trace or a generator recipe). Scenarios serialise to/from JSON so experiments
are reproducible artifacts, and they are the unit the CLI (`e2c-sim run`)
consumes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from ..machines.cluster import Cluster
from ..machines.eet import EETMatrix
from ..machines.execution import execution_model_from_spec
from ..machines.failures import FailureModel
from ..machines.machine import UNBOUNDED
from ..machines.power import PowerProfile
from ..scheduling.base import Scheduler
from ..scheduling.overhead import SchedulingOverhead
from ..scheduling.federation.eviction import create_eviction
from ..scheduling.federation.registry import create_gateway
from ..scheduling.registry import create_scheduler
from ..tasks.generator import (
    TaskTypeSpec,
    WorkloadGenerator,
    oversubscription_for_level,
)
from ..tasks.task import Task
from ..tasks.task_type import TaskType
from ..tasks.trace_io import TraceSpec, read_workload_csv
from ..tasks.workload import Workload
from .errors import ConfigurationError, SchedulingError
from .fields import array, flag, integer, pair, real, record, text
from .jsonio import load_json_source
from .rng import derive_seed
from .simulator import SimulationResult, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..federation.simulator import FederatedSimulator
    from ..federation.spec import FederationSpec

__all__ = ["Scenario"]


@dataclass
class Scenario:
    """A fully-specified, reproducible simulation experiment.

    Attributes
    ----------
    eet:
        The EET matrix (task types × machine types).
    machine_counts:
        Machines per machine type, e.g. ``{"CPU": 2, "GPU": 1}``.
    scheduler:
        Registry name of the policy (e.g. "MECT", "MM").
    scheduler_params:
        Keyword arguments for the policy constructor.
    queue_capacity:
        Machine-queue capacity for batch mode (UNBOUNDED default). The
        engine lifts it to UNBOUNDED under an immediate policy.
    workload:
        Explicit task trace; exactly one of ``workload``, ``generator``,
        ``trace`` must be set.
    generator:
        Recipe dict: ``{"duration": 400, "intensity": "high",
        "specs": [...]}``, with ``"n_tasks"`` in place of ``"duration"``
        for a fixed task count.
    trace:
        A :class:`~repro.tasks.trace_io.TraceSpec` (or its dict form)
        importing a cluster-trace CSV at build time.
    power_profiles:
        Per machine type; defaults to zero-power profiles.
    seed:
        Master seed; workload generation and execution noise derive from it.
    drop_on_deadline:
        Paper semantics (cancel/drop on deadline) when True; when False tasks
        run to completion and lateness is recorded instead.
    execution_model:
        Spec dict for runtime noise (None ⇒ deterministic).
    enable_network:
        Activate the communication extension (uses each machine type's
        latency/bandwidth and the task types' data sizes).
    memory_capacities / network:
        Per-machine-type extension parameters.
    """

    eet: EETMatrix
    machine_counts: Mapping[str, int]
    scheduler: str
    scheduler_params: dict = field(default_factory=dict)
    queue_capacity: float = UNBOUNDED
    workload: Workload | None = None
    generator: dict | None = None
    trace: TraceSpec | None = None
    power_profiles: dict[str, PowerProfile] = field(default_factory=dict)
    seed: int | None = None
    drop_on_deadline: bool = True
    execution_model: dict | None = None
    enable_network: bool = False
    memory_capacities: dict[str, float] = field(default_factory=dict)
    network: dict[str, tuple[float, float]] = field(default_factory=dict)
    failure_model: FailureModel | None = None
    scheduling_overhead: dict | None = None
    federation: "FederationSpec | None" = None
    name: str = "scenario"

    def __post_init__(self) -> None:
        if self.trace is not None and not isinstance(self.trace, TraceSpec):
            self.trace = TraceSpec.from_dict(self.trace)
        sources = sum(
            x is not None for x in (self.workload, self.generator, self.trace)
        )
        if sources != 1:
            raise ConfigurationError(
                "exactly one of 'workload', 'generator' or 'trace' must be "
                f"provided, got {sources}"
            )
        if self.seed is not None:
            self.seed = integer(self.seed, "seed")
        counts = {
            name: integer(count, f"machine_counts[{name!r}]")
            for name, count in record(self.machine_counts, "machine_counts").items()
        }
        unknown = set(counts) - set(self.eet.machine_type_names)
        if unknown:
            raise ConfigurationError(
                f"machine_counts reference unknown machine types {sorted(unknown)}"
            )
        if self.workload is not None:
            self.workload.validate_against_eet(self.eet)
        if self.federation is not None:
            totals = self.federation.total_machine_counts()
            declared = {n: c for n, c in counts.items() if c > 0}
            partitioned = {n: c for n, c in totals.items() if c > 0}
            if declared != partitioned:
                raise ConfigurationError(
                    f"federation clusters partition {partitioned}, but the "
                    f"scenario declares machine_counts {declared}; the "
                    "cluster counts must sum to the scenario's totals"
                )

    # -- builders --------------------------------------------------------------------

    def build_cluster(self) -> Cluster:
        return Cluster.build(
            self.eet,
            dict(self.machine_counts),
            power_profiles=self.power_profiles,
            queue_capacity=self.queue_capacity,
            memory_capacities=self.memory_capacities,
            network=self.network,
        )

    def build_workload(self, *, replication: int = 0) -> Workload:
        """Materialise the task trace, each task built once.

        ``replication`` offsets the derived seed so replicated runs of the
        same scenario draw independent workloads while staying reproducible.
        An explicit ``workload`` is handed out as a fresh copy.
        """
        if self.workload is not None:
            return self.workload.fresh_copy()
        if self.trace is not None:
            workload = self.trace.build_workload(
                self.eet, seed=self.seed, replication=replication
            )
            workload.validate_against_eet(self.eet)
            # The load check cannot read a trace's rows; no engine is built yet.
            self._check_failure_window(workload.tasks)
            return workload
        return self._generate_workload(replication)

    def _generator(self) -> tuple[WorkloadGenerator, dict[str, Any]]:
        """The generator recipe, checked: its generator and its other fields."""
        recipe = record(self.generator, "generator", _RECIPE_KEYS)
        specs = [
            s if isinstance(s, TaskTypeSpec) else TaskTypeSpec.from_dict(s)
            for s in array(recipe.pop("specs", []), "generator.specs")
        ] or None
        gen = WorkloadGenerator(
            self.eet,
            specs,
            machine_counts=[
                self.machine_counts.get(n, 0)
                for n in self.eet.machine_type_names
            ],
        )
        oversubscription_for_level(recipe.setdefault("intensity", "medium"))
        if "n_tasks" in recipe and "duration" in recipe:
            raise ConfigurationError(
                "generator recipe takes 'duration' or 'n_tasks', not both"
            )
        if "n_tasks" in recipe:
            recipe["n_tasks"] = integer(recipe["n_tasks"], "generator.n_tasks", lo=1)
        elif "duration" in recipe:
            real(recipe["duration"], "generator.duration", above=0)
        else:
            raise ConfigurationError("generator recipe needs 'duration' or 'n_tasks'")
        return gen, recipe

    def check_recipe(self) -> None:
        """Refuse bad policies and generator recipes now, not when a run needs them.

        An unknown scheduler, gateway or eviction policy, or parameters its
        constructor refuses, fails here, naming its field; so does a gateway
        that cannot route a tree federation. So do a bad recipe field, a
        window too long to hold, or a failure storm over the window (see
        :meth:`_check_failure_window`). A trace's window is checked once its
        rows are read, by :meth:`build_workload`.
        """
        _check_policy(create_scheduler, self.scheduler, self.scheduler_params, "scheduler")
        spec = self.federation
        if spec is not None:
            gateway = _check_policy(
                create_gateway, spec.gateway, spec.gateway_params,
                "federation.gateway", "federation.gateway_params",
            )
            try:
                spec.check_gateway(gateway)
            except ConfigurationError as exc:
                raise ConfigurationError(f"federation.gateway: {exc}") from exc
            if spec.migration is not None:
                _check_policy(
                    create_eviction, spec.migration.policy, spec.migration.policy_params,
                    "federation.migration.policy", "federation.migration.policy_params",
                )
            for cluster in spec.clusters:
                if cluster.scheduler is not None:
                    _check_policy(
                        create_scheduler,
                        cluster.scheduler,
                        cluster.scheduler_params,
                        f"cluster {cluster.name!r}.scheduler",
                    )
        if self.generator is None:
            if self.workload is not None:
                self._check_failure_window(self.workload.tasks)
            return
        gen, recipe = self._generator()
        if "duration" in recipe:
            gen.check_window(recipe["duration"], recipe["intensity"])
        if self.failure_model is not None:
            window = (
                recipe["duration"]
                if "duration" in recipe
                else gen.count_window(recipe["n_tasks"], recipe["intensity"])
            )
            self.failure_model.check_window(self.machine_counts, window)

    def _check_failure_window(self, tasks: Sequence[Task]) -> None:
        """Refuse a failure storm over the window of the given tasks.

        The window runs from the first arrival to the last deadline (or
        last arrival, where deadlines are infinite); *tasks* are in
        workload order, sorted by arrival.
        """
        if self.failure_model is None or not tasks:
            return
        end = max(t.deadline if t.deadline != math.inf else t.arrival_time for t in tasks)
        self.failure_model.check_window(self.machine_counts, end - tasks[0].arrival_time)

    def _generate_workload(self, replication: int) -> Workload:
        """Sample the generator recipe's workload for *replication*."""
        gen, recipe = self._generator()
        seed = derive_seed(self.seed, "workload", replication)
        if "n_tasks" in recipe:
            return gen.generate_count(
                recipe["n_tasks"], intensity=recipe["intensity"], seed=seed
            )
        return gen.generate(
            recipe["duration"], intensity=recipe["intensity"], seed=seed
        )

    def build_scheduler(self) -> Scheduler:
        return create_scheduler(self.scheduler, **self.scheduler_params)

    def build_simulator(
        self, *, replication: int = 0
    ) -> "Simulator | FederatedSimulator":
        """Assemble the engine: a federated one when the scenario has a
        federation, else a single cluster."""
        engine: Callable[..., Simulator | FederatedSimulator]
        if self.federation is None:
            scheduler = self.build_scheduler()
            engine = partial(Simulator, self.build_cluster(), scheduler=scheduler)
        else:
            from ..federation.simulator import FederatedSimulator

            engine = partial(
                FederatedSimulator,
                self.federation,
                self.eet,
                queue_capacity=self.queue_capacity,
                power_profiles=self.power_profiles,
                memory_capacities=self.memory_capacities,
                network=self.network,
                default_scheduler=self.scheduler,
                default_scheduler_params=self.scheduler_params,
            )
        return engine(
            workload=self.build_workload(replication=replication),
            seed=derive_seed(self.seed, "simulation", replication),
            drop_on_deadline=self.drop_on_deadline,
            execution_model=execution_model_from_spec(self.execution_model),
            enable_network=self.enable_network,
            failure_model=self.failure_model,
            scheduling_overhead=SchedulingOverhead.from_spec(
                self.scheduling_overhead
            ),
        )

    def run(self, *, replication: int = 0) -> SimulationResult:
        """Build and run once; the one-liner most experiments need."""
        return self.build_simulator(replication=replication).run()

    # -- JSON round-trip ----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        if self.workload is not None:
            task_rows = []
            for t in self.workload:
                row: dict[str, Any] = {
                    "task_id": t.id,
                    "task_type": t.task_type.name,
                    "arrival_time": t.arrival_time,
                    "deadline": t.deadline,
                }
                if t.extras:
                    row["extras"] = {k: v for k, v in t.extras}
                task_rows.append(row)
            workload_spec: Any = {"tasks": task_rows}
        else:
            workload_spec = None
        return {
            "name": self.name,
            "eet": {
                "task_types": [
                    {
                        "name": t.name,
                        "relative_deadline": t.relative_deadline,
                        "data_in": t.data_in,
                        "data_out": t.data_out,
                        "memory": t.memory,
                    }
                    for t in self.eet.task_types
                ],
                "machine_types": self.eet.machine_type_names,
                "values": self.eet.values.tolist(),
            },
            "machine_counts": dict(self.machine_counts),
            "scheduler": self.scheduler,
            "scheduler_params": dict(self.scheduler_params),
            "queue_capacity": (
                None if self.queue_capacity == UNBOUNDED else self.queue_capacity
            ),
            "workload": workload_spec,
            "generator": self.generator,
            "trace": None if self.trace is None else self.trace.to_dict(),
            "power_profiles": {
                name: {
                    "idle_watts": p.idle_watts,
                    "busy_watts": p.busy_watts,
                    "busy_watts_by_type": dict(p.busy_watts_by_type),
                }
                for name, p in self.power_profiles.items()
            },
            "seed": self.seed,
            "drop_on_deadline": self.drop_on_deadline,
            "execution_model": self.execution_model,
            "enable_network": self.enable_network,
            "memory_capacities": dict(self.memory_capacities),
            "network": {k: list(v) for k, v in self.network.items()},
            "scheduling_overhead": self.scheduling_overhead,
            "federation": (
                None if self.federation is None else self.federation.to_dict()
            ),
            "failure_model": (
                None
                if self.failure_model is None
                else {
                    "mtbf": self.failure_model.mtbf,
                    "mttr": self.failure_model.mttr,
                    "per_machine_type": {
                        k: list(v)
                        for k, v in self.failure_model.per_machine_type.items()
                    },
                }
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Load the :meth:`to_dict` form; a malformed field fails naming its path.

        Every key the document may hold is checked here, so a submission is
        refused when it is loaded, not when its run reaches the bad field.
        """
        data = record(
            data, "scenario", [f.name for f in fields(cls)],
            ("eet", "machine_counts", "scheduler"),
        )
        eet = _eet_from_dict(data["eet"])
        workload = None
        if data.get("workload") is not None:
            from ..tasks.trace_io import workload_from_rows

            rows = record(data["workload"], "workload", ("tasks",), ("tasks",))
            workload = workload_from_rows(
                [
                    _task_row(row, f"workload.tasks[{i}]")
                    for i, row in enumerate(array(rows["tasks"], "workload.tasks"))
                ],
                task_types=eet.task_types,
            )
        federation = None
        if data.get("federation") is not None:
            from ..federation.spec import FederationSpec

            federation = FederationSpec.from_dict(data["federation"])
        # Parsed here only to refuse a bad spec at load; the scenario keeps
        # the spec dicts, which the engine parses again when it is built.
        execution_model_from_spec(data.get("execution_model"))
        SchedulingOverhead.from_spec(data.get("scheduling_overhead"))
        capacity = data.get("queue_capacity")
        failure = data.get("failure_model")
        scenario = cls(
            eet=eet,
            machine_counts=data["machine_counts"],
            scheduler=text(data["scheduler"], "scheduler"),
            scheduler_params=record(
                data.get("scheduler_params", {}), "scheduler_params"
            ),
            queue_capacity=(
                UNBOUNDED
                if capacity is None
                else integer(capacity, "queue_capacity", unbounded=True)
            ),
            workload=workload,
            generator=data.get("generator"),
            trace=data.get("trace"),
            power_profiles={
                name: _power_profile(p, f"power_profiles[{name!r}]")
                for name, p in record(
                    data.get("power_profiles", {}), "power_profiles"
                ).items()
            },
            seed=data.get("seed"),
            drop_on_deadline=flag(
                data.get("drop_on_deadline", True), "drop_on_deadline"
            ),
            execution_model=data.get("execution_model"),
            enable_network=flag(data.get("enable_network", False), "enable_network"),
            memory_capacities={
                name: real(value, f"memory_capacities[{name!r}]", lo=0)
                for name, value in record(
                    data.get("memory_capacities", {}), "memory_capacities"
                ).items()
            },
            network={
                name: pair(value, f"network[{name!r}]")
                for name, value in record(data.get("network", {}), "network").items()
            },
            scheduling_overhead=data.get("scheduling_overhead"),
            federation=federation,
            failure_model=None if failure is None else _failure_model(failure),
            name=text(data.get("name", "scenario"), "name"),
        )
        scenario.check_recipe()
        return scenario

    def to_json(self, path: str | Path | None = None, *, indent: int = 2) -> str:
        text = json.dumps(self.to_dict(), indent=indent)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "Scenario":
        """Load from a JSON file path or a JSON string."""
        return cls.from_dict(load_json_source(source, what="scenario"))

    # -- conveniences ------------------------------------------------------------------------

    @classmethod
    def from_csv_files(
        cls,
        eet_csv: str | Path,
        workload_csv: str | Path,
        scheduler: str,
        **kwargs,
    ) -> "Scenario":
        """The Fig-2 workflow: load EET and workload CSVs, pick a policy."""
        eet = EETMatrix.read_csv(eet_csv)
        workload = read_workload_csv(
            workload_csv,
            task_types=eet.task_types,
            default_relative_deadline=kwargs.pop(
                "default_relative_deadline", None
            ),
        )
        return cls(
            eet=eet,
            machine_counts=kwargs.pop(
                "machine_counts",
                {n: 1 for n in eet.machine_type_names},
            ),
            scheduler=scheduler,
            workload=workload,
            **kwargs,
        )

    def with_scheduler(self, scheduler: str, **params) -> "Scenario":
        """Copy of this scenario under a different policy (comparison sweeps)."""
        from dataclasses import replace

        return replace(
            self, scheduler=scheduler, scheduler_params=params,
            name=f"{self.name}:{scheduler}",
        )

    def with_gateway(self, gateway: str, **params) -> "Scenario":
        """Copy of this federated scenario under a different offloading policy."""
        from dataclasses import replace

        if self.federation is None:
            raise ConfigurationError(
                "with_gateway requires a federated scenario "
                "(the 'federation' field is not set)"
            )
        federation = replace(
            self.federation, gateway=gateway, gateway_params=params
        )
        return replace(
            self, federation=federation, name=f"{self.name}~{gateway}"
        )

    def with_migration(self, policy: str | None, **options) -> "Scenario":
        """Copy of this federated scenario with mid-queue migration set.

        ``policy`` is a registered eviction-policy name (``LONGEST_WAIT``,
        ``DEADLINE_SLACK``, ``EET_GAIN``, ...); ``options`` are
        :class:`~repro.federation.spec.MigrationSpec` fields (``interval``,
        ``pressure_gap``, ``batch_max``, ``min_queue``, ``policy_params``).
        Pass ``policy=None`` to disable migration on a preset that enables
        it by default.
        """
        from dataclasses import replace

        from ..federation.spec import MigrationSpec

        if self.federation is None:
            raise ConfigurationError(
                "with_migration requires a federated scenario "
                "(the 'federation' field is not set)"
            )
        if policy is None:
            if options:
                raise ConfigurationError(
                    "with_migration(None) disables migration and accepts "
                    f"no options, got {sorted(options)}"
                )
            spec = None
            suffix = "-migration"
        else:
            spec = MigrationSpec(policy=policy, **options)
            suffix = f"+{spec.policy}"
        federation = replace(self.federation, migration=spec)
        return replace(
            self, federation=federation, name=f"{self.name}{suffix}"
        )


#: Keys of a ``generator`` recipe, an ``eet.task_types`` entry and a
#: ``workload.tasks`` row.
_RECIPE_KEYS = ("duration", "intensity", "specs", "n_tasks")
_TASK_TYPE_KEYS = ("name", "relative_deadline", "data_in", "data_out", "memory")
_TASK_ROW_KEYS = ("task_id", "task_type", "arrival_time", "deadline", "extras")


def _task_row(value: Any, path: str) -> dict[str, Any]:
    """One ``workload.tasks`` row of the :meth:`Scenario.to_dict` form, checked."""
    row = record(value, path, _TASK_ROW_KEYS)
    row["task_id"] = integer(row.get("task_id"), f"{path}.task_id")
    row["task_type"] = text(row.get("task_type"), f"{path}.task_type")
    row["arrival_time"] = real(row.get("arrival_time"), f"{path}.arrival_time", lo=0)
    deadline = row.get("deadline")
    # to_dict writes Infinity for a task without a deadline.
    if deadline is not None and deadline != math.inf:
        row["deadline"] = real(deadline, f"{path}.deadline")
    if "extras" in row:
        row["extras"] = record(row["extras"], f"{path}.extras")
    return row


def _check_policy(
    create: Callable[..., Any],
    name: str,
    params: Mapping[str, Any],
    path: str,
    params_path: str | None = None,
) -> Any:
    """Build policy *name* once with *create* and return it.

    An unknown name fails naming *path*; parameters the policy refuses fail
    naming *params_path* (default: *path*).
    """
    try:
        return create(name, **params)
    except SchedulingError as exc:
        raise ConfigurationError(f"{path}: {exc.args[0]}") from exc
    except ConfigurationError as exc:
        raise ConfigurationError(f"{params_path or path}: {exc.args[0]}") from exc


def _eet_from_dict(spec: Any) -> EETMatrix:
    """The ``eet`` block: task types, machine types and a rectangular matrix."""
    keys = ("task_types", "machine_types", "values")
    spec = record(spec, "eet", keys, keys)
    task_types = [
        TaskType(index=i, **record(t, f"eet.task_types[{i}]", _TASK_TYPE_KEYS, ("name",)))
        for i, t in enumerate(array(spec["task_types"], "eet.task_types"))
    ]
    rows = [
        [real(v, f"eet.values[{i}][{j}]") for j, v in enumerate(array(row, f"eet.values[{i}]"))]
        for i, row in enumerate(array(spec["values"], "eet.values"))
    ]
    if len({len(row) for row in rows}) > 1:
        raise ConfigurationError(
            f"eet.values must be rectangular, got row lengths {[len(r) for r in rows]}"
        )
    machine_types = [
        text(name, f"eet.machine_types[{j}]")
        for j, name in enumerate(array(spec["machine_types"], "eet.machine_types"))
    ]
    return EETMatrix(np.array(rows, dtype=float), task_types, machine_types)


def _power_profile(spec: Any, path: str) -> PowerProfile:
    """One ``power_profiles`` entry, each wattage checked under *path*."""
    spec = record(spec, path, ("idle_watts", "busy_watts", "busy_watts_by_type"))
    by_type = record(spec.get("busy_watts_by_type", {}), f"{path}.busy_watts_by_type")
    return PowerProfile(
        idle_watts=real(spec.get("idle_watts", 0.0), f"{path}.idle_watts", lo=0),
        busy_watts=real(spec.get("busy_watts", 0.0), f"{path}.busy_watts", lo=0),
        busy_watts_by_type={
            name: real(watts, f"{path}.busy_watts_by_type[{name!r}]", lo=0)
            for name, watts in by_type.items()
        },
    )


def _failure_model(spec: Any) -> FailureModel:
    """The ``failure_model`` object; FailureModel itself checks the signs."""
    spec = record(spec, "failure_model", ("mtbf", "mttr", "per_machine_type"))
    overrides = record(spec.get("per_machine_type", {}), "failure_model.per_machine_type")
    return FailureModel(
        mtbf=real(spec.get("mtbf"), "failure_model.mtbf"),
        mttr=real(spec.get("mttr"), "failure_model.mttr"),
        per_machine_type={
            name: pair(value, f"failure_model.per_machine_type[{name!r}]")
            for name, value in overrides.items()
        },
    )
