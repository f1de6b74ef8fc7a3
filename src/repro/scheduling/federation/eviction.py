"""Eviction policies: which queued tasks to migrate off a saturated cluster.

The gateway (:mod:`.policies`) routes a task exactly once, at arrival. The
migration layer (:mod:`repro.federation.migration`) revisits that decision
mid-queue: when a cluster saturates while a remote one drains, a rebalance
pass evicts tasks from the saturated shard's batch queue and re-homes them
across the WAN. *Which* tasks to evict is a policy question with the same
shape as gateway routing — so eviction policies get the identical plug-in
treatment: a base class (:class:`EvictionPolicy`), a read-only decision
context (:class:`MigrationContext`), and a registry
(:func:`register_eviction` / :func:`create_eviction`) built on the shared
:class:`~repro.core.registry.NameRegistry`.

The stock disciplines mirror the classic triage heuristics:

* :class:`LongestWaitEviction` — ship the tasks that have waited longest
  (they are the clearest victims of the backlog, and the head of a FIFO
  queue is exactly what a drained remote cluster can start soonest).
* :class:`DeadlineSlackEviction` — ship only tasks with enough remaining
  slack to survive the WAN crossing (a migration that delivers a corpse
  wastes bandwidth *and* the task); most-slack-first.
* :class:`EETGainEviction` — ship the tasks whose estimated completion
  improves most by moving (remote best completion + backlog-aware WAN
  delay vs. staying put); the migration twin of ``EET_AWARE_REMOTE``.

Policies are read-only: they rank and return candidates; the rebalancer
performs the actual evictions, WAN submissions and accounting.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Iterable, Sequence, Type

from ...core.errors import ConfigurationError, UnknownEvictionPolicyError
from ...core.registry import NameRegistry
from .base import ShardView

if TYPE_CHECKING:  # pragma: no cover
    from ...net.wan import WanManager
    from ...tasks.task import Task

__all__ = [
    "MigrationContext",
    "EvictionPolicy",
    "LongestWaitEviction",
    "DeadlineSlackEviction",
    "EETGainEviction",
    "register_eviction",
    "create_eviction",
    "available_evictions",
    "eviction_class",
]


@dataclass
class MigrationContext:
    """Everything an eviction policy may consult for one rebalance decision.

    Attributes
    ----------
    now:
        Current simulation time (the rebalance tick).
    source:
        The saturated shard tasks would be evicted from.
    destination:
        The drained shard they would be shipped to.
    candidates:
        Snapshot of the source's batch queue, in FIFO order, already
        filtered to tasks whose deadline has not passed. Policies must not
        mutate the tasks.
    limit:
        Maximum number of tasks the rebalancer will accept this pass
        (returning more is allowed; the surplus is ignored).
    wan:
        Live WAN link state for backlog-aware delay estimates.
    """

    now: float
    source: ShardView
    destination: ShardView
    candidates: Sequence["Task"]
    limit: int
    wan: "WanManager"

    def estimated_wan_delay(self, task: "Task") -> float:
        """Backlog-aware expected in-WAN time of migrating *task* now."""
        return self.wan.estimated_delay(
            self.source.index,
            self.destination.index,
            task.task_type.data_in,
            self.now,
        )

    def source_completion(self, task: "Task") -> float:
        """Best achievable completion time of *task* if it stays put."""
        return float(
            self.source.cluster.completion_times(task, self.now).min()
        )

    def destination_completion(self, task: "Task") -> float:
        """Best completion time at the destination, including the WAN trip."""
        return self.estimated_wan_delay(task) + float(
            self.destination.cluster.completion_times(task, self.now).min()
        )


class EvictionPolicy(abc.ABC):
    """Common interface of every mid-queue migration eviction policy."""

    #: Registry name (e.g. "LONGEST_WAIT"); set by subclasses.
    name: ClassVar[str] = ""
    #: Short human-readable description for the CLI / docs.
    description: ClassVar[str] = ""

    @abc.abstractmethod
    def select(self, ctx: MigrationContext) -> list["Task"]:
        """Return the candidates to migrate, most-worth-moving first.

        At most ``ctx.limit`` of the returned tasks are evicted, in order.
        """

    def reset(self) -> None:
        """Clear any internal state (between simulation runs)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def _canonical(name: str) -> str:
    return name.upper().replace("-", "_")


_REGISTRY: NameRegistry[EvictionPolicy] = NameRegistry(
    kind="eviction",
    kind_full="eviction policy",
    not_found_error=UnknownEvictionPolicyError,
    canonicalise=_canonical,
)


def register_eviction(
    cls: Type[EvictionPolicy] | None = None, *, aliases: Iterable[str] = ()
) -> Any:
    """Class decorator adding an EvictionPolicy to the registry."""
    return _REGISTRY.register(cls, aliases=aliases)


def eviction_class(name: str) -> Type[EvictionPolicy]:
    """Resolve an eviction-policy class by name or alias (case-insensitive)."""
    return _REGISTRY.resolve(name)


def create_eviction(name: str, **kwargs: Any) -> EvictionPolicy:
    """Instantiate an eviction policy by registry name with policy kwargs."""
    return _REGISTRY.create(name, **kwargs)


def available_evictions() -> list[str]:
    """Sorted names of every registered eviction policy."""
    return _REGISTRY.names()


@register_eviction(aliases=("WAIT",))
class LongestWaitEviction(EvictionPolicy):
    """Migrate the tasks that have waited longest in the batch queue.

    The FIFO head has absorbed the most backlog delay and is what a drained
    remote cluster can start soonest — the classic work-stealing order.
    Deterministic: ties resolve to queue (arrival-event) order.
    """

    name = "LONGEST_WAIT"
    description = "evict the longest-queued tasks first (work stealing)"

    def select(self, ctx: MigrationContext) -> list["Task"]:
        return sorted(
            ctx.candidates, key=lambda t: t.arrival_time
        )[: ctx.limit]


@register_eviction(aliases=("SLACK",))
class DeadlineSlackEviction(EvictionPolicy):
    """Migrate only tasks with enough slack to survive the WAN crossing.

    A task whose remaining slack (deadline − now) is below ``margin`` times
    the backlog-aware WAN delay would likely expire in flight — migrating
    it burns link bandwidth and energy to deliver a corpse, so it stays.
    Among the survivors, most-slack-first: they tolerate the trip best and
    free the queue for the urgent tasks that cannot travel.
    """

    name = "DEADLINE_SLACK"
    description = (
        "evict the most-slack tasks whose deadline survives the WAN trip"
    )

    def __init__(self, *, margin: float = 1.5) -> None:
        if margin < 1.0:
            raise ConfigurationError(
                f"margin must be >= 1 (a trip below the WAN delay cannot "
                f"arrive alive), got {margin}"
            )
        self.margin = margin

    def select(self, ctx: MigrationContext) -> list["Task"]:
        now = ctx.now
        viable = [
            task
            for task in ctx.candidates
            if task.deadline - now
            >= self.margin * ctx.estimated_wan_delay(task)
        ]
        return sorted(viable, key=lambda t: (-(t.deadline - now), t.id))[
            : ctx.limit
        ]


@register_eviction(aliases=("GAIN",))
class EETGainEviction(EvictionPolicy):
    """Migrate the tasks whose estimated completion improves most by moving.

    For each candidate the gain is ``best completion at the source`` minus
    ``backlog-aware WAN delay + best completion at the destination`` — the
    same vectorised quantity ``EET_AWARE_REMOTE`` minimises at arrival,
    re-evaluated mid-queue. Only positive-gain tasks are offered (a move
    that arrives no sooner is pure WAN cost); largest gain first.

    ``min_gain`` (seconds) raises the bar: small predicted gains tend to
    evaporate under estimate error, and every migration still pays the
    link's energy price.
    """

    name = "EET_GAIN"
    description = (
        "evict the tasks whose completion estimate improves most by moving"
    )

    def __init__(self, *, min_gain: float = 0.0) -> None:
        if min_gain < 0:
            raise ConfigurationError(
                f"min_gain must be >= 0, got {min_gain}"
            )
        self.min_gain = min_gain

    def select(self, ctx: MigrationContext) -> list["Task"]:
        scored: list[tuple[float, "Task"]] = []
        for task in ctx.candidates:
            gain = ctx.source_completion(task) - ctx.destination_completion(
                task
            )
            if gain > self.min_gain:
                scored.append((gain, task))
        scored.sort(key=lambda pair: (-pair[0], pair[1].id))
        return [task for _gain, task in scored[: ctx.limit]]
