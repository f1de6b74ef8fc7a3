"""Adaptive (bandit) gateway: learn keep-vs-offload per destination online.

The stock gateways (:mod:`.policies`) are *model-based*: they act on an
instantaneous signal — pressure, estimated completion, WAN backlog — and
never find out whether the routed task actually met its deadline. Under
batch scheduling that signal is systematically wrong: a cluster's
``min_completion_time`` ignores its batch queue, so a saturated site keeps
looking attractive long after it stopped finishing anything on time.

:class:`AdaptiveGateway` closes the loop. It treats every
``(origin, task type, destination)`` triple as one bandit arm, routes by
epsilon-greedy or UCB1 over the arms' observed mean rewards, and is paid
when the federation records the task's terminal state: a deadline hit earns
a latency-shaped reward in ``(0, 1]``, a miss or cancellation earns ``0``.
The policy therefore learns, per task type, which cluster *actually*
finishes work on time — including every queueing and WAN effect the
analytic gateways cannot see.

Determinism: exploration draws come from the policy's own generator, seeded
via :func:`repro.core.rng.derive_seed` from the ``seed`` constructor
parameter and re-derived on every :meth:`reset`. Decisions are therefore a
pure function of (configuration, observed outcome history) — the property
the bandit regression suite pins bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from ...core.errors import ConfigurationError
from ...core.rng import derive_seed, make_rng
from .base import GatewayContext, GatewayPolicy
from .registry import register_gateway

if TYPE_CHECKING:  # pragma: no cover
    from ...tasks.task import Task

__all__ = ["AdaptiveGateway", "ArmStats"]

#: One bandit arm: (origin cluster, task type name, destination cluster).
ArmKey = tuple[int, str, int]

_STRATEGIES = ("epsilon", "ucb")


@dataclass
class ArmStats:
    """Running reward account of one ``(origin, type, destination)`` arm."""

    count: int = 0
    total_reward: float = 0.0

    @property
    def mean(self) -> float:
        """Average observed reward (0 before the first outcome)."""
        return self.total_reward / self.count if self.count else 0.0


@register_gateway(aliases=("BANDIT",))
class AdaptiveGateway(GatewayPolicy):
    """Bandit over keep-vs-offload arms, rewarded by observed outcomes.

    Parameters
    ----------
    strategy:
        ``"epsilon"`` (epsilon-greedy) or ``"ucb"`` (UCB1).
    epsilon:
        Exploration probability of the epsilon-greedy strategy (in [0, 1]).
    ucb_c:
        Exploration width of the UCB strategy (>= 0; 0 degrades to pure
        greedy exploitation).
    latency_scale:
        Response-time scale (seconds, > 0) of the reward shaping: an
        on-time completion earns ``1 / (1 + response / latency_scale)``,
        so faster completions earn more and the scale sets how quickly the
        bonus decays.
    seed:
        Root of the policy's private exploration stream (non-negative).
        Exploration draws come from ``derive_seed(seed, "gateway",
        "adaptive")``, re-derived on every :meth:`reset`.

    Untried arms are played first, in destination-index order, so every
    destination gets at least one observation per context before any
    value comparison happens.
    """

    name = "ADAPTIVE"
    description = (
        "bandit over keep-vs-offload arms (epsilon-greedy/UCB), rewarded "
        "by observed completions and deadline hits"
    )
    wants_feedback: ClassVar[bool] = True

    def __init__(
        self,
        *,
        strategy: str = "epsilon",
        epsilon: float = 0.1,
        ucb_c: float = 0.5,
        latency_scale: float = 20.0,
        seed: int = 0,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
            )
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError(
                f"epsilon must be in [0, 1], got {epsilon}"
            )
        if ucb_c < 0:
            raise ConfigurationError(f"ucb_c must be >= 0, got {ucb_c}")
        if not latency_scale > 0:
            raise ConfigurationError(
                f"latency_scale must be > 0, got {latency_scale}"
            )
        if seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {seed}")
        self.strategy = strategy
        self.epsilon = epsilon
        self.ucb_c = ucb_c
        self.latency_scale = latency_scale
        self.seed = seed
        self._rng: np.random.Generator
        self._arms: dict[ArmKey, ArmStats]
        self._pending: dict[int, ArmKey]
        self._ledger: list[tuple[int, ArmKey, float]]
        self._decisions: int
        self.reset()

    def reset(self) -> None:
        """Forget everything learned and re-derive the exploration stream."""
        self._rng = make_rng(derive_seed(self.seed, "gateway", "adaptive"))
        self._arms = {}
        self._pending = {}
        self._ledger = []
        self._decisions = 0

    # -- routing ------------------------------------------------------------------

    def choose_cluster(self, ctx: GatewayContext) -> int:
        task = ctx.task
        n = len(ctx.shards)
        origin = ctx.origin
        context = (origin, task.task_type.name)
        destination = 0 if n == 1 else self._pick(context, n)
        self._decisions += 1
        self._pending[task.id] = (context[0], context[1], destination)
        return destination

    def _pick(self, context: tuple[int, str], n: int) -> int:
        origin, task_type = context
        arms = [self._arms.get((origin, task_type, d)) for d in range(n)]
        untried = [
            d for d, stats in enumerate(arms) if stats is None or not stats.count
        ]
        if untried:
            # Deterministic coverage: every destination is observed once
            # per context before any exploit/explore comparison.
            return untried[0]
        if self.strategy == "epsilon":
            if self.epsilon and self._rng.random() < self.epsilon:
                return int(self._rng.integers(n))
            return self._argmax(
                origin, [stats.mean for stats in arms if stats is not None]
            )
        total = sum(stats.count for stats in arms if stats is not None)
        log_total = math.log(total)
        return self._argmax(
            origin,
            [
                stats.mean + self.ucb_c * math.sqrt(log_total / stats.count)
                for stats in arms
                if stats is not None
            ],
        )

    @staticmethod
    def _argmax(origin: int, scores: list[float]) -> int:
        """Highest score; exact ties keep the task home, then lowest index."""
        best, best_score = origin, scores[origin]
        for destination, score in enumerate(scores):
            if score > best_score:
                best, best_score = destination, score
        return best

    # -- the reward loop ----------------------------------------------------------

    def record_outcome(self, task: "Task", now: float) -> None:
        """Credit a terminal task's outcome to the arm that routed it.

        Fired by the federated simulator for every terminal task when the
        policy wants feedback; tasks this policy never routed (none, in a
        normal run) are ignored. Migrated tasks are credited to the arm of
        the *original* routing decision — the bandit learns what its own
        choice led to, rebalancer included.
        """
        key = self._pending.pop(task.id, None)
        if key is None:
            return
        reward = self._reward(task)
        stats = self._arms.get(key)
        if stats is None:
            stats = self._arms[key] = ArmStats()
        stats.count += 1
        stats.total_reward += reward
        self._ledger.append((task.id, key, reward))

    def _reward(self, task: "Task") -> float:
        from ...tasks.task import TaskStatus

        completion = task.completion_time
        if (
            task.status is not TaskStatus.COMPLETED
            or completion is None
            or completion > task.deadline
        ):
            return 0.0
        response = completion - task.arrival_time
        return 1.0 / (1.0 + response / self.latency_scale)

    # -- introspection (tests, docs, the tournament report) -----------------------

    @property
    def decisions(self) -> int:
        """Routing decisions made since the last :meth:`reset`."""
        return self._decisions

    @property
    def rewards_recorded(self) -> int:
        """Terminal outcomes credited to an arm since the last reset."""
        return len(self._ledger)

    @property
    def pending(self) -> int:
        """Decisions still awaiting their terminal outcome."""
        return len(self._pending)

    def arm_stats(self) -> dict[ArmKey, tuple[int, float]]:
        """``(count, total reward)`` per arm, in sorted arm-key order."""
        return {
            key: (stats.count, stats.total_reward)
            for key, stats in sorted(self._arms.items())
        }

    def ledger(self) -> list[tuple[int, ArmKey, float]]:
        """``(task id, arm, reward)`` per credited outcome, in credit order."""
        return list(self._ledger)
