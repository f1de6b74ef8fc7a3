"""Execution-time models: how realised runtimes relate to the EET.

The EET matrix holds *expected* execution times. By default the simulator
realises exactly the expectation (deterministic model — what the original E2C
does). For robustness studies the runtime can be made stochastic while keeping
the EET as its mean:

* :class:`DeterministicExecution` — runtime = EET.
* :class:`LognormalExecution` — runtime = EET × LogNormal(μ, σ) with the
  multiplier normalised to mean 1 (μ = −σ²/2).
* :class:`GammaExecution` — runtime ~ Gamma with mean EET and a chosen
  coefficient of variation.
"""

from __future__ import annotations

import abc

import numpy as np

from ..core.errors import ConfigurationError
from ..core.fields import real, record, text
from ..tasks.task import Task

__all__ = [
    "ExecutionTimeModel",
    "DeterministicExecution",
    "LognormalExecution",
    "GammaExecution",
    "execution_model_from_spec",
]


class ExecutionTimeModel(abc.ABC):
    """Maps (task, expected EET) to a realised runtime."""

    kind: str = ""

    @abc.abstractmethod
    def sample(
        self, task: Task, eet: float, rng: np.random.Generator
    ) -> float:
        """Realised runtime (> 0) for a task whose expected time is *eet*."""

    def spec(self) -> dict:
        out = {"kind": self.kind}
        out.update({k: v for k, v in vars(self).items() if not k.startswith("_")})
        return out


class DeterministicExecution(ExecutionTimeModel):
    """Runtime equals the EET exactly (original E2C behaviour)."""

    kind = "deterministic"

    def sample(self, task: Task, eet: float, rng: np.random.Generator) -> float:
        return eet


class LognormalExecution(ExecutionTimeModel):
    """Runtime = EET × LogNormal multiplier with unit mean."""

    kind = "lognormal"

    def __init__(self, sigma: float = 0.25) -> None:
        self.sigma = real(sigma, "execution_model.sigma", lo=0)

    def sample(self, task: Task, eet: float, rng: np.random.Generator) -> float:
        if self.sigma == 0:
            return eet
        mu = -0.5 * self.sigma**2  # E[LogNormal(mu, sigma)] == 1
        return float(eet * rng.lognormal(mu, self.sigma))


class GammaExecution(ExecutionTimeModel):
    """Runtime ~ Gamma(mean = EET, CoV = cov)."""

    kind = "gamma"

    def __init__(self, cov: float = 0.25) -> None:
        self.cov = real(cov, "execution_model.cov", lo=0)

    def sample(self, task: Task, eet: float, rng: np.random.Generator) -> float:
        if self.cov == 0:
            return eet
        shape = 1.0 / self.cov**2
        scale = eet * self.cov**2
        value = float(rng.gamma(shape, scale))
        return max(value, 1e-12)


_MODELS = {
    "deterministic": DeterministicExecution,
    "lognormal": LognormalExecution,
    "gamma": GammaExecution,
}


def execution_model_from_spec(spec: dict | None) -> ExecutionTimeModel:
    """Build an execution model from a JSON-style spec (None ⇒ deterministic)."""
    if spec is None:
        return DeterministicExecution()
    kwargs = record(spec, "execution_model")
    kind = text(kwargs.pop("kind", "deterministic"), "execution_model.kind").lower()
    if kind not in _MODELS:
        raise ConfigurationError(
            f"unknown execution model {kind!r}; available: {sorted(_MODELS)}"
        )
    try:
        return _MODELS[kind](**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad execution model spec {spec}: {exc}") from exc
