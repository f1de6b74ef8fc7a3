"""Arrival processes for workload generation.

The E2C workload component lets a user pick, per task type, an arrival
distribution and a duration (paper §3, feature (i): "user-defined workload
generation scenarios with various number of applications and arrival
intensities"). Each process here generates a sorted array of arrival
timestamps within ``[start, end)``.

Implemented processes:

* :class:`PoissonProcess` — exponential inter-arrivals with rate λ; the
  canonical open-system arrival model used by the class assignment.
* :class:`UniformProcess` — inter-arrivals ~ U(low, high).
* :class:`NormalProcess` — inter-arrivals ~ N(mean, std) truncated at a small
  positive floor (a clock can't run backwards).
* :class:`ConstantProcess` — fixed spacing (periodic sensors).
* :class:`BurstyProcess` — on/off bursts: periods of Poisson traffic at a high
  rate separated by silences; stresses batch policies.

All processes share :meth:`ArrivalProcess.generate` and scale under a
multiplicative ``intensity`` factor (>1 means more arrivals per unit time),
which is how the low/medium/high workload intensities of §4 are produced.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigurationError
from ..core.fields import real, record, text
from ..core.rng import make_rng

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "UniformProcess",
    "NormalProcess",
    "ConstantProcess",
    "BurstyProcess",
    "ParetoProcess",
    "arrival_process_from_spec",
]

_MIN_GAP = 1e-9  # positive floor for degenerate inter-arrival draws


class ArrivalProcess(abc.ABC):
    """Generates sorted arrival timestamps in a window."""

    #: registry name used by config files / CLI
    kind: str = ""

    @abc.abstractmethod
    def mean_rate(self) -> float:
        """Expected arrivals per unit time at intensity 1."""

    @abc.abstractmethod
    def _inter_arrivals(
        self, rng: np.random.Generator, n: int, intensity: float
    ) -> np.ndarray:
        """Draw *n* positive inter-arrival gaps at the given intensity."""

    def generate(
        self,
        start: float,
        end: float,
        *,
        rng: np.random.Generator | int | None = None,
        intensity: float = 1.0,
    ) -> np.ndarray:
        """Return sorted arrival times in ``[start, end)``.

        ``intensity`` multiplies the arrival rate: gaps shrink by 1/intensity.
        """
        if end < start:
            raise ConfigurationError(f"arrival window end {end} < start {start}")
        if intensity <= 0:
            raise ConfigurationError(f"intensity must be positive, got {intensity}")
        rng = make_rng(rng)
        window = end - start
        if window == 0:
            return np.empty(0)
        # Draw in growing chunks until the cumulative sum exits the window.
        expected = max(8, int(self.mean_rate() * intensity * window * 1.25) + 8)
        gaps = self._inter_arrivals(rng, expected, intensity)
        times = np.cumsum(gaps)
        while times.size == 0 or times[-1] < window:
            more = self._inter_arrivals(rng, expected, intensity)
            offset = times[-1] if times.size else 0.0
            times = np.concatenate([times, offset + np.cumsum(more)])
        times = times[times < window]
        return start + times

    def spec(self) -> dict:
        """JSON-serialisable description (inverse of arrival_process_from_spec)."""
        out = {"kind": self.kind}
        out.update(
            {
                k: v
                for k, v in vars(self).items()
                if not k.startswith("_")
            }
        )
        return out


@dataclass(eq=True)
class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson process with rate ``rate`` (arrivals / second)."""

    rate: float
    kind = "poisson"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"Poisson rate must be positive, got {self.rate}")

    def mean_rate(self) -> float:
        return self.rate

    def _inter_arrivals(self, rng, n, intensity):
        return rng.exponential(1.0 / (self.rate * intensity), size=n)


@dataclass(eq=True)
class UniformProcess(ArrivalProcess):
    """Inter-arrival gaps uniform on ``[low, high]`` seconds."""

    low: float
    high: float
    kind = "uniform"

    def __post_init__(self) -> None:
        if self.low < 0 or self.high <= 0 or self.high < self.low:
            raise ConfigurationError(
                f"uniform gaps need 0 <= low <= high, high > 0; "
                f"got low={self.low}, high={self.high}"
            )

    def mean_rate(self) -> float:
        return 2.0 / (self.low + self.high)

    def _inter_arrivals(self, rng, n, intensity):
        gaps = rng.uniform(self.low, self.high, size=n) / intensity
        return np.maximum(gaps, _MIN_GAP)


@dataclass(eq=True)
class NormalProcess(ArrivalProcess):
    """Inter-arrival gaps ~ N(mean, std), truncated to stay positive."""

    mean: float
    std: float
    kind = "normal"

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ConfigurationError(f"normal mean gap must be positive: {self.mean}")
        if self.std < 0:
            raise ConfigurationError(f"normal std must be >= 0: {self.std}")

    def mean_rate(self) -> float:
        return 1.0 / self.mean

    def _inter_arrivals(self, rng, n, intensity):
        gaps = rng.normal(self.mean, self.std, size=n) / intensity
        return np.maximum(gaps, _MIN_GAP)


@dataclass(eq=True)
class ConstantProcess(ArrivalProcess):
    """Fixed inter-arrival gap (periodic source)."""

    period: float
    kind = "constant"

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError(f"period must be positive, got {self.period}")

    def mean_rate(self) -> float:
        return 1.0 / self.period

    def _inter_arrivals(self, rng, n, intensity):
        return np.full(n, self.period / intensity)


@dataclass(eq=True)
class BurstyProcess(ArrivalProcess):
    """On/off bursts: Poisson(burst_rate) during bursts, silence between.

    A burst lasts Exp(1/burst_duration); silences last Exp(1/idle_duration).
    Useful for stressing batch policies with alternating saturation/idleness.
    """

    burst_rate: float
    burst_duration: float
    idle_duration: float
    kind = "bursty"

    def __post_init__(self) -> None:
        for attr in ("burst_rate", "burst_duration", "idle_duration"):
            if getattr(self, attr) <= 0:
                raise ConfigurationError(f"{attr} must be positive")

    def mean_rate(self) -> float:
        duty = self.burst_duration / (self.burst_duration + self.idle_duration)
        return self.burst_rate * duty

    def _inter_arrivals(self, rng, n, intensity):
        # Simulate the on/off envelope until we have n arrivals.
        gaps: list[float] = []
        carry = 0.0  # silence accumulated before the next arrival
        while len(gaps) < n:
            burst_len = rng.exponential(self.burst_duration)
            t = 0.0
            while True:
                gap = rng.exponential(1.0 / (self.burst_rate * intensity))
                if t + gap > burst_len:
                    break
                t += gap
                gaps.append(carry + gap)
                carry = 0.0
            carry += (burst_len - t) + rng.exponential(self.idle_duration)
        return np.asarray(gaps[:n])


@dataclass(eq=True)
class ParetoProcess(ArrivalProcess):
    """Heavy-tailed (Lomax / Pareto-II) inter-arrival gaps.

    ``gap = scale x Pareto(shape)`` with mean ``scale / (shape - 1)``; the
    polynomial tail produces dense arrival bursts separated by rare, very
    long silences — the flash-crowd traffic that exercises batch policies
    and large machine populations far harder than Poisson arrivals.
    ``shape`` must exceed 1 for the mean (and hence intensity calibration)
    to exist; shapes just above 1 are extremely bursty, large shapes
    approach a light tail.
    """

    shape: float
    scale: float = 1.0
    kind = "pareto"

    def __post_init__(self) -> None:
        if self.shape <= 1.0:
            raise ConfigurationError(
                f"pareto shape must be > 1 for a finite mean gap, "
                f"got {self.shape}"
            )
        if self.scale <= 0:
            raise ConfigurationError(
                f"pareto scale must be positive, got {self.scale}"
            )

    def mean_rate(self) -> float:
        return (self.shape - 1.0) / self.scale

    def _inter_arrivals(self, rng, n, intensity):
        gaps = self.scale * rng.pareto(self.shape, size=n) / intensity
        return np.maximum(gaps, _MIN_GAP)


_PROCESS_KINDS: dict[str, type[ArrivalProcess]] = {
    "poisson": PoissonProcess,
    "exponential": PoissonProcess,  # alias: exponential inter-arrivals
    "uniform": UniformProcess,
    "normal": NormalProcess,
    "constant": ConstantProcess,
    "bursty": BurstyProcess,
    "pareto": ParetoProcess,
    "heavytail": ParetoProcess,  # alias: heavy-tailed inter-arrivals
}


def arrival_process_from_spec(spec: dict) -> ArrivalProcess:
    """Build an arrival process from a JSON-style spec dict.

    Example: ``{"kind": "poisson", "rate": 2.5}``.
    """
    kwargs = record(spec, "arrival", required=("kind",))
    kind = text(kwargs.pop("kind"), "arrival.kind").lower()
    kwargs = {name: real(value, f"arrival.{name}") for name, value in kwargs.items()}
    if kind not in _PROCESS_KINDS:
        raise ConfigurationError(
            f"unknown arrival kind {kind!r}; available: {sorted(_PROCESS_KINDS)}"
        )
    try:
        return _PROCESS_KINDS[kind](**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad arrival spec {spec}: {exc}") from exc
