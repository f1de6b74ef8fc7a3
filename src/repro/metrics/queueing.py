"""Closed-form queueing results for validating the simulator.

A DES engine that claims to teach queueing behaviour should agree with
queueing theory where theory has answers. These are the standard single-queue
formulas used by the validation suite
(``tests/integration/test_queueing_validation.py``):

* M/M/1 — Poisson arrivals (rate λ), exponential service (rate μ):
  mean wait in queue  Wq = λ / (μ (μ − λ)).
* M/D/1 — deterministic service time S (a machine running a single task type
  with an exact EET): Wq = ρ S / (2 (1 − ρ)).
* M/G/1 (Pollaczek–Khinchine) — general service with E[S], E[S²]:
  Wq = λ E[S²] / (2 (1 − ρ)). The two cases above are specialisations.

All require ρ = λ E[S] < 1 (a stable queue).
"""

from __future__ import annotations

from ..core.errors import ConfigurationError

__all__ = [
    "utilization",
    "mg1_mean_wait",
    "md1_mean_wait",
    "mm1_mean_wait",
]


def _check_stability(rho: float) -> None:
    if rho >= 1.0:
        raise ConfigurationError(
            f"queue is unstable (ρ = {rho:.3f} >= 1); closed forms diverge"
        )
    if rho < 0:
        raise ConfigurationError(f"negative utilisation ρ = {rho}")


def utilization(arrival_rate: float, mean_service: float) -> float:
    """ρ = λ · E[S]."""
    if arrival_rate <= 0 or mean_service <= 0:
        raise ConfigurationError("rates and service times must be positive")
    return arrival_rate * mean_service


def mg1_mean_wait(
    arrival_rate: float, mean_service: float, second_moment: float
) -> float:
    """Pollaczek–Khinchine mean waiting time in queue for M/G/1."""
    if second_moment < mean_service**2:
        raise ConfigurationError(
            "E[S²] cannot be below E[S]² (variance would be negative)"
        )
    rho = utilization(arrival_rate, mean_service)
    _check_stability(rho)
    return arrival_rate * second_moment / (2.0 * (1.0 - rho))


def md1_mean_wait(arrival_rate: float, service_time: float) -> float:
    """Mean waiting time in queue for M/D/1 (deterministic service)."""
    return mg1_mean_wait(arrival_rate, service_time, service_time**2)


def mm1_mean_wait(arrival_rate: float, mean_service: float) -> float:
    """Mean waiting time in queue for M/M/1 (exponential service)."""
    # E[S²] of Exp(mean m) is 2 m².
    return mg1_mean_wait(arrival_rate, mean_service, 2.0 * mean_service**2)

