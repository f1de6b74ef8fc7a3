"""Background cross-traffic models for WAN links.

A federated simulation never has the WAN to itself: on a real inter-site
link the simulated offloads and migrations share the pipe with everyone
else's traffic. This module models that *background utilisation* as a
piecewise-constant process ``u(t) ∈ [0, MAX_UTILISATION]`` attached to a
:class:`~repro.net.topology.Link`; the link's
:class:`~repro.net.wan.LinkChannel` then serves simulated transfers at the
**residual capacity** ``bandwidth * (1 - u(t))``, re-integrating in-flight
payloads at every utilisation change.

Two generator families (both deterministic under a seed):

* :class:`DiurnalTraffic` — a sinusoidal day/night cycle
  ``u(t) = base + amplitude * sin(2π (t - phase) / period)``, sampled onto
  piecewise-constant epochs of length ``step``. Needs no randomness: the
  same spec always produces the same utilisation profile.
* :class:`MmppTraffic` — a two-state Markov-modulated process (the classic
  bursty-traffic model): the link alternates between a *quiet* and a
  *burst* utilisation level with exponentially distributed dwell times,
  drawn from a derived-seed RNG so replays are bit-identical.

Specs serialise to plain-JSON mappings (``to_spec`` /
:func:`cross_traffic_from_spec`) and ride on the link's JSON form
backwards-compatibly: links without cross-traffic keep their exact legacy
spec encoding.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import MISSING, dataclass, fields
from typing import Any, Protocol

from ..core.errors import ConfigurationError
from ..core.fields import real, record
from ..core.rng import make_rng

__all__ = [
    "MAX_UTILISATION",
    "CrossTrafficState",
    "DiurnalTraffic",
    "MmppTraffic",
    "cross_traffic_from_spec",
]

#: Hard cap on background utilisation: the residual capacity never drops
#: below 5% of the nominal bandwidth, so every in-flight transfer keeps
#: making progress and serialisation events stay finite.
MAX_UTILISATION = 0.95


class CrossTrafficState(Protocol):
    """Runtime driver of one link's background-utilisation process.

    A state answers two monotone-time queries the
    :class:`~repro.net.wan.LinkChannel` needs: the piecewise-constant
    utilisation in effect at *t*, and the next instant it changes (so the
    channel can schedule a ``CROSS_TRAFFIC`` tick while transfers are in
    flight — an idle link needs no events at all).
    """

    def utilisation_at(self, t: float) -> float:
        """Background utilisation in effect at time *t* (in [0, MAX])."""
        ...

    def next_boundary(self, t: float) -> float:
        """First instant strictly after *t* where the utilisation changes."""
        ...


@dataclass(frozen=True)
class DiurnalTraffic:
    """Sinusoidal day/night background load (deterministic).

    ``u(t) = base + amplitude * sin(2π (t - phase) / period)``, clipped to
    ``[0, MAX_UTILISATION]`` and held constant over epochs of length
    ``step`` (each epoch uses the sinusoid's value at its start). The
    default ``step`` of ``period / 24`` gives one "hour" per simulated
    "day".
    """

    period: float
    base: float = 0.3
    amplitude: float = 0.3
    phase: float = 0.0
    step: float = 0.0  # 0 ⇒ period / 24

    def __post_init__(self) -> None:
        real(self.period, "diurnal period", above=0)
        real(self.base, "diurnal base", lo=0.0, hi=MAX_UTILISATION)
        real(self.amplitude, "diurnal amplitude", lo=0)
        real(self.phase, "diurnal phase")
        real(self.step, "diurnal step", lo=0)

    @property
    def effective_step(self) -> float:
        """Epoch length actually used (``period / 24`` when step is 0)."""
        return self.step if self.step > 0 else self.period / 24.0

    def utilisation(self, t: float) -> float:
        """The continuous sinusoid at *t*, clipped to the legal band."""
        raw = self.base + self.amplitude * math.sin(
            2.0 * math.pi * (t - self.phase) / self.period
        )
        return min(max(raw, 0.0), MAX_UTILISATION)

    # -- CrossTrafficState (the spec is stateless, so it drives itself) ----

    def utilisation_at(self, t: float) -> float:
        step = self.effective_step
        return self.utilisation(math.floor(t / step) * step)

    def next_boundary(self, t: float) -> float:
        step = self.effective_step
        return (math.floor(t / step) + 1) * step

    def make_state(self, seed: int | None) -> "CrossTrafficState":
        """Diurnal traffic needs no randomness; the spec is its own state."""
        return self

    # -- JSON round-trip ---------------------------------------------------

    def to_spec(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": "diurnal",
            "period": self.period,
            "base": self.base,
            "amplitude": self.amplitude,
        }
        if self.phase:
            out["phase"] = self.phase
        if self.step:
            out["step"] = self.step
        return out


@dataclass(frozen=True)
class MmppTraffic:
    """Two-state Markov-modulated (bursty) background load.

    The link alternates between utilisation ``quiet`` and ``burst``;
    dwell times in each state are exponential with means ``mean_quiet``
    and ``mean_burst``. The realised switch times come from a derived-seed
    RNG (see :meth:`make_state`), so the same scenario seed always replays
    the same burst pattern.
    """

    quiet: float = 0.05
    burst: float = 0.7
    mean_quiet: float = 60.0
    mean_burst: float = 15.0

    def __post_init__(self) -> None:
        real(self.quiet, "mmpp quiet", lo=0.0, hi=MAX_UTILISATION)
        real(self.burst, "mmpp burst", lo=0.0, hi=MAX_UTILISATION)
        real(self.mean_quiet, "mmpp mean_quiet", above=0)
        real(self.mean_burst, "mmpp mean_burst", above=0)

    def make_state(self, seed: int | None) -> "CrossTrafficState":
        """A fresh dwell-sequence driver seeded for this link."""
        return _MmppState(self, seed)

    # -- JSON round-trip ---------------------------------------------------

    def to_spec(self) -> dict[str, Any]:
        return {
            "kind": "mmpp",
            "quiet": self.quiet,
            "burst": self.burst,
            "mean_quiet": self.mean_quiet,
            "mean_burst": self.mean_burst,
        }


class _MmppState:
    """Lazily materialised switch-time sequence of one MMPP link.

    Breakpoints are drawn on demand as simulation time advances; a sorted
    list plus binary search keeps arbitrary-time queries exact (gateway
    signal probes are not strictly monotone with event times).
    """

    __slots__ = ("_spec", "_rng", "_times", "_levels")

    def __init__(self, spec: MmppTraffic, seed: int | None) -> None:
        self._spec = spec
        self._rng = make_rng(seed)
        self._times = [0.0]          # state-change instants (sorted)
        self._levels = [spec.quiet]  # utilisation from _times[i] onward

    def _extend_past(self, t: float) -> None:
        spec = self._spec
        while self._times[-1] <= t:
            in_burst = self._levels[-1] == spec.burst
            mean = spec.mean_burst if in_burst else spec.mean_quiet
            dwell = float(self._rng.exponential(mean))
            self._times.append(self._times[-1] + max(dwell, 1e-9))
            self._levels.append(spec.quiet if in_burst else spec.burst)

    def utilisation_at(self, t: float) -> float:
        self._extend_past(t)
        return self._levels[bisect_right(self._times, t) - 1]

    def next_boundary(self, t: float) -> float:
        self._extend_past(t)
        return self._times[bisect_right(self._times, t)]


_KINDS: dict[str, Any] = {
    "diurnal": DiurnalTraffic,
    "mmpp": MmppTraffic,
}


def cross_traffic_from_spec(
    spec: Any, path: str = "cross_traffic"
) -> "DiurnalTraffic | MmppTraffic":
    """Inverse of ``to_spec`` for either cross-traffic family.

    A malformed field fails typed, naming its path (``path.period``).
    """
    if isinstance(spec, (DiurnalTraffic, MmppTraffic)):
        return spec
    data = record(spec, path)
    kind = data.pop("kind", None)
    if kind not in _KINDS:
        raise ConfigurationError(
            f"{path}: unknown cross-traffic kind {kind!r}; "
            f"known: {sorted(_KINDS)}"
        )
    klass = _KINDS[kind]
    params = fields(klass)
    data = record(
        data,
        path,
        [p.name for p in params],
        [p.name for p in params if p.default is MISSING],
    )
    return klass(**{k: real(v, f"{path}.{k}") for k, v in data.items()})
