"""Network topology descriptions for the communication extensions.

E2C's architecture (Fig. 1) is a star: one scheduler node fanning out to all
machines, with one :class:`Link` per machine type (the ``network`` mapping
of :class:`repro.core.config.Scenario`, read by
:func:`repro.net.transfer.transfer_delay`).

The federation layer (:mod:`repro.federation`) generalises the star into
:class:`InterClusterTopology`: per cluster-*pair* WAN links, so offloading a
task from its origin cluster to a remote one pays a transfer delay before the
remote cluster's local policy even sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.errors import ConfigurationError
from ..core.fields import flag, real, record, text
from .crosstraffic import DiurnalTraffic, MmppTraffic, cross_traffic_from_spec

__all__ = ["Link", "InterClusterTopology", "CONTENTION_MODES"]

#: Either cross-traffic spec a WAN link may carry (see crosstraffic.py).
CrossTraffic = DiurnalTraffic | MmppTraffic


#: Contention disciplines a WAN link may run (see :mod:`repro.net.wan`).
CONTENTION_MODES = ("none", "fifo", "ps")


@dataclass(frozen=True)
class Link:
    """One network link: scheduler→machine-type or cluster→cluster (WAN).

    ``latency`` and ``bandwidth`` describe the pipe. The remaining fields
    only matter for inter-cluster (WAN) links used by the federation layer:

    ``contention``
        How concurrent transfers over this link share it. ``"none"``
        (default) keeps the legacy model — every transfer independently
        pays ``latency + size/bandwidth`` and overlapping transfers do not
        interact. ``"fifo"`` serialises transfers one at a time in arrival
        order; ``"ps"`` (processor sharing) divides the bandwidth equally
        among all in-flight transfers. Both queueing disciplines require a
        finite ``bandwidth``. See :class:`repro.net.wan.LinkChannel`.
    ``energy_per_mb``
        Joules consumed per megabyte pushed across the link (NIC + haul
        cost); charged to the link as payload bytes are serialised.
    ``idle_watts`` / ``busy_watts``
        Electrical power the link port draws while idle and while actively
        serialising at least one transfer; integrated over the run into the
        per-link energy report (:class:`repro.net.wan.LinkUsage`).
    ``cross_traffic``
        Optional background-utilisation process
        (:class:`~repro.net.crosstraffic.DiurnalTraffic` or
        :class:`~repro.net.crosstraffic.MmppTraffic`): simulated transfers
        then serve at the time-varying residual capacity
        ``bandwidth * (1 - u(t))``. Requires a queueing discipline
        (``contention`` of ``"fifo"`` or ``"ps"``) — the legacy ``"none"``
        model has no shared pipe for the background load to occupy.
    """

    latency: float = 0.0       # seconds
    bandwidth: float = 0.0     # MB/s; 0 = latency-only link
    contention: str = "none"   # "none" | "fifo" | "ps"
    energy_per_mb: float = 0.0  # J/MB serialised
    idle_watts: float = 0.0
    busy_watts: float = 0.0
    cross_traffic: "CrossTraffic | None" = None

    def __post_init__(self) -> None:
        for key in _NUMERIC_FIELDS:
            real(getattr(self, key), f"link.{key}", lo=0)
        if self.contention not in CONTENTION_MODES:
            raise ConfigurationError(
                f"contention must be one of {CONTENTION_MODES}, "
                f"got {self.contention!r}"
            )
        if self.contention != "none" and self.bandwidth <= 0:
            raise ConfigurationError(
                f"contention {self.contention!r} needs a finite bandwidth; "
                "a latency-only link has no serialisation to contend for"
            )
        if self.cross_traffic is not None and self.contention == "none":
            raise ConfigurationError(
                "cross_traffic needs a queueing discipline (contention "
                "'fifo' or 'ps'): the 'none' model lets transfers overlap "
                "for free, so there is no shared pipe for background "
                "traffic to occupy"
            )

    def delay_for(self, megabytes: float) -> float:
        """Transfer time of a payload over this link (uncontended)."""
        if megabytes < 0:
            raise ConfigurationError(f"payload must be >= 0: {megabytes}")
        if self.bandwidth > 0 and megabytes > 0:
            return self.latency + megabytes / self.bandwidth
        return self.latency

    def service_time(self, megabytes: float) -> float:
        """Serialisation time of a payload: the part transfers contend for."""
        if self.bandwidth > 0 and megabytes > 0:
            return megabytes / self.bandwidth
        return 0.0

    def transfer_energy(self, megabytes: float) -> float:
        """Joules to push a payload across this link (J/MB cost only)."""
        return self.energy_per_mb * megabytes

    @property
    def is_contended(self) -> bool:
        """True when concurrent transfers queue instead of overlapping."""
        return self.contention != "none"

    @property
    def has_energy_model(self) -> bool:
        """True when the link accounts energy (J/MB or electrical power)."""
        return (
            self.energy_per_mb > 0
            or self.idle_watts > 0
            or self.busy_watts > 0
        )

    # -- JSON round-trip ----------------------------------------------------------

    def to_spec(self) -> Any:
        """Compact JSON form: ``[latency, bandwidth]`` for plain links, a
        mapping once contention or energy parameters are set (so legacy
        scenario files round-trip byte-identically)."""
        if self.contention == "none" and not self.has_energy_model:
            return [self.latency, self.bandwidth]
        out: dict[str, Any] = {
            "latency": self.latency,
            "bandwidth": self.bandwidth,
            "contention": self.contention,
        }
        if self.energy_per_mb:
            out["energy_per_mb"] = self.energy_per_mb
        if self.idle_watts:
            out["idle_watts"] = self.idle_watts
        if self.busy_watts:
            out["busy_watts"] = self.busy_watts
        if self.cross_traffic is not None:
            out["cross_traffic"] = self.cross_traffic.to_spec()
        return out

    @classmethod
    def from_spec(cls, spec: Any, path: str = "link") -> "Link":
        """Inverse of :meth:`to_spec` (accepts both forms)."""
        if not isinstance(spec, Mapping):
            if not isinstance(spec, (list, tuple)) or len(spec) != 2:
                raise ConfigurationError(
                    f"{path} must be [latency, bandwidth] or a mapping, got {spec!r}"
                )
            spec = dict(zip(("latency", "bandwidth"), spec))
        spec = record(spec, path, (*_NUMERIC_FIELDS, "contention", "cross_traffic"))
        traffic = spec.pop("cross_traffic", None)
        return cls(
            contention=text(spec.pop("contention", "none"), f"{path}.contention"),
            cross_traffic=(
                None
                if traffic is None
                else cross_traffic_from_spec(traffic, f"{path}.cross_traffic")
            ),
            **{key: real(v, f"{path}.{key}", lo=0) for key, v in spec.items()},
        )


#: Link fields that must be finite, non-negative numbers.
_NUMERIC_FIELDS = (
    "latency", "bandwidth", "energy_per_mb", "idle_watts", "busy_watts"
)


_ZERO_LINK = Link()


@dataclass
class InterClusterTopology:
    """WAN links between named cluster sites (federation extension).

    ``links`` maps directed ``(src, dst)`` cluster-name pairs to
    :class:`Link` parameters; with ``symmetric=True`` (the default) a lookup
    for ``(a, b)`` falls back to ``(b, a)`` before the ``default`` link, so
    one entry per unordered pair suffices. Intra-cluster traffic
    (``src == dst``) is always free — the local dispatch never pays a WAN
    delay.
    """

    links: dict[tuple[str, str], Link] = field(default_factory=dict)
    default: Link = field(default_factory=Link)
    symmetric: bool = True

    def link_between(self, src: str, dst: str) -> Link:
        """Effective link from cluster *src* to cluster *dst*."""
        if src == dst:
            return _ZERO_LINK
        link = self.links.get((src, dst))
        if link is None and self.symmetric:
            link = self.links.get((dst, src))
        return link if link is not None else self.default

    def link_key(self, src: str, dst: str) -> tuple[str, str]:
        """Identity of the *physical* link carrying ``src → dst`` traffic.

        Contention and energy state (:mod:`repro.net.wan`) is tracked per
        physical link, not per direction of traffic: with ``symmetric=True``
        both directions of a cluster pair share one pipe, so this returns
        one canonical key for either direction. Distinct directed entries
        (or an asymmetric topology) keep separate keys — two one-way pipes.
        """
        if (src, dst) in self.links:
            return (src, dst)
        if self.symmetric:
            if (dst, src) in self.links:
                return (dst, src)
            return (src, dst) if src <= dst else (dst, src)
        return (src, dst)

    def set_link(
        self,
        src: str,
        dst: str,
        latency: float,
        bandwidth: float = 0.0,
        *,
        contention: str = "none",
        energy_per_mb: float = 0.0,
        idle_watts: float = 0.0,
        busy_watts: float = 0.0,
        cross_traffic: "CrossTraffic | None" = None,
    ) -> "InterClusterTopology":
        """Set the directed src→dst link, with contention/energy (chainable)."""
        if src == dst:
            raise ConfigurationError(
                f"intra-cluster link {src!r}->{dst!r} is implicit and free"
            )
        self.links[(src, dst)] = Link(
            latency,
            bandwidth,
            contention=contention,
            energy_per_mb=energy_per_mb,
            idle_watts=idle_watts,
            busy_watts=busy_watts,
            cross_traffic=cross_traffic,
        )
        return self

    def wan_delay(self, src: str, dst: str, megabytes: float) -> float:
        """Transfer time of a payload offloaded from *src* to *dst*."""
        if src == dst:
            return 0.0
        return self.link_between(src, dst).delay_for(megabytes)

    # -- JSON round-trip ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (links in the compact or mapping spec form)."""
        return {
            "links": {
                f"{src}->{dst}": link.to_spec()
                for (src, dst), link in sorted(self.links.items())
            },
            "default": self.default.to_spec(),
            "symmetric": self.symmetric,
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], path: str = "topology"
    ) -> "InterClusterTopology":
        data = record(data, path, ("links", "default", "symmetric"))
        links: dict[tuple[str, str], Link] = {}
        for key, value in record(data.get("links", {}), f"{path}.links").items():
            src, sep, dst = key.partition("->")
            if not sep or not src or not dst:
                raise ConfigurationError(
                    f"inter-cluster link key must be 'src->dst', got {key!r}"
                )
            links[(src, dst)] = Link.from_spec(value, f"{path}.links[{key!r}]")
        return cls(
            links=links,
            default=Link.from_spec(
                data.get("default", [0.0, 0.0]), f"{path}.default"
            ),
            symmetric=flag(data.get("symmetric", True), f"{path}.symmetric"),
        )
