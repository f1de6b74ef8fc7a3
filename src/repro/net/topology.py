"""Network topology descriptions for the communication extensions.

E2C's architecture (Fig. 1) is a star: one scheduler node fanning out to all
machines. :class:`StarTopology` is the declarative description — per
machine-type link latency and bandwidth — that plugs into
:meth:`repro.core.config.Scenario` (its ``network`` field) and feeds
:func:`repro.net.transfer.transfer_delay`.

The federation layer (:mod:`repro.federation`) generalises the star into
:class:`InterClusterTopology`: per cluster-*pair* WAN links, so offloading a
task from its origin cluster to a remote one pays a transfer delay before the
remote cluster's local policy even sees it. A star is the special case where
every pair routes through one hub (:meth:`InterClusterTopology.from_star`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Any, Iterable, Mapping

from ..core.errors import ConfigurationError
from .crosstraffic import DiurnalTraffic, MmppTraffic, cross_traffic_from_spec

__all__ = ["Link", "StarTopology", "InterClusterTopology", "CONTENTION_MODES"]

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
            value = getattr(self, key)
            if not (_is_number(value) and math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"link {key} must be a finite number >= 0, got {value!r}"
                )
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

    _SPEC_KEYS = frozenset(
        ("latency", "bandwidth", "contention", "energy_per_mb",
         "idle_watts", "busy_watts", "cross_traffic")
    )

    @classmethod
    def from_spec(cls, spec: Any) -> "Link":
        """Inverse of :meth:`to_spec` (accepts both forms)."""
        if isinstance(spec, Mapping):
            unknown = set(spec) - cls._SPEC_KEYS
            if unknown:
                raise ConfigurationError(
                    f"unknown link spec key(s) {sorted(unknown)}; "
                    f"allowed: {sorted(cls._SPEC_KEYS)}"
                )
            raw_traffic = spec.get("cross_traffic")
            return cls(
                contention=str(spec.get("contention", "none")),
                cross_traffic=(
                    None
                    if raw_traffic is None
                    else cross_traffic_from_spec(raw_traffic)
                ),
                **{
                    key: _spec_number(spec.get(key, 0.0), key)
                    for key in _NUMERIC_FIELDS
                },
            )
        if not isinstance(spec, (list, tuple)) or len(spec) != 2:
            raise ConfigurationError(
                "link spec must be [latency, bandwidth] or a mapping, "
                f"got {spec!r}"
            )
        return cls(
            _spec_number(spec[0], "latency"), _spec_number(spec[1], "bandwidth")
        )


#: Link fields that must be finite, non-negative numbers.
_NUMERIC_FIELDS = (
    "latency", "bandwidth", "energy_per_mb", "idle_watts", "busy_watts"
)


def _is_number(value: Any) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _spec_number(value: Any, key: str) -> float:
    """One numeric link-spec field as a float, or a ConfigurationError."""
    if not _is_number(value):
        raise ConfigurationError(f"link {key} must be a number, got {value!r}")
    return float(value)


@dataclass
class StarTopology:
    """Scheduler-to-machines star with per-machine-type links."""

    links: dict[str, Link] = field(default_factory=dict)
    default: Link = field(default_factory=Link)

    def link_for(self, machine_type_name: str) -> Link:
        """Effective link toward one machine type (falls back to default)."""
        return self.links.get(machine_type_name, self.default)

    def set_link(
        self, machine_type_name: str, latency: float, bandwidth: float = 0.0
    ) -> "StarTopology":
        """Set the link toward one machine type (chainable)."""
        self.links[machine_type_name] = Link(latency, bandwidth)
        return self

    def as_scenario_network(
        self, machine_type_names: Iterable[str] | None = None
    ) -> dict[str, tuple[float, float]]:
        """The ``network=`` mapping a Scenario expects.

        Pass *machine_type_names* (the EET columns) to materialise an entry
        for **every** machine type, explicit or defaulted — a round-trip
        through :class:`~repro.core.config.Scenario` only preserves the
        entries of this mapping, so machine types that silently fell back to
        ``self.default`` would otherwise come back with a zero link.
        Without the names, a non-trivial default cannot be exported and this
        raises instead of silently dropping it.
        """
        if machine_type_names is not None:
            names = list(dict.fromkeys(machine_type_names))
            out = {
                name: (link.latency, link.bandwidth)
                for name, link in self.links.items()
            }
            for name in names:
                link = self.link_for(name)
                out.setdefault(name, (link.latency, link.bandwidth))
            return out
        if self.default.latency > 0 or self.default.bandwidth > 0:
            raise ConfigurationError(
                "StarTopology has a non-trivial default link; pass "
                "machine_type_names to as_scenario_network() so machine "
                "types without an explicit link keep the default instead "
                "of dropping to a zero link"
            )
        return {
            name: (link.latency, link.bandwidth)
            for name, link in self.links.items()
        }

    @classmethod
    def uniform(
        cls,
        machine_type_names: Mapping[str, object] | list[str],
        latency: float,
        bandwidth: float = 0.0,
    ) -> "StarTopology":
        """Same link characteristics toward every machine type."""
        names = list(machine_type_names)
        topo = cls()
        for name in names:
            topo.set_link(str(name), latency, bandwidth)
        return topo


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

    @classmethod
    def uniform(
        cls,
        cluster_names: Iterable[str],
        latency: float,
        bandwidth: float = 0.0,
        *,
        contention: str = "none",
        energy_per_mb: float = 0.0,
        idle_watts: float = 0.0,
        busy_watts: float = 0.0,
        cross_traffic: "CrossTraffic | None" = None,
    ) -> "InterClusterTopology":
        """Same WAN characteristics between every pair of clusters.

        Expressed purely through the ``default`` link — ``link_between``
        already falls back to it for every pair, so no per-pair entries are
        materialised (or serialised). ``cluster_names`` is accepted for
        symmetry with :meth:`StarTopology.uniform` but only documents intent.
        Each cluster pair still gets its *own* contention/energy state
        (falling back to one shared parameter set is not one shared pipe).
        """
        return cls(
            default=Link(
                latency,
                bandwidth,
                contention=contention,
                energy_per_mb=energy_per_mb,
                idle_watts=idle_watts,
                busy_watts=busy_watts,
                cross_traffic=cross_traffic,
            )
        )

    @classmethod
    def from_star(
        cls, star: StarTopology, cluster_names: Iterable[str], hub: str
    ) -> "InterClusterTopology":
        """Lift a scheduler-centric star into a cluster-pair topology.

        Every cluster keeps the link it had toward the star hub; traffic
        between two non-hub clusters pays both spoke links in sequence,
        approximated here as the sum of latencies over the minimum
        bandwidth (the bottleneck spoke).
        """
        names = [str(n) for n in cluster_names]
        topo = cls(default=star.default)
        for name in names:
            if name == hub:
                continue
            spoke = star.link_for(name)
            topo.set_link(hub, name, spoke.latency, spoke.bandwidth)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if hub in (a, b):
                    continue
                la, lb = star.link_for(a), star.link_for(b)
                bandwidths = [x for x in (la.bandwidth, lb.bandwidth) if x > 0]
                topo.set_link(
                    a,
                    b,
                    la.latency + lb.latency,
                    min(bandwidths) if bandwidths else 0.0,
                )
        return topo

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
    def from_dict(cls, data: Mapping[str, Any]) -> "InterClusterTopology":
        links: dict[tuple[str, str], Link] = {}
        for key, value in dict(data.get("links", {})).items():
            src, sep, dst = str(key).partition("->")
            if not sep or not src or not dst:
                raise ConfigurationError(
                    f"inter-cluster link key must be 'src->dst', got {key!r}"
                )
            links[(src, dst)] = Link.from_spec(value)
        return cls(
            links=links,
            default=Link.from_spec(data.get("default", [0.0, 0.0])),
            symmetric=bool(data.get("symmetric", True)),
        )
