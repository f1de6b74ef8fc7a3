"""Canonical scenario/campaign hashing: one key per simulation, ever.

The engine is deterministic — a fully-specified scenario (or campaign) plus
its seed determines every event, and therefore every summary metric, bit for
bit. That makes identical submissions safely cacheable, *if* "identical" is
decided on the semantics of a spec rather than its surface syntax. This
module owns that decision:

1. **Normalisation**: a submitted spec is round-tripped through its
   dataclass (``Scenario.from_dict(...).to_dict()`` /
   ``CampaignSpec.from_dict(...).to_dict()``). The round-trip fills elided
   default fields, resolves scheduler-name aliases and preset references,
   and emits one stable field set — so ``{"seeds": [0]}`` elided or spelled
   out, ``"mect"`` or ``"MECT"``, a preset reference or its expanded JSON
   all normalise to the same document.
2. **Canonical JSON**: the normalised document is serialised with sorted
   keys, compact separators and folded numerics (``2.0`` and ``2`` are the
   same quantity to the engine, so they are the same bytes here). Key order
   and whitespace cannot perturb the digest.
3. **Cosmetic stripping**: fields that never reach the engine — a
   scenario's display ``name``, a campaign's ``name`` and report ``metrics``
   list — are dropped before hashing, so a renamed copy of a cached
   campaign still hits.

``request_key`` is the entry point the service uses: it classifies a raw
submission (scenario JSON, ``{"preset": ...}`` reference, or campaign JSON),
normalises it, and returns ``(kind, normalised_spec, sha256-hex-key)``.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Mapping

from ..core.errors import ConfigurationError, ServiceError

__all__ = [
    "canonical_json",
    "canonical_dumps",
    "canonical_hash",
    "normalize_request",
    "request_key",
]

#: Spec fields that never influence the engine, per request kind.
COSMETIC_FIELDS: dict[str, tuple[str, ...]] = {
    "scenario": ("name",),
    "campaign": ("name", "metrics"),
}


def canonical_json(value: Any) -> Any:
    """Structurally normalised copy of *value* (dicts sorted, numbers folded).

    * mappings come back as plain dicts with keys sorted (and coerced to
      ``str``, as JSON would),
    * lists and tuples come back as lists,
    * floats that are exactly integral fold to ``int`` (``2.0`` → ``2``) so
      int-vs-float spellings of the same quantity hash identically,
    * non-finite floats are rejected — a spec containing NaN/inf is not a
      reproducible artifact.
    """
    if isinstance(value, Mapping):
        return {
            str(k): canonical_json(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [canonical_json(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigurationError(
                f"cannot canonicalise non-finite number {value!r}"
            )
        if value.is_integer():
            return int(value)
        return value
    raise ConfigurationError(
        f"cannot canonicalise {type(value).__name__} value {value!r}"
    )


def canonical_dumps(value: Any) -> str:
    """The canonical byte form: normalised, sorted, compact JSON."""
    return json.dumps(
        canonical_json(value),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def canonical_hash(value: Any) -> str:
    """SHA-256 hex digest of the canonical byte form of *value*."""
    return hashlib.sha256(canonical_dumps(value).encode("utf-8")).hexdigest()


def _strip_cosmetic(kind: str, spec: Mapping[str, Any]) -> dict[str, Any]:
    drop = COSMETIC_FIELDS.get(kind, ())
    return {k: v for k, v in spec.items() if k not in drop}


def normalize_request(data: Mapping[str, Any]) -> tuple[str, dict[str, Any]]:
    """Classify and normalise one submission document.

    Accepted forms:

    * a scenario JSON object (has an ``"eet"`` key) — the
      :meth:`Scenario.to_dict` shape,
    * a preset reference ``{"preset": name, "overrides": {...}}`` — resolved
      through the scenario registry and its recipe checked as
      :meth:`Scenario.from_dict` checks it, so a preset submission and its
      expanded JSON share one cache entry,
    * a campaign JSON object (has ``"scenarios"`` and ``"schedulers"``) —
      the :meth:`CampaignSpec.to_dict` shape.

    Returns ``(kind, normalised_spec)`` where *kind* is ``"scenario"`` or
    ``"campaign"`` and the spec is the full round-tripped dict form.
    """
    if not isinstance(data, Mapping):
        raise ServiceError(
            f"a submission must be a JSON object, got {type(data).__name__}"
        )
    if "preset" in data:
        from ..scenarios import build_scenario

        unknown = set(data) - {"preset", "overrides"}
        if unknown:
            raise ServiceError(
                f"preset submission has unknown key(s) {sorted(unknown)}; "
                "expected {'preset', 'overrides'}"
            )
        try:
            scenario = build_scenario(
                str(data["preset"]), **dict(data.get("overrides", {}))
            )
        except TypeError as exc:
            raise ServiceError(
                f"preset {data['preset']!r} does not accept these "
                f"overrides: {exc}"
            ) from exc
        scenario.check_recipe()
        return "scenario", scenario.to_dict()
    if "eet" in data:
        from ..core.config import Scenario

        return "scenario", Scenario.from_dict(data).to_dict()
    if "scenarios" in data and "schedulers" in data:
        from ..experiments import CampaignSpec

        return "campaign", CampaignSpec.from_dict(data).to_dict()
    raise ServiceError(
        "cannot classify submission: expected a scenario object (with "
        "'eet'), a preset reference (with 'preset'), or a campaign spec "
        f"(with 'scenarios' and 'schedulers'); got keys {sorted(data)}"
    )


def request_key(data: Mapping[str, Any]) -> tuple[str, dict[str, Any], str]:
    """Normalise a submission and derive its content-address.

    Returns ``(kind, normalised_spec, key)``. Two submissions get the same
    *key* exactly when the engine would produce identical results for them.
    """
    kind, spec = normalize_request(data)
    key = canonical_hash({"kind": kind, "spec": _strip_cosmetic(kind, spec)})
    return kind, spec, key
