"""Flat federations are byte-identical to pre-hierarchy main.

The hierarchy PR generalised shared engine surfaces — ``Event.cluster``
grew tuple paths, ``WanTransfer`` grew a delivery tag, the simulator grew
gateway/WAN construction hooks, ``FederationSpec`` grew nested children —
all of which MUST be invisible to existing flat federations. This wall
proves it: every federated preset's spec JSON, summary metrics and routing
matrix are pinned to sha256 fingerprints captured on main *before* any
hierarchy code landed. A mismatch here means the generalisation leaked
into flat behaviour (changed event ordering, altered WAN accounting,
perturbed spec serialisation) and is a regression, not a re-pin.

The second half pins the ``RANDOM_SPLIT`` gateway on six flat presets:
the full result fingerprint (summaries, per-cluster metrics, event count,
end time, routing, WAN accounting, energy) of each run is pinned to a
sha256, so the gateway's draw stream and the batch pass it feeds stay
byte-identical.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.scenarios import build_scenario


def _sha(obj):
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# sha256 fingerprints of (scenario.to_dict(), summary.as_dict(), routing)
# captured on main at 1645cfe, before the hierarchy changes. Do NOT re-pin
# these to make a failure pass: flat presets changing hash IS the bug.
PRE_HIERARCHY_FINGERPRINTS = {
    "edge_cloud": (
        "eb694cfea17cafd4c81d245252f3de67c6ef40818efb5c742a77d9a6f5db8b33",
        "955410230f24128c8dce81ab714e62a75703f954b0f8ed68d0a1e0ff395a0319",
        "304e6d3945f08808c8cfae3ce27f2fde682bb6be0b2b428979ea9c2811dd12c6",
    ),
    "geo_3site": (
        "2697fceff7243cda33d49b7e9db5ce48ec848dc011479ca92a36b7cbd227654f",
        "34311e4b046d5173c08fed05d232b3d77a8a683967f76b3d6cdd8b8c6e628d31",
        "b4c5c86b053e5a82bc217edfebf05f6ff795891da29e7c295097368a9e282c1f",
    ),
    "fed_heavytail": (
        "ae018cdfb1612b4fcfb120313c3ea4ee7055a578c50dc8eb3ed31d25d2f2f31a",
        "d5f21c57af2b70b58463ca435360ba53e29b43ff1382b4cd628fb4fd30896564",
        "3985a8560d94c2d48e88e1b58b8e5d70ce1b9dadbc38d7297c421a6f303c0557",
    ),
    "fed_congested": (
        "6132c2b821025f7130932d87746fc612a1d8da5c3b41a4a357cce044c08efd63",
        "74dce46f0745899c6de7bbafb1216588742ca6f079fadcc07ab34786d0f76662",
        "f1824e7cf2a07df0b95e65f69f1289ba118fae8b79b144497ab56b208f17968a",
    ),
    "fed_rebalance": (
        "60a0bfb0a3cc23a9dd5722c19faa96d7d1e4c6b434d502aab05676557271bdbe",
        "3cf23fe174425441781ee4560563e1d6daee36fc4ede98da4200616983ede077",
        "e00d66ac8bbc07a7c854b3d80a04da4d49d95c51c9c981f716cbfa8ebda158d8",
    ),
    "fed_adaptive": (
        "7e945eb20e28d49e46fe7225d4249e1d6016bb3de846065224d40cace5310dd5",
        "d3c6091e95afd87578ae9b2d2f26166a7eab4f903064a2272a7e8f585eb454e4",
        "fe8f8aa360ac0bf5959e88f276f11651017047a053a9b2ac90daf3f2c62114f0",
    ),
    "diurnal_wan": (
        "3dbdbce7166c56c42422084678980628d1f0a46c042fdde51fa29d5316ae94ba",
        "5ba49b168ace8586fb38c76c9086da1127ca4eae267723cd4cacbabf3605a0c4",
        "2ea6e3b2f8ecb70fc3ef7b10583c2420ee320f182f4ad80661b5a3b9e810a60c",
    ),
    "scale_federation": (
        "d8afc4f7d73ae1cd0a4d1fd19eef3748ae399e168dfa8c2a6fafe61e2c0ea475",
        "10b0e73bae98bf6334a82d629dfc2ea175705662c1af49a5485e4cb22f93fa40",
        "e749eaea1b8a72281a4257f4b8e22afffacbb98710b18dad2288617864cdaaca",
    ),
}

# Factory overrides matching the pre-PR capture runs (preset defaults,
# except the scale preset which was captured at test-tier size).
_OVERRIDES = {"scale_federation": {"duration": 60.0, "n_clusters": 8}}


@pytest.mark.parametrize("preset", sorted(PRE_HIERARCHY_FINGERPRINTS))
def test_flat_preset_matches_pre_hierarchy_main(preset):
    scenario = build_scenario(preset, **_OVERRIDES.get(preset, {}))
    result = scenario.run()
    got = (
        _sha(scenario.to_dict()),
        _sha(result.summary.as_dict()),
        _sha(result.routing),
    )
    want = PRE_HIERARCHY_FINGERPRINTS[preset]
    assert got == want, (
        f"{preset} diverged from pre-hierarchy main "
        f"(spec/summary/routing): {got} != {want}"
    )


@pytest.mark.parametrize("preset", sorted(PRE_HIERARCHY_FINGERPRINTS))
def test_flat_preset_has_no_tree(preset):
    """Flat results must not grow a rollup: ``tree`` stays ``None``."""
    result = build_scenario(preset, **_OVERRIDES.get(preset, {})).run()
    assert result.tree is None


# (preset, factory overrides) — every flat federated preset run under the
# RANDOM_SPLIT gateway. edge_cloud needs explicit routing weights because
# its cloud site has arrival weight 0; fed_rebalance and fed_adaptive are
# covered by the pre-hierarchy pins above.
FEDERATED_PRESETS = [
    ("edge_cloud", {"gateway": "RANDOM_SPLIT",
                    "gateway_params": {"weights": [0.6, 0.4]}}),
    ("geo_3site", {"gateway": "RANDOM_SPLIT"}),
    ("fed_heavytail", {"gateway": "RANDOM_SPLIT"}),
    ("fed_congested", {"gateway": "RANDOM_SPLIT"}),
    ("diurnal_wan", {"gateway": "RANDOM_SPLIT"}),
    # The federation-scale preset, shrunk to test-tier runtime (8 sites,
    # one simulated minute) — same code paths, ~1/20 the events.
    ("scale_federation", {"duration": 60.0, "n_clusters": 8}),
]

# sha256 of _fingerprint(result) for each FEDERATED_PRESETS run, captured
# before the gateway's cumulative-weight draw and the scalar one-task batch
# pass landed. Do NOT re-pin these to make a failure pass.
RANDOM_SPLIT_FINGERPRINTS = {
    "edge_cloud":
        "cdeaff72a2c6e4143cb921b973f3beb595ddc8704a20c7cc6929f0a9ff6101ef",
    "geo_3site":
        "0629ce7a58b9713dedc365a7c28c3574d5482f3f730983c2e69062e1ed93376f",
    "fed_heavytail":
        "bfd167ac373643f11f1454164d2a931a2758eb428c72709259f75186a9a12953",
    "fed_congested":
        "b2edd3a2166082df40061d1a38425d34f4defcbfbacc790d199f77cdb0f85903",
    "diurnal_wan":
        "52693becce938259b8aacc05df36f4ccf93fd22f7cd8d845562a6e9099720832",
    "scale_federation":
        "a4407f6fda322fbf6bfacf0489e45b175d5bae6c4503f1426be2256a6e383608",
}


def _fingerprint(result):
    return {
        "summary": result.summary.as_dict(),
        "per_cluster": {
            name: s.as_dict() for name, s in result.per_cluster.items()
        },
        "events_processed": result.events_processed,
        "end_time": result.end_time,
        "routing": result.routing,
        "offloaded": result.offloaded,
        "wan_time_total": result.wan_time_total,
        "energy": dataclasses.asdict(result.energy),
        "wan_delivered": {
            name: u.delivered for name, u in result.wan_links.items()
        },
    }


@pytest.mark.parametrize(
    "preset,overrides",
    FEDERATED_PRESETS,
    ids=[name for name, _ in FEDERATED_PRESETS],
)
def test_random_split_preset_matches_pin(preset, overrides):
    result = build_scenario(preset, **overrides).run()
    assert _sha(_fingerprint(result)) == RANDOM_SPLIT_FINGERPRINTS[preset]
