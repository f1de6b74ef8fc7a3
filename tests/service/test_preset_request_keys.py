"""The service cache key of every registered preset, pinned.

``request_key`` content-addresses the spool's cache and journal. A loader
change that moved any of these digests would silently orphan every cached
result and journal entry, so each preset's JSON round-trip is pinned here.
"""

import json

import pytest

from repro.scenarios import available_scenarios, build_scenario
from repro.service import request_key

PRESET_REQUEST_KEYS = {
    "classroom_homogeneous": "a32458163b99cd616afa8d855d69956e8a5d6cffb69b574710cfa4cfa6527482",
    "diurnal_wan": "88e74205bda5a4234a98d0e3e5a1181eb2a606e18bfb6301688864acdc5eaac1",
    "edge_ai": "592d495bb5bb4648b9dd04f8a3219cb1c6b3de25d98245b38d7d03452fe51c2c",
    "edge_cloud": "8b12921d0c672e8731cc8cd1249c7e9f775a5c329f51bcf106f769396704423a",
    "fed_adaptive": "7bd4ed2f3298686b3eb68dfa9d35014b18316180190880d6f9d4ebcf4a93b532",
    "fed_congested": "085a6c3137cb98cd6b357c25a93a79985e7da389fbdae7b32e028b98c09a738d",
    "fed_heavytail": "9d84218e69831f548d2bcff13be8749ef6654d304e91439340734ea8fe47ebf9",
    "fed_rebalance": "273f5456f651b210daf9eaccd6d9ed2624fe05c81f0f07488b751ccbb3bb1bbb",
    "geo_3site": "594b7a8465b64fa2e2caaf9a745edb7ca3b2b7c23e669beb2066e3aa0518dbe0",
    "hier_3region": "751fa90bba0b8bfc6438879b5fe2a89f7592842d97954814cd24edc34802ac6d",
    "hier_deep": "caa662a9fe8aa3e950bdcba32b4d5498a59b1e052018f6968481832fb4f23179",
    "satellite_imaging": "911a5722a7f999fcbd8e3d7add066a7eacea8718f8ea854fc986fad3ea0b884a",
    "scale_campus": "f0492a4dda82272bbae614c12c390d1ba6ce11302656764d80e56b0a0b521e7c",
    "scale_datacenter": "994b1efb03d1a93dc9102dac48a3fe96c7bce89d5e7557c39b25e313e9f5153f",
    "scale_federation": "27abc574cbd68abafe894ec2afe7e89c20461b494ca3f23e751e3a2490b0abc3",
    "scale_heavytail": "917a76abcc9af26213c60b5d896b860f258615845d364af3e69f294d6b5f020c",
    "trace_replay": "478aec3b9330652e3126f83afc116c4be6ce774d7194b1d64567e3106d74302f",
}


def test_every_preset_is_pinned():
    assert sorted(PRESET_REQUEST_KEYS) == available_scenarios()


@pytest.mark.parametrize("preset", sorted(PRESET_REQUEST_KEYS))
def test_json_round_trip_keeps_request_key(preset):
    document = json.loads(json.dumps(build_scenario(preset).to_dict()))
    assert request_key(document)[2] == PRESET_REQUEST_KEYS[preset]



#: Keys of preset overrides that reach each shared preset model through a
#: non-default path (contention, migration off and as a dict, gateway
#: defaults, cross-traffic, Pareto shape, federation size).
OVERRIDE_REQUEST_KEYS = [
    ("edge_cloud", {"wan_contention": "fifo", "wan_energy_per_mb": 0.2},
     "6468f7e81adc32f19611c347baad3e868232831fd1bcbd9adb96a77b75e0816d"),
    ("fed_rebalance", {"migration": None},
     "29f5889ab5dfbe02e13d45ad90b0c4467dd9536963d0f2919543da0c8fcb43dd"),
    ("fed_rebalance", {"migration": {"policy": "EET_GAIN", "interval": 2.0}},
     "7a9c9f415284781fd0673179135e35937d24177b32a3105f66843427b1197710"),
    ("fed_adaptive", {"gateway": "LOCALITY_FIRST"},
     "acaab363e9d8f9f13eea9f9fa177328869ace7854dece517ce635a735f50abb6"),
    ("fed_adaptive", {"gateway": "bandit", "gateway_params": {"strategy": "epsilon"}},
     "73bde33f51901995705e77be67c4c040659055b8d025e5675443e05d71dd854e"),
    ("fed_congested", {"uplink_bandwidth": 4.0},
     "eebc51be44cd854604d6895f48ae2f1ec10090dee1b201c6878b70c23985909d"),
    ("diurnal_wan", {"period": 60.0},
     "3d26b265ea22670aac9df169e54646a1a7878953ee440836dcbdfd7285e24c09"),
    ("fed_heavytail", {"shape": 1.3, "machines_per_type": 3},
     "ba50cf88d11ace26f4991f9a8e978457f3fd478f73fb35a3221bf2f2587af58c"),
    ("scale_heavytail", {"shape": 1.3},
     "9b3c917d5439ed9b2074ce1b95e8ee26c03c53e3ca85a57911adb12203b99222"),
    ("scale_federation", {"n_clusters": 3},
     "e1c6c2d18bcda763bcf5d759732dc4668636a6c3e5a786240edc96615141cf62"),
    ("hier_3region", {"region_bandwidth": 5.0},
     "194206470641b6f4a6c608b81d9a6bf7c9dde6735d5a808789d037c8494a3c0f"),
]


@pytest.mark.parametrize(
    "preset,overrides,key", OVERRIDE_REQUEST_KEYS,
    ids=[f"{preset}-{'-'.join(overrides)}" for preset, overrides, _ in OVERRIDE_REQUEST_KEYS],
)
def test_override_keeps_request_key(preset, overrides, key):
    document = json.loads(json.dumps(build_scenario(preset, **overrides).to_dict()))
    assert request_key(document)[2] == key
    assert request_key({"preset": preset, "overrides": overrides})[2] == key
