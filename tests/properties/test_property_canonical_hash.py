"""Property: the canonical hash keys semantics, not syntax.

The result cache is only sound if two spellings of the same simulation get
the same key (else the cache silently misses) and two *different*
simulations never share one (else the cache serves wrong results). These
properties pin both directions:

* surface syntax — key order, elided default fields, ``2`` vs ``2.0``,
  scheduler-name aliasing, cosmetic names — never perturbs the digest;
* any semantic field perturbation (seed, duration, machine counts, EET
  values, policy list) always does.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import CampaignSpec
from repro.scenarios import build_scenario
from repro.service import canonical_dumps, canonical_hash, request_key

# -- generic canonical-JSON properties -------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=20,
)


def _shuffle_keys(value, rng):
    """Deep copy with every dict's key order randomised."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {k: _shuffle_keys(v, rng) for k, v in items}
    if isinstance(value, list):
        return [_shuffle_keys(v, rng) for v in value]
    return value


@given(json_values, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_key_order_never_perturbs_the_hash(value, rng):
    assert canonical_hash(_shuffle_keys(value, rng)) == canonical_hash(value)


@given(json_values)
@settings(max_examples=100, deadline=None)
def test_int_float_equal_values_hash_identically(value):
    def floatify(v):
        if isinstance(v, bool):
            return v
        if isinstance(v, int) and abs(v) < 2**52:
            return float(v)
        if isinstance(v, dict):
            return {k: floatify(x) for k, x in v.items()}
        if isinstance(v, list):
            return [floatify(x) for x in v]
        return v

    assert canonical_hash(floatify(value)) == canonical_hash(value)


@given(json_values)
@settings(max_examples=100, deadline=None)
def test_canonical_dumps_is_a_fixpoint(value):
    once = canonical_dumps(value)
    assert canonical_dumps(json.loads(once)) == once


# -- scenario-level properties ---------------------------------------------------

durations = st.sampled_from([30.0, 60.0, 120.0])
seeds = st.integers(min_value=0, max_value=2**31 - 1)
intensities = st.sampled_from(["low", "high"])


@given(durations, seeds, intensities)
@settings(max_examples=25, deadline=None)
def test_preset_ref_matches_expanded_scenario(duration, seed, intensity):
    overrides = {"duration": duration, "seed": seed, "intensity": intensity}
    _, _, ref_key = request_key(
        {"preset": "classroom_homogeneous", "overrides": overrides}
    )
    expanded = build_scenario("classroom_homogeneous", **overrides).to_dict()
    _, _, exp_key = request_key(expanded)
    assert ref_key == exp_key


@given(durations, seeds)
@settings(max_examples=25, deadline=None)
def test_scenario_name_is_cosmetic_but_seed_is_not(duration, seed):
    base = build_scenario(
        "classroom_homogeneous", duration=duration, seed=seed
    ).to_dict()
    renamed = dict(base, name=f"{base['name']}-copy")
    assert request_key(renamed)[2] == request_key(base)[2]
    reseeded = dict(base, seed=seed + 1)
    assert request_key(reseeded)[2] != request_key(base)[2]
    stretched = json.loads(json.dumps(base))
    stretched["generator"]["duration"] = duration + 1.0
    assert request_key(stretched)[2] != request_key(base)[2]


@given(durations, seeds)
@settings(max_examples=10, deadline=None)
def test_machine_and_eet_perturbations_change_the_hash(duration, seed):
    base = build_scenario(
        "classroom_homogeneous", duration=duration, seed=seed
    ).to_dict()
    fewer = json.loads(json.dumps(base))
    name, count = next(iter(fewer["machine_counts"].items()))
    fewer["machine_counts"][name] = count + 1
    assert request_key(fewer)[2] != request_key(base)[2]

    slower = json.loads(json.dumps(base))
    slower["eet"]["values"][0][0] += 1.0
    assert request_key(slower)[2] != request_key(base)[2]


# -- campaign-level properties ---------------------------------------------------

campaign_seed_lists = st.lists(
    st.integers(min_value=0, max_value=1000), min_size=1, max_size=3,
    unique=True,
)


@given(campaign_seed_lists, seeds)
@settings(max_examples=25, deadline=None)
def test_campaign_default_elision_and_aliases(seed_list, master):
    minimal = {
        "scenarios": ["classroom_homogeneous"],
        "schedulers": ["fcfs", "mect"],
        "seeds": seed_list,
        "seed": master,
    }
    shouty = {
        "seed": master,
        "seeds": list(seed_list),
        "schedulers": ["FCFS", "MECT"],
        "scenarios": [{"name": "classroom_homogeneous"}],
        "name": "renamed-campaign",
        "metrics": ["completion_rate"],
    }
    normalised = CampaignSpec.from_dict(minimal).to_dict()
    assert request_key(minimal)[2] == request_key(normalised)[2]
    assert request_key(shouty)[2] == request_key(minimal)[2]

    reordered = dict(minimal, schedulers=["mect", "fcfs"])
    assert request_key(reordered)[2] != request_key(minimal)[2]
    reseeded = dict(minimal, seed=master + 1)
    assert request_key(reseeded)[2] != request_key(minimal)[2]


@given(campaign_seed_lists)
@settings(max_examples=25, deadline=None)
def test_campaign_int_float_seed_spellings_match(seed_list):
    base = {
        "scenarios": ["classroom_homogeneous"],
        "schedulers": ["FCFS"],
        "seeds": seed_list,
    }
    floated = dict(base, seeds=[float(s) for s in seed_list])
    assert request_key(floated)[2] == request_key(base)[2]
