"""FederationSpec / ClusterSpec / InterClusterTopology: validation + round-trip."""

import json

import pytest

from repro.core.config import Scenario
from repro.core.errors import ConfigurationError
from repro.federation import ClusterSpec, FederationSpec
from repro.net import InterClusterTopology, Link
from repro.scenarios import build_scenario


def two_site_spec(**overrides):
    kwargs = dict(
        clusters=[
            ClusterSpec(name="edge", machine_counts={"CPU": 2}, weight=1.0),
            ClusterSpec(
                name="cloud",
                machine_counts={"CPU": 1, "GPU": 1},
                weight=0.0,
                scheduler="MM",
                scheduler_params={},
                queue_capacity=3,
            ),
        ],
        gateway="LEAST_LOADED",
        topology=InterClusterTopology(default=Link(0.05, 40.0)),
    )
    kwargs.update(overrides)
    return FederationSpec(**kwargs)


class TestClusterSpec:
    def test_requires_machines(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(name="a", machine_counts={})
        with pytest.raises(ConfigurationError):
            ClusterSpec(name="a", machine_counts={"CPU": 0})

    def test_rejects_negative_count_and_weight(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(name="a", machine_counts={"CPU": -1})
        with pytest.raises(ConfigurationError):
            ClusterSpec(name="a", machine_counts={"CPU": 1}, weight=-0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            ClusterSpec(name="a", machine_counts={"CPU": 1}, weight=bad)

    def test_json_loader_rejects_nan_weight(self):
        data = build_scenario("geo_3site").to_dict()
        data["federation"]["clusters"][0]["weight"] = float("nan")
        text = json.dumps(data)  # emits the bare NaN token json.loads accepts
        assert "NaN" in text
        with pytest.raises(ConfigurationError, match="finite"):
            Scenario.from_json(text)

    def test_requires_name(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(name="", machine_counts={"CPU": 1})

    def test_rejects_link_separator_in_name(self):
        # '->' is the serialised topology-link key separator; a cluster
        # named with it could not round-trip through JSON.
        with pytest.raises(ConfigurationError):
            ClusterSpec(name="a->b", machine_counts={"CPU": 1})

    def test_round_trip(self):
        spec = ClusterSpec(
            name="edge",
            machine_counts={"CPU": 2},
            scheduler="MECT",
            scheduler_params={"k": 1},
            queue_capacity=4,
            weight=2.0,
        )
        assert ClusterSpec.from_dict(spec.to_dict()) == spec

    def test_scheduler_params_need_a_scheduler(self):
        with pytest.raises(ConfigurationError, match=r"scheduler_params need .*\.scheduler"):
            ClusterSpec(name="a", machine_counts={"CPU": 1}, scheduler_params={"k": 1})

    def test_empty_scheduler_params_inherit_the_scenario_policy(self):
        spec = ClusterSpec(name="a", machine_counts={"CPU": 1}, scheduler_params={})
        assert spec.scheduler is None and spec.scheduler_params == {}

    def test_from_dict_missing_key(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec.from_dict({"name": "x"})


class TestFederationSpec:
    def test_duplicate_cluster_names_rejected(self):
        with pytest.raises(ConfigurationError):
            FederationSpec(
                clusters=[
                    ClusterSpec(name="a", machine_counts={"CPU": 1}),
                    ClusterSpec(name="a", machine_counts={"CPU": 1}),
                ]
            )

    def test_needs_positive_total_weight(self):
        with pytest.raises(ConfigurationError):
            FederationSpec(
                clusters=[
                    ClusterSpec(name="a", machine_counts={"CPU": 1}, weight=0.0),
                    ClusterSpec(name="b", machine_counts={"CPU": 1}, weight=0.0),
                ]
            )

    def test_topology_endpoints_must_be_clusters(self):
        topo = InterClusterTopology()
        topo.set_link("a", "nowhere", 0.1)
        with pytest.raises(ConfigurationError):
            FederationSpec(
                clusters=[
                    ClusterSpec(name="a", machine_counts={"CPU": 1}),
                    ClusterSpec(name="b", machine_counts={"CPU": 1}),
                ],
                topology=topo,
            )

    def test_totals_and_index(self):
        spec = two_site_spec()
        assert spec.total_machine_counts() == {"CPU": 3, "GPU": 1}
        assert spec.names == ["edge", "cloud"]
        assert spec.arrival_weights() == [1.0, 0.0]

    def test_json_round_trip(self):
        spec = two_site_spec(gateway_params={"threshold": 1.5})
        rebuilt = FederationSpec.from_dict(spec.to_dict())
        assert rebuilt.to_dict() == spec.to_dict()
        assert rebuilt.names == spec.names
        assert rebuilt.gateway == spec.gateway
        assert rebuilt.gateway_params == {"threshold": 1.5}
        assert rebuilt.topology.link_between("edge", "cloud") == Link(0.05, 40.0)

    def test_clusters_coerced_from_dicts(self):
        spec = FederationSpec(
            clusters=[
                {"name": "a", "machine_counts": {"CPU": 1}},
                {"name": "b", "machine_counts": {"CPU": 1}},
            ]
        )
        assert all(isinstance(c, ClusterSpec) for c in spec.clusters)


class TestInterClusterTopology:
    def test_same_cluster_is_free(self):
        topo = InterClusterTopology(default=Link(1.0, 1.0))
        assert topo.wan_delay("a", "a", 100.0) == 0.0

    def test_symmetric_fallback(self):
        topo = InterClusterTopology()
        topo.set_link("a", "b", 0.2, 10.0)
        assert topo.link_between("b", "a") == Link(0.2, 10.0)
        asym = InterClusterTopology(symmetric=False)
        asym.set_link("a", "b", 0.2, 10.0)
        assert asym.link_between("b", "a") == Link()  # default

    def test_wan_delay_includes_bandwidth(self):
        topo = InterClusterTopology()
        topo.set_link("a", "b", 0.1, 10.0)
        assert topo.wan_delay("a", "b", 5.0) == pytest.approx(0.1 + 0.5)

    def test_rejects_self_link(self):
        with pytest.raises(ConfigurationError):
            InterClusterTopology().set_link("a", "a", 0.1)

    def test_round_trip(self):
        topo = InterClusterTopology(default=Link(0.3, 5.0), symmetric=False)
        topo.set_link("a", "b", 0.1, 10.0)
        topo.set_link("b", "c", 0.2)
        rebuilt = InterClusterTopology.from_dict(topo.to_dict())
        assert rebuilt.to_dict() == topo.to_dict()
        assert rebuilt.link_between("a", "b") == Link(0.1, 10.0)
        assert rebuilt.link_between("c", "a") == Link(0.3, 5.0)

    def test_from_dict_rejects_bad_key(self):
        with pytest.raises(ConfigurationError):
            InterClusterTopology.from_dict({"links": {"a-b": [0.1, 0.0]}})
