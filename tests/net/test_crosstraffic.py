"""Cross-traffic generators: determinism, epoch math, spec round-trips."""

import pytest

from repro.core.errors import ConfigurationError
from repro.net.crosstraffic import (
    MAX_UTILISATION,
    DiurnalTraffic,
    MmppTraffic,
    cross_traffic_from_spec,
)
from repro.net.topology import Link


class TestDiurnal:
    def test_piecewise_constant_over_epochs(self):
        traffic = DiurnalTraffic(period=24.0, step=1.0)
        # Every instant inside an epoch sees the epoch-start value.
        assert traffic.utilisation_at(3.0) == traffic.utilisation_at(3.999)
        assert traffic.utilisation_at(3.0) == traffic.utilisation(3.0)

    def test_default_step_is_period_over_24(self):
        assert DiurnalTraffic(period=48.0).effective_step == 2.0
        assert DiurnalTraffic(period=48.0, step=5.0).effective_step == 5.0

    def test_next_boundary_is_next_epoch_start(self):
        traffic = DiurnalTraffic(period=24.0, step=1.0)
        assert traffic.next_boundary(3.0) == 4.0
        assert traffic.next_boundary(3.5) == 4.0
        assert traffic.next_boundary(0.0) == 1.0

    def test_sinusoid_peaks_at_quarter_period(self):
        traffic = DiurnalTraffic(period=100.0, base=0.4, amplitude=0.3)
        assert traffic.utilisation(25.0) == pytest.approx(0.7)
        assert traffic.utilisation(75.0) == pytest.approx(0.1)

    def test_clipped_to_legal_band(self):
        traffic = DiurnalTraffic(period=100.0, base=0.8, amplitude=0.5)
        assert traffic.utilisation(25.0) == MAX_UTILISATION
        assert DiurnalTraffic(
            period=100.0, base=0.2, amplitude=0.5
        ).utilisation(75.0) == 0.0

    def test_stateless_make_state_returns_self(self):
        traffic = DiurnalTraffic(period=24.0)
        assert traffic.make_state(123) is traffic

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalTraffic(period=0.0)
        with pytest.raises(ConfigurationError):
            DiurnalTraffic(period=24.0, base=0.99)
        with pytest.raises(ConfigurationError):
            DiurnalTraffic(period=24.0, amplitude=-0.1)

    @pytest.mark.parametrize(
        "field", ["period", "base", "amplitude", "phase", "step"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "abc"])
    def test_non_finite_field_rejected(self, field, value):
        params = {"period": 24.0, field: value}
        with pytest.raises(ConfigurationError, match=f"diurnal {field} must be a finite"):
            DiurnalTraffic(**params)


class TestMmpp:
    def test_same_seed_replays_same_switch_times(self):
        traffic = MmppTraffic(quiet=0.1, burst=0.7)
        a = traffic.make_state(42)
        b = traffic.make_state(42)
        times = [0.0]
        for _ in range(20):
            times.append(a.next_boundary(times[-1]))
        assert [b.next_boundary(t) for t in times[:-1]] == times[1:]
        assert [a.utilisation_at(t) for t in times] == [
            b.utilisation_at(t) for t in times
        ]

    def test_different_seeds_diverge(self):
        traffic = MmppTraffic()
        a, b = traffic.make_state(1), traffic.make_state(2)
        assert a.next_boundary(0.0) != b.next_boundary(0.0)

    def test_starts_quiet_and_alternates(self):
        state = MmppTraffic(quiet=0.1, burst=0.7).make_state(5)
        assert state.utilisation_at(0.0) == 0.1
        first_switch = state.next_boundary(0.0)
        assert state.utilisation_at(first_switch) == 0.7
        second_switch = state.next_boundary(first_switch)
        assert state.utilisation_at(second_switch) == 0.1

    def test_non_monotone_queries_are_consistent(self):
        # Gateways probe signals out of event order; a revisited time
        # must see the identical utilisation.
        state = MmppTraffic().make_state(9)
        late = state.utilisation_at(500.0)
        early = state.utilisation_at(3.0)
        assert state.utilisation_at(500.0) == late
        assert state.utilisation_at(3.0) == early

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            MmppTraffic(quiet=-0.1)
        with pytest.raises(ConfigurationError):
            MmppTraffic(burst=0.96)
        with pytest.raises(ConfigurationError):
            MmppTraffic(mean_quiet=0.0)

    @pytest.mark.parametrize("field", ["quiet", "burst", "mean_quiet", "mean_burst"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "abc"])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"mmpp {field} must be a finite"):
            MmppTraffic(**{field: value})


class TestSpecRoundTrip:
    def test_diurnal_round_trip(self):
        traffic = DiurnalTraffic(
            period=120.0, base=0.4, amplitude=0.35, phase=10.0, step=2.0
        )
        assert cross_traffic_from_spec(traffic.to_spec()) == traffic

    def test_diurnal_compact_spec_omits_defaults(self):
        spec = DiurnalTraffic(period=120.0).to_spec()
        assert "phase" not in spec and "step" not in spec

    def test_mmpp_round_trip(self):
        traffic = MmppTraffic(
            quiet=0.1, burst=0.75, mean_quiet=40.0, mean_burst=12.0
        )
        assert cross_traffic_from_spec(traffic.to_spec()) == traffic

    def test_instance_passthrough(self):
        traffic = DiurnalTraffic(period=24.0)
        assert cross_traffic_from_spec(traffic) is traffic

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown cross-traffic"):
            cross_traffic_from_spec({"kind": "fractal"})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a JSON object"):
            cross_traffic_from_spec("diurnal")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match=r"unknown keys \['loud'\]"):
            cross_traffic_from_spec({"kind": "mmpp", "loud": 0.9})

    @pytest.mark.parametrize(
        "spec,named",
        [
            ({"kind": "diurnal", "period": "abc"}, r"cross_traffic\.period"),
            ({"kind": "diurnal", "period": float("nan")}, r"cross_traffic\.period"),
            ({"kind": "diurnal", "period": True}, r"cross_traffic\.period"),
            ({"kind": "diurnal"}, "missing required key 'period'"),
            ({"kind": "mmpp", "burst": float("inf")}, r"cross_traffic\.burst"),
        ],
        ids=["text", "nan", "bool", "missing", "inf"],
    )
    def test_malformed_field_fails_naming_it(self, spec, named):
        with pytest.raises(ConfigurationError, match=named):
            cross_traffic_from_spec(spec)


class TestLinkIntegration:
    def test_link_spec_round_trip_with_cross_traffic(self):
        link = Link(
            latency=0.05,
            bandwidth=8.0,
            contention="fifo",
            energy_per_mb=0.35,
            cross_traffic=DiurnalTraffic(period=120.0, base=0.4),
        )
        again = Link.from_spec(link.to_spec())
        assert again.cross_traffic == link.cross_traffic
        assert again == link

    def test_legacy_link_spec_unchanged_without_cross_traffic(self):
        link = Link(latency=0.05, bandwidth=8.0, contention="ps")
        assert "cross_traffic" not in link.to_spec()

    def test_cross_traffic_requires_queueing_discipline(self):
        with pytest.raises(ConfigurationError, match="queueing discipline"):
            Link(
                latency=0.05,
                bandwidth=8.0,
                contention="none",
                cross_traffic=DiurnalTraffic(period=24.0),
            )
