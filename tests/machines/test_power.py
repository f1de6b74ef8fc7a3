"""Power profiles and energy metering."""

import pytest

from repro.core.errors import ConfigurationError
from repro.machines.power import EnergyMeter, PowerProfile


class TestPowerProfile:
    def test_defaults_zero(self):
        p = PowerProfile()
        assert p.idle_watts == 0.0
        assert p.active_watts() == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerProfile(idle_watts=-1.0)
        with pytest.raises(ConfigurationError):
            PowerProfile(busy_watts=-1.0)
        with pytest.raises(ConfigurationError):
            PowerProfile(busy_watts_by_type={"T1": -2.0})

    def test_per_type_override(self):
        p = PowerProfile(busy_watts=100.0, busy_watts_by_type={"fast": 40.0})
        assert p.active_watts("fast") == 40.0
        assert p.active_watts("other") == 100.0
        assert p.active_watts() == 100.0

    def test_energy_for(self):
        p = PowerProfile(busy_watts=50.0)
        assert p.energy_for("T1", 4.0) == 200.0

    def test_energy_for_negative_runtime_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerProfile().energy_for("T1", -1.0)


class TestEnergyMeter:
    def test_idle_integration(self):
        meter = EnergyMeter(PowerProfile(idle_watts=10.0, busy_watts=100.0))
        meter.advance(5.0, busy=False)
        assert meter.idle_energy == 50.0
        assert meter.busy_energy == 0.0
        assert meter.idle_time == 5.0

    def test_busy_integration(self):
        meter = EnergyMeter(PowerProfile(idle_watts=10.0, busy_watts=100.0))
        meter.advance(2.0, busy=False)
        meter.advance(5.0, busy=True)
        assert meter.idle_energy == 20.0
        assert meter.busy_energy == 300.0
        assert meter.total_energy == 320.0

    def test_per_type_watts_used(self):
        profile = PowerProfile(
            busy_watts=100.0, busy_watts_by_type={"cheap": 10.0}
        )
        meter = EnergyMeter(profile)
        meter.advance(1.0, busy=True, task_type_name="cheap")
        assert meter.busy_energy == 10.0

    def test_backwards_time_rejected(self):
        meter = EnergyMeter(PowerProfile())
        meter.advance(5.0, busy=False)
        with pytest.raises(ConfigurationError):
            meter.advance(4.0, busy=False)

    def test_zero_length_interval_is_noop(self):
        meter = EnergyMeter(PowerProfile(idle_watts=10.0))
        meter.advance(3.0, busy=False)
        meter.advance(3.0, busy=True)
        assert meter.busy_time == 0.0

    def test_utilization(self):
        meter = EnergyMeter(PowerProfile())
        meter.advance(4.0, busy=True)
        meter.advance(8.0, busy=False)
        assert meter.utilization() == pytest.approx(0.5)

    def test_utilization_empty(self):
        assert EnergyMeter(PowerProfile()).utilization() == 0.0

    def test_custom_start_time(self):
        meter = EnergyMeter(PowerProfile(idle_watts=10.0), start_time=5.0)
        meter.advance(6.0, busy=False)
        assert meter.idle_energy == 10.0
