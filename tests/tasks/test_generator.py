"""Workload generator: calibration, deadlines, intensity monotonicity."""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.core.errors import ConfigurationError
from repro.machines.eet import EETMatrix
from repro.tasks.generator import (
    TaskTypeSpec,
    WorkloadGenerator,
    oversubscription_for_level,
)
from repro.tasks.arrivals import ConstantProcess


class TestIntensityLevels:
    def test_labels(self):
        assert oversubscription_for_level("low") == 0.5
        assert oversubscription_for_level("medium") == 1.0
        assert oversubscription_for_level("high") == 2.0

    def test_case_insensitive(self):
        assert oversubscription_for_level("HIGH") == 2.0

    def test_raw_ratio_passthrough(self):
        assert oversubscription_for_level(1.7) == 1.7

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigurationError):
            oversubscription_for_level("extreme")

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            oversubscription_for_level(0.0)


class TestCalibration:
    def test_service_rate_single_machine(self, eet_3x2):
        gen = WorkloadGenerator(eet_3x2, machine_counts=[1, 0])
        # M1 column: [4, 9, 5], equal shares -> mix EET 6 -> rate 1/6
        assert gen.system_service_rate() == pytest.approx(1.0 / 6.0)

    def test_service_rate_scales_with_machines(self, eet_3x2):
        one = WorkloadGenerator(eet_3x2, machine_counts=[1, 0])
        three = WorkloadGenerator(eet_3x2, machine_counts=[3, 0])
        assert three.system_service_rate() == pytest.approx(
            3 * one.system_service_rate()
        )

    def test_rates_sum_to_ratio_times_capacity(self, eet_3x2):
        gen = WorkloadGenerator(eet_3x2, machine_counts=[1, 1])
        rates = gen.rates_for_oversubscription(2.0)
        assert sum(rates.values()) == pytest.approx(
            2.0 * gen.system_service_rate()
        )

    def test_shares_respected(self, eet_3x2):
        specs = [
            TaskTypeSpec("T1", share=3.0),
            TaskTypeSpec("T2", share=1.0),
            TaskTypeSpec("T3", share=1.0),
        ]
        gen = WorkloadGenerator(eet_3x2, specs, machine_counts=[1, 1])
        rates = gen.rates_for_oversubscription(1.0)
        assert rates["T1"] == pytest.approx(3 * rates["T2"])

    def test_zero_machines_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(eet_3x2, machine_counts=[0, 0])

    def test_unknown_spec_type_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(eet_3x2, [TaskTypeSpec("NOPE")])

    def test_duplicate_specs_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(
                eet_3x2, [TaskTypeSpec("T1"), TaskTypeSpec("T1")]
            )


class TestGeneration:
    def test_workload_within_duration(self, eet_3x2):
        gen = WorkloadGenerator(eet_3x2)
        w = gen.generate(100.0, seed=1)
        assert all(0.0 <= t.arrival_time < 100.0 for t in w)

    def test_deterministic(self, eet_3x2):
        gen = WorkloadGenerator(eet_3x2)
        a = gen.generate(100.0, seed=5)
        b = gen.generate(100.0, seed=5)
        assert [(t.arrival_time, t.task_type.name) for t in a] == [
            (t.arrival_time, t.task_type.name) for t in b
        ]

    def test_intensity_monotone_in_task_count(self, eet_3x2):
        gen = WorkloadGenerator(eet_3x2)
        low = len(gen.generate(400.0, intensity="low", seed=2))
        medium = len(gen.generate(400.0, intensity="medium", seed=2))
        high = len(gen.generate(400.0, intensity="high", seed=2))
        assert low < medium < high

    def test_empirical_rate_matches_calibration(self, eet_3x2):
        gen = WorkloadGenerator(eet_3x2, machine_counts=[1, 1])
        w = gen.generate(3000.0, intensity="medium", seed=3)
        expected = gen.system_service_rate() * 3000.0
        assert len(w) == pytest.approx(expected, rel=0.1)

    def test_deadlines_follow_slack_factor(self, eet_3x2):
        specs = [TaskTypeSpec(n, slack_factor=2.0) for n in ("T1", "T2", "T3")]
        gen = WorkloadGenerator(eet_3x2, specs)
        w = gen.generate(100.0, seed=4)
        for task in w:
            expected = 2.0 * eet_3x2.row(task.task_type).mean()
            assert task.deadline - task.arrival_time == pytest.approx(expected)

    def test_fixed_relative_deadline_wins(self, eet_3x2):
        fixed = EETMatrix(
            eet_3x2.values,
            [
                type(t)(name=t.name, index=t.index, relative_deadline=42.0)
                for t in eet_3x2.task_types
            ],
            eet_3x2.machine_type_names,
        )
        gen = WorkloadGenerator(fixed)
        w = gen.generate(100.0, seed=4)
        assert all(
            t.deadline - t.arrival_time == pytest.approx(42.0) for t in w
        )

    def test_explicit_arrival_process_used(self, eet_3x2):
        specs = [
            TaskTypeSpec("T1", arrival=ConstantProcess(period=10.0)),
            TaskTypeSpec("T2", share=0.0001),
            TaskTypeSpec("T3", share=0.0001),
        ]
        # share ~0 suppresses the calibrated types; T1 arrives every 10 s.
        gen = WorkloadGenerator(eet_3x2, specs)
        w = gen.generate(100.0, intensity=1.0, seed=6)
        t1_arrivals = [
            t.arrival_time for t in w if t.task_type.name == "T1"
        ]
        assert len(t1_arrivals) == 9
        np.testing.assert_allclose(np.diff(t1_arrivals), 10.0)

    def test_nonpositive_duration_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(eet_3x2).generate(0.0)


class TestGenerateCount:
    def test_exact_count(self, eet_3x2):
        gen = WorkloadGenerator(eet_3x2)
        w = gen.generate_count(25, seed=9)
        assert len(w) == 25
        assert [t.id for t in w] == list(range(25))

    def test_sorted_after_trim(self, eet_3x2):
        gen = WorkloadGenerator(eet_3x2)
        w = gen.generate_count(30, seed=10)
        arrivals = [t.arrival_time for t in w]
        assert arrivals == sorted(arrivals)

    def test_nonpositive_count_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(eet_3x2).generate_count(0)


def test_huge_duration_refused_before_allocating():
    """A window too long to hold is refused before NumPy sizes an array.

    Runs in a child limited to 3 GiB of address space, so a build that does
    allocate (601 GiB for this duration) fails there, not on the host.
    """
    child = textwrap.dedent(
        """
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
        from repro.core.errors import ConfigurationError
        from repro.scenarios import build_scenario
        scenario = build_scenario("classroom_homogeneous", duration=1e12)
        try:
            scenario.build_workload()
        except ConfigurationError as exc:
            print("refused:", exc)
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    assert "refused: generator.duration" in out.stdout, out.stderr[-400:]
