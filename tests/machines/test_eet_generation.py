"""Synthetic EET generation: ranges, CoVs, consistency classes."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.machines.eet_generation import (
    generate_eet_cvb,
    generate_eet_range_based,
    make_consistency,
)


def is_consistent(values):
    """Consistent heterogeneity: every row orders the machine types alike."""
    order = np.argsort(values, axis=1, kind="stable")
    return bool((order == order[0]).all())


class TestRangeBased:
    def test_shape_and_names(self):
        m = generate_eet_range_based(3, 4, seed=0)
        assert m.n_task_types == 3
        assert m.n_machine_types == 4
        assert m.task_type_names == ["T1", "T2", "T3"]

    def test_entries_within_bounds(self):
        m = generate_eet_range_based(
            5, 5, task_range=10.0, machine_range=3.0, seed=1
        )
        assert m.values.min() >= 1.0
        assert m.values.max() <= 30.0

    def test_deterministic(self):
        a = generate_eet_range_based(3, 3, seed=7)
        b = generate_eet_range_based(3, 3, seed=7)
        assert a == b

    def test_custom_names(self):
        m = generate_eet_range_based(
            1, 2, seed=0,
            task_type_names=["detect"],
            machine_type_names=["CPU", "GPU"],
        )
        assert m.task_type_names == ["detect"]
        assert m.machine_type_names == ["CPU", "GPU"]

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_eet_range_based(0, 3)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_eet_range_based(2, 2, task_range=0.5)

    def test_name_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_eet_range_based(2, 2, task_type_names=["one"])


class TestCVB:
    def test_shape(self):
        m = generate_eet_cvb(4, 6, seed=0)
        assert m.values.shape == (4, 6)

    def test_positive(self):
        m = generate_eet_cvb(5, 5, seed=3)
        assert (m.values > 0).all()

    def test_zero_machine_cov_is_homogeneous(self):
        m = generate_eet_cvb(3, 4, v_machine=0.0, seed=5)
        assert m.is_homogeneous()

    def test_mean_tracks_mean_task(self):
        m = generate_eet_cvb(
            60, 60, mean_task=50.0, v_task=0.3, v_machine=0.3, seed=9
        )
        assert m.values.mean() == pytest.approx(50.0, rel=0.2)

    def test_machine_cov_tracks_parameter(self):
        m = generate_eet_cvb(
            200, 30, mean_task=30.0, v_task=0.2, v_machine=0.6, seed=11
        )
        machine_cov = np.mean(m.values.std(axis=1) / m.values.mean(axis=1))
        assert machine_cov == pytest.approx(0.6, rel=0.2)

    def test_deterministic(self):
        assert generate_eet_cvb(3, 3, seed=2) == generate_eet_cvb(3, 3, seed=2)

    def test_negative_cov_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_eet_cvb(2, 2, v_task=-0.1)

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_eet_cvb(2, 2, mean_task=0.0)


class TestConsistency:
    def test_consistent_sorts_every_row(self):
        m = generate_eet_cvb(6, 5, consistency="consistent", seed=4)
        assert is_consistent(m.values)
        values = m.values
        assert (np.diff(values, axis=1) >= 0).all()

    def test_inconsistent_usually_not_consistent(self):
        m = generate_eet_cvb(8, 6, consistency="inconsistent", seed=4)
        assert not is_consistent(m.values)

    def test_partially_consistent_subset_sorted(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(1.0, 10.0, size=(6, 6))
        out = make_consistency(raw, "partially_consistent", np.random.default_rng(1))
        # at least one column pair among the chosen half is ordered in all rows
        ordered_pairs = 0
        for i in range(6):
            for j in range(i + 1, 6):
                if (out[:, i] <= out[:, j]).all() or (
                    out[:, i] >= out[:, j]
                ).all():
                    ordered_pairs += 1
        assert ordered_pairs >= 1

    def test_consistency_preserves_multiset_per_row(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(1.0, 10.0, size=(4, 5))
        out = make_consistency(raw, "consistent", np.random.default_rng(1))
        for i in range(4):
            np.testing.assert_allclose(np.sort(out[i]), np.sort(raw[i]))

    def test_unknown_consistency_rejected(self):
        with pytest.raises(ConfigurationError):
            make_consistency(
                np.ones((2, 2)), "mostly", np.random.default_rng(0)  # type: ignore[arg-type]
            )

    def test_inconsistent_passthrough_copies(self):
        raw = np.ones((2, 2))
        out = make_consistency(raw, "inconsistent", np.random.default_rng(0))
        out[0, 0] = 9.0
        assert raw[0, 0] == 1.0
