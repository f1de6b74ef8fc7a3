"""Property-based tests: EET generation invariants and CSV round-trips."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.eet import EETMatrix
from repro.machines.eet_generation import (
    generate_eet_cvb,
    generate_eet_range_based,
)


def is_consistent(values):
    """Consistent heterogeneity: every row orders the machine types alike."""
    order = np.argsort(values, axis=1, kind="stable")
    return bool((order == order[0]).all())

dims = st.tuples(
    st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8)
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
consistencies = st.sampled_from(
    ["inconsistent", "consistent", "partially_consistent"]
)


@given(dims, seeds, consistencies)
@settings(max_examples=50, deadline=None)
def test_range_based_invariants(dim, seed, consistency):
    n_tasks, n_machines = dim
    m = generate_eet_range_based(
        n_tasks, n_machines, consistency=consistency, seed=seed
    )
    assert m.values.shape == (n_tasks, n_machines)
    assert (m.values > 0).all()
    assert np.isfinite(m.values).all()


@given(dims, seeds, consistencies)
@settings(max_examples=50, deadline=None)
def test_cvb_invariants(dim, seed, consistency):
    n_tasks, n_machines = dim
    m = generate_eet_cvb(
        n_tasks, n_machines, consistency=consistency, seed=seed
    )
    assert m.values.shape == (n_tasks, n_machines)
    assert (m.values > 0).all()


@given(dims, seeds)
@settings(max_examples=50, deadline=None)
def test_consistent_really_is_consistent(dim, seed):
    n_tasks, n_machines = dim
    m = generate_eet_cvb(
        n_tasks, n_machines, consistency="consistent", seed=seed
    )
    assert is_consistent(m.values)


@given(dims, seeds)
@settings(max_examples=30, deadline=None)
def test_zero_machine_cov_homogeneous(dim, seed):
    n_tasks, n_machines = dim
    m = generate_eet_cvb(n_tasks, n_machines, v_machine=0.0, seed=seed)
    assert m.is_homogeneous()


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_csv_round_trip(n_tasks, n_machines, data):
    values = np.array(
        [
            [
                data.draw(
                    st.floats(
                        min_value=0.001,
                        max_value=1e6,
                        allow_nan=False,
                        allow_infinity=False,
                    )
                )
                for _ in range(n_machines)
            ]
            for _ in range(n_tasks)
        ]
    )
    m = EETMatrix(
        values,
        [f"T{i}" for i in range(n_tasks)],
        [f"M{j}" for j in range(n_machines)],
    )
    again = EETMatrix.read_csv(io.StringIO(m.to_csv()))
    assert again.task_type_names == m.task_type_names
    assert again.machine_type_names == m.machine_type_names
    np.testing.assert_allclose(again.values, m.values, rtol=1e-8)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_generation_deterministic(seed):
    assert generate_eet_cvb(3, 4, seed=seed) == generate_eet_cvb(3, 4, seed=seed)
