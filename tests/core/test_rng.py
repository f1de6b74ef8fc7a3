"""Seeded RNG utilities: determinism and substream independence."""

import numpy as np
import pytest

from repro.core.rng import derive_seed, make_rng, spawn


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a, b = make_rng(42), make_rng(42)
        assert a.random() == b.random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSpawn:
    def test_spawn_count(self):
        children = spawn(make_rng(0), 4)
        assert len(children) == 4

    def test_spawn_deterministic(self):
        a = [g.random() for g in spawn(make_rng(7), 3)]
        b = [g.random() for g in spawn(make_rng(7), 3)]
        assert a == b

    def test_children_independent_of_sibling_count_prefix(self):
        first_of_two = spawn(make_rng(7), 2)[0].random()
        first_of_five = spawn(make_rng(7), 5)[0].random()
        assert first_of_two == first_of_five

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn(make_rng(0), -1)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, "workload", 0) == derive_seed(5, "workload", 0)

    def test_label_sensitivity(self):
        assert derive_seed(5, "workload", 0) != derive_seed(5, "workload", 1)
        assert derive_seed(5, "workload") != derive_seed(5, "simulation")

    def test_none_propagates(self):
        assert derive_seed(None, "anything") is None

    def test_string_labels_stable_across_processes(self):
        # The label hash must not rely on salted builtins.hash.
        assert derive_seed(1, "abc") == derive_seed(1, "abc")
