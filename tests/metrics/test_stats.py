"""Statistics helpers."""

import math

import pytest

from repro.metrics.stats import jain_fairness, summarize


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.minimum == 1.0
        assert s.maximum == 4.0

    def test_single_sample_std_zero(self):
        assert summarize([5.0]).std == 0.0

    def test_ddof1_std(self):
        s = summarize([1.0, 3.0])
        assert s.std == pytest.approx(math.sqrt(2.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_as_dict_keys(self):
        d = summarize([1.0, 2.0]).as_dict()
        assert set(d) == {"n", "mean", "std", "min", "median", "max"}


class TestJainFairness:
    def test_perfectly_fair(self):
        assert jain_fairness([0.5, 0.5, 0.5]) == pytest.approx(1.0)

    def test_perfectly_unfair(self):
        # One of n gets everything -> index = 1/n.
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_bounds(self):
        value = jain_fairness([0.9, 0.5, 0.1])
        assert 1.0 / 3.0 < value < 1.0

    def test_all_zero_is_fair(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_scale_invariant(self):
        assert jain_fairness([1.0, 2.0]) == pytest.approx(
            jain_fairness([10.0, 20.0])
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([-1.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])
