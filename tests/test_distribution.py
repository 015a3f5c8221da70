import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from longtail_lab import (ParetoSpec, compute_distribution, default_boundaries,
                          distribution_from_counts, group_split, pareto_targets)


class TestComputeDistribution:
    def test_direct_count(self):
        dist = compute_distribution([0, 0, 0, 1], 2)
        assert dist.counts.tolist() == [3, 1]
        assert dist.total == 4
        np.testing.assert_allclose(dist.frequencies, [0.75, 0.25])
        assert dist.imbalance_ratio == 3

    def test_balanced(self):
        dist = compute_distribution([0, 1], 2)
        np.testing.assert_allclose(dist.frequencies, [0.5, 0.5])
        assert dist.imbalance_ratio == 1

    def test_ratio_definition(self):
        dist = distribution_from_counts([1000, 100, 10])
        assert dist.imbalance_ratio == 100

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            compute_distribution([], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            compute_distribution([0, 3], 3)

    def test_zero_count_flagged(self):
        dist = compute_distribution([0, 0, 2], 3)
        assert dist.zero_classes == (1,)
        assert dist.imbalance_ratio == math.inf

    def test_frequencies_sum_to_one(self):
        dist = distribution_from_counts([7, 3, 2, 1])
        assert abs(dist.frequencies.sum() - 1.0) < 1e-12

    def test_rank_order_ties_by_index(self):
        dist = distribution_from_counts([10, 10, 5, 1])
        assert dist.rank_order.tolist() == [0, 1, 2, 3]
        dist = distribution_from_counts([5, 10, 10, 1])
        assert dist.rank_order.tolist() == [1, 2, 0, 3]


def _pareto_oracle(n0, k, r):
    # floor-and-clamp of the closed form at 50 decimal digits
    with mpmath.workdps(50):
        return [max(1, int(mpmath.floor(n0 * mpmath.power(r, -mpmath.mpf(c) / (k - 1)))))
                for c in range(k)]


class TestParetoTargets:
    def test_exact_textbook_case(self):
        assert pareto_targets(1000, 3, 100).tolist() == [1000, 100, 10]

    def test_ratio_one_is_balanced(self):
        assert pareto_targets(500, 2, 1).tolist() == [500, 500]

    def test_small_head_oracle(self):
        got = pareto_targets(100, 8, 100)
        assert got.tolist() == _pareto_oracle(100, 8, 100)
        assert (np.diff(got) <= 0).all()
        assert got[-1] >= 1

    def test_random_cases_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n0 = int(rng.integers(1, 10000))
            k = int(rng.integers(2, 30))
            r = float(rng.uniform(1.0, 500.0))
            got = pareto_targets(n0, k, r)
            assert got.tolist() == _pareto_oracle(n0, k, r)
            assert (np.diff(got) <= 0).all()

    def test_exact_extremal_ratio_when_integral(self):
        # first/last ratio is exactly r whenever n0/r is integral
        for n0, r in ((1000, 100), (900, 9), (64, 4)):
            got = pareto_targets(n0, 5, r)
            assert got[0] == n0
            assert got[-1] == n0 // r

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            pareto_targets(1000, 1, 100)
        with pytest.raises(ValueError):
            pareto_targets(1000, 3, 0.5)
        with pytest.raises(ValueError):
            pareto_targets(0, 3, 10)

    @pytest.mark.parametrize("ratio", [math.inf, math.nan])
    def test_non_finite_ratio_refused_by_name(self, ratio):
        with pytest.raises(ValueError, match=f"^ratio must be a finite number, got {ratio}$"):
            pareto_targets(1000, 3, ratio)
        with pytest.raises(ValueError, match="^ratio must be a finite number|^pareto ratio"):
            ParetoSpec(n0=1000, ratio=ratio)


class TestGroupSplit:
    def test_isic_style_split(self):
        dist = distribution_from_counts([80, 70, 60, 50, 40, 30, 20, 10])
        split = group_split(dist, (2, 5))
        assert (len(split.head), len(split.medium), len(split.tail)) == (2, 3, 3)

    def test_one_class_per_group(self):
        dist = distribution_from_counts([5, 3, 1])
        split = group_split(dist, (1, 2))
        assert split.head == (0,) and split.medium == (1,) and split.tail == (2,)

    def test_tie_break_by_ascending_index(self):
        dist = distribution_from_counts([10, 10, 5, 1])
        split = group_split(dist, (2, 3))
        assert set(split.head) == {0, 1}

    @pytest.mark.parametrize("bounds", [(0, 2), (2, 2), (3, 2), (1, 5)])
    def test_boundary_violations(self, bounds):
        dist = distribution_from_counts([4, 3, 2, 1])
        with pytest.raises(ValueError):
            group_split(dist, bounds)

    @given(st.integers(min_value=2, max_value=40), st.data())
    def test_partition_property(self, k, data):
        h = data.draw(st.integers(min_value=1, max_value=k - 1))
        m = data.draw(st.integers(min_value=h + 1, max_value=k))
        dist = distribution_from_counts(np.arange(1, k + 1)[::-1])
        split = group_split(dist, (h, m))
        merged = sorted(split.head + split.medium + split.tail)
        assert merged == list(range(k))
        assert not (set(split.head) & set(split.medium))
        assert not (set(split.medium) & set(split.tail))

    def test_default_boundaries_valid(self):
        for k in range(2, 30):
            h, m = default_boundaries(k)
            assert 0 < h < m <= k
