import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from liuboost.stats import (EXACT_LIMIT, _exact_two_sided,
                            wilcoxon_signed_rank)


def pairs_from_diffs(diffs):
    diffs = np.asarray(diffs, dtype=float)
    return np.c_[np.zeros_like(diffs), diffs]


class TestExamples:
    def test_five_pairs_one_direction(self):
        r = wilcoxon_signed_rank([(0, 1), (0, 2), (0, 3), (1, 5), (2, 9)])
        assert r.w_minus == 0.0
        assert r.p_two_sided == pytest.approx(2 / 2 ** 5)
        assert r.method == "exact" and r.n_effective == 5

    def test_symmetric_differences(self):
        r = wilcoxon_signed_rank(pairs_from_diffs([1, -1, 2, -2, 3, -3]))
        assert r.w_plus == r.w_minus == 10.5
        assert r.p_two_sided == 1.0

    def test_pratt_zero_handling(self):
        # diffs 0, 1, -2, 3, 4: pratt ranks the zero (rank 1) but assigns
        # it to neither sum; drop re-ranks without it
        pairs = pairs_from_diffs([0, 1, -2, 3, 4])
        pratt = wilcoxon_signed_rank(pairs, zeros="pratt")
        assert (pratt.w_minus, pratt.w_plus) == (3.0, 11.0)
        assert pratt.n_effective == 4
        drop = wilcoxon_signed_rank(pairs, zeros="drop")
        assert (drop.w_minus, drop.w_plus) == (2.0, 8.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="at least 5"):
            wilcoxon_signed_rank([(0, 1)] * 4)
        with pytest.raises(ValueError, match="all differences"):
            wilcoxon_signed_rank([(1.0, 1.0)] * 6)
        with pytest.raises(ValueError, match="zeros"):
            wilcoxon_signed_rank([(0, 1)] * 5, zeros="bogus")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pairs_rejected(self, bad):
        pairs = pairs_from_diffs([1, -2, 3, 4, 5, 6])
        pairs[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ValueError, match="pairs must be finite"):
                wilcoxon_signed_rank(pairs)


class TestOracles:
    def test_exact_matches_scipy_no_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(5, EXACT_LIMIT + 1))
            d = rng.normal(size=n)  # continuous: no ties, no zeros
            ours = wilcoxon_signed_rank(pairs_from_diffs(d))
            ref = sps.wilcoxon(d, alternative="two-sided", method="exact")
            assert ours.p_two_sided == pytest.approx(ref.pvalue, abs=1e-12)
            assert min(ours.w_plus, ours.w_minus) == ref.statistic

    def test_exact_matches_monte_carlo_sign_flips(self):
        rng = np.random.default_rng(1)
        n, n_draws = 10, 1_000_000
        d = rng.normal(size=n)
        r = wilcoxon_signed_rank(pairs_from_diffs(d))
        ranks = sps.rankdata(np.abs(d))
        w_obs = min(r.w_plus, r.w_minus)
        signs = rng.integers(0, 2, size=(n_draws, n))
        w = signs @ ranks
        total = ranks.sum()
        hits = ((w <= w_obs) | (total - w <= w_obs)).mean()
        se = np.sqrt(hits * (1 - hits) / n_draws)
        assert abs(r.p_two_sided - hits) <= 3 * se

    def test_normal_approximation_close_to_exact(self):
        # the exact enumeration stays polynomial, so it can referee the
        # large-n normal path directly
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(EXACT_LIMIT + 1, 35))
            d = rng.normal(size=n)
            r = wilcoxon_signed_rank(pairs_from_diffs(d))
            assert r.method == "normal_approx"
            ranks = sps.rankdata(np.abs(d))
            exact = _exact_two_sided(ranks, min(r.w_plus, r.w_minus))
            assert r.p_two_sided == pytest.approx(exact, abs=0.01)

    def test_one_sided_normal_reported(self):
        rng = np.random.default_rng(3)
        d = rng.normal(size=12)
        r = wilcoxon_signed_rank(pairs_from_diffs(d))
        assert 0 < r.p_one_sided_normal <= 1


class TestProperties:
    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(5, 25))
            pairs = rng.normal(size=(n, 2))
            a = wilcoxon_signed_rank(pairs)
            b = wilcoxon_signed_rank(pairs[:, ::-1])
            assert (a.w_plus, a.w_minus) == (b.w_minus, b.w_plus)
            assert a.p_two_sided == b.p_two_sided

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(5)
        pairs = rng.normal(size=(12, 2))
        a = wilcoxon_signed_rank(pairs)
        b = wilcoxon_signed_rank(pairs + 17.5)
        assert (a.w_plus, a.w_minus, a.p_two_sided) \
            == (b.w_plus, b.w_minus, b.p_two_sided)

    def test_rank_sum_total_under_drop(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(5, 30))
            d = np.round(rng.normal(size=n), 1)  # ties and zeros likely
            if np.all(d == 0):
                continue
            r = wilcoxon_signed_rank(pairs_from_diffs(d))
            n_eff = r.n_effective
            assert r.w_plus + r.w_minus == n_eff * (n_eff + 1) / 2

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = rng.integers(-3, 4, size=15).astype(float)
            if np.all(d == 0):
                continue
            r = wilcoxon_signed_rank(pairs_from_diffs(d), zeros="pratt")
            assert 0 < r.p_two_sided <= 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=5, max_size=30),
           st.sampled_from(["drop", "pratt"]))
    def test_rank_sums_match_rankdata_oracle(self, steps, zeros):
        # halves of small integers: many tied |d| and zeros
        d = np.asarray(steps, dtype=float) / 2
        assume((d != 0).any())
        ranked = d[d != 0] if zeros == "drop" else d
        ranks = sps.rankdata(np.abs(ranked))
        r = wilcoxon_signed_rank(pairs_from_diffs(d), zeros=zeros)
        assert r.w_plus == ranks[ranked > 0].sum()
        assert r.w_minus == ranks[ranked < 0].sum()

