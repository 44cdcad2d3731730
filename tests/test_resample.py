import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liuboost.resample import random_undersample


def labels_of(n_min, n_maj):
    return np.r_[np.ones(n_min, dtype=np.int64),
                 -np.ones(n_maj, dtype=np.int64)]


class TestRandomUndersample:
    def test_half_fraction_balances(self):
        y = labels_of(10, 100)
        idx = random_undersample(y, np.random.default_rng(0))
        assert len(idx) == 20
        assert len(set(idx.tolist())) == 20
        assert set(range(10)) <= set(idx.tolist())  # all minority kept
        assert (y[idx] == -1).sum() == 10

    def test_already_balanced_is_identity(self):
        y = labels_of(8, 8)
        idx = random_undersample(y, np.random.default_rng(0))
        np.testing.assert_array_equal(idx, np.arange(16))

    def test_successive_calls_draw_different_subsets(self):
        y = labels_of(10, 100)
        rng = np.random.default_rng(7)
        a = random_undersample(y, rng)
        b = random_undersample(y, rng)
        assert not np.array_equal(a, b)

    def test_all_subsets_reachable(self):
        # 2 minority, 4 majority, draw 2: all C(4,2)=6 subsets must appear
        y = labels_of(2, 4)
        rng = np.random.default_rng(2)
        seen = set()
        for _ in range(300):
            idx = random_undersample(y, rng)
            seen.add(tuple(sorted(i for i in idx if y[i] == -1)))
        expected = {tuple(sorted(c))
                    for c in itertools.combinations(range(2, 6), 2)}
        assert seen == expected

    def test_draw_is_uniform(self):
        # each of 5 majority indices appears in a 2-of-5 draw w.p. 0.4
        y = labels_of(2, 5)
        rng = np.random.default_rng(3)
        n_trials = 10_000
        counts = np.zeros(7)
        for _ in range(n_trials):
            for i in random_undersample(y, rng):
                counts[i] += 1
        three_sigma = 3 * np.sqrt(n_trials * 0.4 * 0.6)
        assert np.all(np.abs(counts[2:] - 0.4 * n_trials) < three_sigma)

    def test_exact_availability_no_warning(self):
        import warnings

        y = labels_of(5, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx = random_undersample(y, np.random.default_rng(0))
        assert len(idx) == 10

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="both classes"):
            random_undersample(np.ones(5, dtype=np.int64), rng)
        with pytest.raises(ValueError, match="both classes"):
            random_undersample(-np.ones(5, dtype=np.int64), rng)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 60), st.booleans(),
           st.integers(0, 10 ** 6))
    def test_properties(self, n_min, n_extra, swap, seed):
        import warnings

        n_maj = n_min + n_extra
        # swap: the minority carries label -1, as random_undersample allows
        y = labels_of(n_min, n_maj) * (-1 if swap else 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx = random_undersample(y, np.random.default_rng(seed))
        assert len(set(idx.tolist())) == len(idx)        # no duplicates
        assert (np.diff(idx) > 0).all()                  # sorted
        assert set(range(n_min)) <= set(idx.tolist())    # minority intact
        assert (y[idx] == y[-1]).sum() == n_min          # 50:50
        if n_extra == 0:
            np.testing.assert_array_equal(idx, np.arange(2 * n_min))
