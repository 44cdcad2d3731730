import math
import warnings

import numpy as np
import pytest
from conftest import make_clusters, model_bits
from hypothesis import given
from hypothesis import strategies as st

from liuboost import ensemble
from liuboost.data import Dataset
from liuboost.ensemble import (BoostModel, classify, compute_alpha,
                               decision_score, train_liuboost,
                               train_rusboost)
from liuboost.locality import assign_weights
from liuboost.tree import fit_tree


@pytest.fixture
def keep_all(monkeypatch):
    """Train on the full sample: every round keeps every row."""
    monkeypatch.setattr(ensemble, "random_undersample",
                        lambda labels, rng: np.arange(len(labels)))


@pytest.fixture
def fits(monkeypatch):
    """One entry per tree the boosting loop fits, kept or thrown away."""
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(None)
        return fit_tree(*args, **kwargs)

    monkeypatch.setattr(ensemble, "fit_tree", counting_fit)
    return calls


@pytest.fixture
def knn_calls(monkeypatch):
    """One entry per locality-cost (k-NN) computation the trainers run."""
    calls = []

    def counting_assign(*args, **kwargs):
        calls.append(None)
        return assign_weights(*args, **kwargs)

    monkeypatch.setattr(ensemble, "assign_weights", counting_assign)
    return calls


class TestComputeAlpha:
    def test_balanced_mass_gives_zero(self):
        assert compute_alpha(0.5, 0.5) == 0.0

    def test_example_value(self):
        assert compute_alpha(0.5, 0.1) == pytest.approx(
            0.5 * math.log(1.4 / 0.6))

    def test_unit_cost_reduction(self):
        for eps in np.linspace(0.05, 0.45, 9):
            classical = 0.5 * math.log((1 - eps) / eps)
            assert compute_alpha(1 - eps, eps) == pytest.approx(
                classical, abs=1e-12)

    def test_perfect_round_is_finite_and_large(self):
        alpha = compute_alpha(1.0, 0.0)
        assert math.isfinite(alpha) and alpha > 10

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            compute_alpha(-0.1, 0.5)
        with pytest.raises(ValueError):
            compute_alpha(0.5, -0.1)
        # masses that sum to more than 1, whether or not their difference
        # leaves [-1, 1]
        for cor, mis in ((1.5, 0.1), (0.1, 1.5), (0.8, 0.8), (0.9, 0.95)):
            with pytest.raises(ValueError, match="cor_sum \\+ mis_sum <= 1"):
                compute_alpha(cor, mis)

    @pytest.mark.parametrize("nan_at", [0, 1], ids=["cor", "mis"])
    def test_nan_inputs_rejected(self, nan_at):
        # NaN would give a NaN alpha, which `alpha <= 0` does not redraw
        args = [0.2, 0.2]
        args[nan_at] = math.nan
        with pytest.raises(ValueError, match="nonnegative"):
            compute_alpha(*args)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_magnitude_bounded(self, a, b):
        # the clamp on num and den bounds |alpha|, so the weight update's
        # exponent stays below 14.2 for costs in (0, 1]
        cor, mis = a, min(b, 1.0 - a)
        assert 0 <= abs(compute_alpha(cor, mis)) <= 0.5 * math.log(2e12)


class TestTraining:
    def test_separable_toy_perfect_fit(self, separable_ds):
        model = train_liuboost(separable_ds, T=5, k=3, rng=0)
        assert model.trained_iterations == 5
        assert all(a > 0 for a in model.alphas)
        pred = classify(model, separable_ds.features)
        assert (pred == separable_ds.labels).all()

    def test_rusboost_equals_unit_cost_liuboost(self, noisy_ds):
        # k=1 forces every locality cost to 1 (either 1/1 or delta=1), so
        # the cost-sensitive loop must coincide with the baseline exactly
        rus = train_rusboost(noisy_ds, T=8, rng=123)
        liu = train_liuboost(noisy_ds, T=8, k=1, delta=1.0, rng=123)
        assert model_bits(rus) == model_bits(liu)

    def test_history_replays_weight_update(self, noisy_ds):
        ds = noisy_ds
        model = train_liuboost(ds, T=6, k=5, delta=1.0, rng=7, max_depth=2)
        assert model.trained_iterations == 6
        cv = assign_weights(ds, k=5, delta=1.0)
        m = ds.n_instances
        D_prev = np.full(m, 1.0 / m)
        for rec, tree, alpha in zip(model.history, model.trees, model.alphas):
            pred = tree.predict_many(ds.features)
            mis = pred != ds.labels
            # exact: the loop's sums and update have the bits of these
            # textbook forms
            assert rec.mis_sum == float(
                (D_prev[mis] * cv.weight_plus[mis]).sum())
            assert rec.cor_sum == float(
                (D_prev[~mis] * cv.weight_minus[~mis]).sum())
            assert rec.epsilon == float(D_prev[mis].sum())
            assert alpha == compute_alpha(rec.cor_sum, rec.mis_sum)
            cost = np.where(mis, cv.weight_plus, cv.weight_minus)
            expected = D_prev * np.exp(-alpha * ds.labels * pred * cost)
            expected /= expected.sum()
            np.testing.assert_array_equal(rec.distribution, expected)
            D_prev = rec.distribution

    def test_round_one_update_ordering_follows_cost(self, noisy_ds):
        # with a uniform prior, misclassified instances end round 1 ordered
        # by weight_plus: higher cost => strictly larger posterior weight
        model = train_liuboost(noisy_ds, T=1, k=5, rng=11, max_depth=1)
        cv = assign_weights(noisy_ds, k=5)
        pred = model.trees[0].predict_many(noisy_ds.features)
        mis = np.flatnonzero(pred != noisy_ds.labels)
        assert len(mis) >= 2
        D = model.history[0].distribution
        order = mis[np.argsort(cv.weight_plus[mis], kind="stable")]
        wp, dd = cv.weight_plus[order], D[order]
        strict = wp[1:] > wp[:-1]
        assert np.all(dd[1:][strict] > dd[:-1][strict])

    def test_distribution_invariants(self, noisy_ds):
        model = train_rusboost(noisy_ds, T=10, rng=3, max_depth=2)
        for rec in model.history:
            assert rec.distribution.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(rec.distribution >= 0)

    def test_deterministic_given_seed(self, noisy_ds):
        a = train_liuboost(noisy_ds, T=5, rng=99)
        b = train_liuboost(noisy_ds, T=5, rng=99)
        assert model_bits(a) == model_bits(b)
        c = train_liuboost(noisy_ds, T=5, rng=100)
        assert model_bits(a) != model_bits(c)

    def test_retry_budget_exhaustion(self, fits):
        # two identical points with opposite labels: every weak learner is
        # a coin flip, alpha is never positive, training must give up; the
        # model says so, and no warning repeats it
        ds = Dataset(features=np.array([[1.0], [1.0]]),
                     labels=np.array([1, -1]), feature_names=("x",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_rusboost(ds, T=3, rng=0)
        # the first draw and then MAX_CONSECUTIVE_RETRIES redraws
        assert len(fits) == ensemble.MAX_CONSECUTIVE_RETRIES + 1
        assert model.trained_iterations == 0
        assert model.retries_exhausted
        with pytest.raises(ValueError, match="no trained stages"):
            decision_score(model, ds.features)

    @pytest.mark.parametrize("script, T, stages, exhausted", [
        ("F" * ensemble.MAX_CONSECUTIVE_RETRIES + "P", 1, 1, False),
        (("F" * ensemble.MAX_CONSECUTIVE_RETRIES + "P") * 2, 2, 2, False),
        ("P" + "F" * (ensemble.MAX_CONSECUTIVE_RETRIES + 1), 2, 1, True),
    ], ids=["kept-after-max-failures", "budget-renewed-by-a-kept-stage",
            "max-plus-one-failures-stop"])
    def test_retry_budget_is_consecutive(self, separable_ds, monkeypatch,
                                         script, T, stages, exhausted):
        # the loop gets the scripted trees in order: "P" labels every row
        # right (alpha > 0), "F" every row wrong (alpha < 0); a kept stage
        # gives the next stage the full budget again
        X, y = separable_ds.features, separable_ds.labels
        trees = {"P": fit_tree(X, y, np.ones(len(y))),
                 "F": fit_tree(X, -y, np.ones(len(y)))}
        assert (trees["P"].predict_many(X) == y).all()
        assert (trees["F"].predict_many(X) == -y).all()
        calls = []

        def scripted_fit(*args, **kwargs):
            calls.append(None)
            return trees[script[len(calls) - 1]]

        monkeypatch.setattr(ensemble, "fit_tree", scripted_fit)
        model = train_rusboost(separable_ds, T=T, rng=0)
        assert len(calls) == len(script)
        assert model.trained_iterations == stages
        assert model.retries_exhausted is exhausted

    def test_no_undersampling_path(self, noisy_ds, keep_all):
        model = train_liuboost(noisy_ds, T=3, rng=0, max_depth=2)
        assert model.trained_iterations == 3

    def test_alphas_finite_even_with_perfect_rounds(self, separable_ds,
                                                    keep_all, fits):
        model = train_liuboost(separable_ds, T=4, k=1, rng=0)
        assert model.trained_iterations == 4
        assert len(fits) == 4  # every round kept, none redrawn
        assert not model.retries_exhausted
        assert all(np.isfinite(model.alphas))

    def test_rounds_validation(self, separable_ds, fits, knn_calls):
        # the counts are checked before any work, the k-NN included
        with pytest.raises(ValueError, match="T must be"):
            train_liuboost(separable_ds, T=0)
        with pytest.raises(ValueError, match="T must be"):
            train_rusboost(separable_ds, T=0)
        assert fits == [] and knn_calls == []

    @pytest.mark.parametrize("T", [2.5, 3.0, True, "3"])
    def test_rounds_must_be_an_integer(self, separable_ds, fits, T):
        for train in (train_liuboost, train_rusboost):
            with pytest.raises(ValueError, match="T must be"):
                train(separable_ds, T=T)
        assert fits == []
        model = train_rusboost(separable_ds, T=np.int64(2), rng=0)
        assert model.trained_iterations == 2

    @pytest.mark.parametrize("max_depth", [2.5, True, None, -1, "2"])
    def test_max_depth_must_be_a_count(self, separable_ds, fits, knn_calls,
                                       max_depth):
        for train in (train_liuboost, train_rusboost):
            with pytest.raises(ValueError, match="max_depth must be"):
                train(separable_ds, T=2, max_depth=max_depth)
        assert fits == [] and knn_calls == []

    def test_numpy_counts_train_as_python_ints(self, noisy_ds):
        # NumPy counts train the same trees, and retries_exhausted stays a
        # Python bool, which the benchmark sums into a JSON digest
        for numpy_model, python_model in (
                (train_rusboost(noisy_ds, T=np.int64(2), rng=0,
                                max_depth=np.int32(3)),
                 train_rusboost(noisy_ds, T=2, rng=0, max_depth=3)),
                (train_liuboost(noisy_ds, T=np.int64(2), k=np.int64(3),
                                delta=np.float32(0.5), rng=0,
                                max_depth=np.uint8(3)),
                 train_liuboost(noisy_ds, T=2, k=3, delta=0.5, rng=0,
                                max_depth=3))):
            assert numpy_model.retries_exhausted is False
            assert model_bits(numpy_model) == model_bits(python_model)


def constant_leaf_tree(label: int):
    X = np.zeros((2, 1))
    return fit_tree(X, np.array([label, label], dtype=np.int64), np.ones(2))


class TestScoring:
    def test_tie_resolves_to_majority(self):
        model = BoostModel(alphas=(1.0, 1.0),
                           trees=(constant_leaf_tree(1),
                                  constant_leaf_tree(-1)))
        X = np.array([[0.0]])
        assert decision_score(model, X).tolist() == [0.0]
        assert classify(model, X).tolist() == [-1]

    def test_single_stage_score(self):
        model = BoostModel(alphas=(0.7,), trees=(constant_leaf_tree(1),))
        np.testing.assert_allclose(decision_score(model, np.array([[5.0]])),
                                   [0.7])

    def test_score_is_alpha_weighted_vote(self, noisy_ds):
        model = train_rusboost(noisy_ds, T=6, rng=1, max_depth=2)
        X = noisy_ds.features[:20]
        expected = sum(a * t.predict_many(X)
                       for a, t in zip(model.alphas, model.trees))
        np.testing.assert_allclose(decision_score(model, X), expected,
                                   atol=1e-12)
        np.testing.assert_array_equal(
            classify(model, X), np.where(expected > 0, 1, -1))

    def test_vector_rejected(self, noisy_ds):
        # scoring takes an (n, d) matrix; a single row is a (1, d) matrix
        model = train_rusboost(noisy_ds, T=3, rng=2)
        with pytest.raises(ValueError, match="dimensionality"):
            decision_score(model, noisy_ds.features[0])
        with pytest.raises(ValueError, match="dimensionality"):
            classify(model, noisy_ds.features[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, noisy_ds, bad):
        # a tree routes NaN right at every node, which would give the row
        # a confident score
        model = train_rusboost(noisy_ds, T=3, rng=2)
        X = noisy_ds.features[:5].copy()
        X[2, 0] = bad
        for score in (decision_score, classify):
            with pytest.raises(ValueError, match="finite"):
                score(model, X)
