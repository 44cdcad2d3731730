import json
import math
import warnings

import numpy as np
import pytest
from conftest import make_clusters
from hypothesis import given, settings
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
        assert rus.alphas == liu.alphas
        np.testing.assert_equal([t.to_dict() for t in rus.trees],
                                [t.to_dict() for t in liu.trees])

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
            assert rec.mis_sum == pytest.approx(
                float((D_prev[mis] * cv.weight_plus[mis]).sum()), abs=1e-12)
            assert rec.cor_sum == pytest.approx(
                float((D_prev[~mis] * cv.weight_minus[~mis]).sum()), abs=1e-12)
            assert rec.epsilon == pytest.approx(float(D_prev[mis].sum()),
                                                abs=1e-12)
            assert alpha == pytest.approx(
                compute_alpha(rec.cor_sum, rec.mis_sum), abs=1e-12)
            cost = np.where(mis, cv.weight_plus, cv.weight_minus)
            expected = D_prev * np.exp(-alpha * ds.labels * pred * cost)
            expected /= expected.sum()
            np.testing.assert_allclose(rec.distribution, expected, atol=1e-12)
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
        assert a.to_json() == b.to_json()
        c = train_liuboost(noisy_ds, T=5, rng=100)
        assert a.to_json() != c.to_json()

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
        back = BoostModel.from_json(model.to_json())  # zero stages load
        assert back.retries_exhausted and back.trained_iterations == 0
        with pytest.raises(ValueError, match="no trained stages"):
            decision_score(model, ds.features)

    def test_no_undersampling_path(self, noisy_ds, keep_all):
        model = train_liuboost(noisy_ds, T=3, rng=0, max_depth=2)
        assert model.trained_iterations == 3
        # the sampling rule is the algorithm's, not a recorded setting
        assert set(model.config) == {"algorithm", "T", "k", "delta",
                                     "max_depth"}

    def test_alphas_finite_even_with_perfect_rounds(self, separable_ds,
                                                    keep_all, fits):
        model = train_liuboost(separable_ds, T=4, k=1, rng=0)
        assert model.trained_iterations == 4
        assert len(fits) == 4  # every round kept, none redrawn
        assert not model.retries_exhausted
        assert all(np.isfinite(model.alphas))

    def test_rounds_validation(self, separable_ds, fits):
        with pytest.raises(ValueError, match="T must be"):
            train_liuboost(separable_ds, T=0)
        with pytest.raises(ValueError, match="T must be"):
            train_rusboost(separable_ds, T=0)
        assert fits == []

    @pytest.mark.parametrize("T", [2.5, 3.0, True, "3"])
    def test_rounds_must_be_an_integer(self, separable_ds, fits, T):
        for train in (train_liuboost, train_rusboost):
            with pytest.raises(ValueError, match="T must be"):
                train(separable_ds, T=T)
        assert fits == []
        model = train_rusboost(separable_ds, T=np.int64(2), rng=0)
        assert model.trained_iterations == 2

    @pytest.mark.parametrize("max_depth", [2.5, True, None, -1, "2"])
    def test_max_depth_must_be_a_count(self, separable_ds, fits, max_depth):
        # 2.5 used to be recorded as given, -1 trained, and None failed
        # inside fit_tree with a TypeError
        for train in (train_liuboost, train_rusboost):
            with pytest.raises(ValueError, match="max_depth must be"):
                train(separable_ds, T=2, max_depth=max_depth)
        assert fits == []


def constant_leaf_tree(label: int):
    X = np.zeros((2, 1))
    return fit_tree(X, np.array([label, label], dtype=np.int64), np.ones(2))


def one_stage_dict() -> dict:
    """A model file training can write, as a dict: one stage, one leaf."""
    d = BoostModel(alphas=(0.7,), trees=(), config={}).to_dict()
    d["trees"] = [constant_leaf_tree(1).to_dict()]
    return d


def subtree_paths(node, path=()):
    """The key path of every subtree of a JSON document, the root's ()."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from subtree_paths(child, path + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.integers(-2**70, 2**70) | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=8)


class TestScoring:
    def test_tie_resolves_to_majority(self):
        model = BoostModel(alphas=(1.0, 1.0),
                           trees=(constant_leaf_tree(1),
                                  constant_leaf_tree(-1)),
                           config={})
        X = np.array([[0.0]])
        assert decision_score(model, X).tolist() == [0.0]
        assert classify(model, X).tolist() == [-1]

    def test_single_stage_score(self):
        model = BoostModel(alphas=(0.7,), trees=(constant_leaf_tree(1),),
                           config={})
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


class TestSerialization:
    def test_json_round_trip(self, noisy_ds):
        model = train_liuboost(noisy_ds, T=4, rng=5)
        back = BoostModel.from_json(model.to_json())
        assert back.alphas == model.alphas
        np.testing.assert_array_equal(
            decision_score(back, noisy_ds.features),
            decision_score(model, noisy_ds.features))
        # files written before trees lost their unused "confidence" array
        # and "params" copy, before the config held a flat max_depth, and
        # before it lost its sampling settings, still load under the same
        # schema version
        old = model.to_dict()
        params = {"max_depth": 8, "min_leaf_weight": 0.01, "min_gain": 1e-7}
        old["config"] = {k: v for k, v in old["config"].items()
                         if k != "max_depth"} | {
            "tree_params": params, "target_majority_fraction": 0.5,
            "undersample": True}
        for tree in old["trees"]:
            tree["confidence"] = [1.0] * len(tree["label"])
            tree["params"] = params
        back = BoostModel.from_json(json.dumps(old))
        assert back.config == old["config"]  # kept as written
        np.testing.assert_array_equal(
            decision_score(back, noisy_ds.features),
            decision_score(model, noisy_ds.features))

    def test_numpy_settings_round_trip(self, noisy_ds):
        # a NumPy count or delta used to be recorded as given, and to_json
        # raised "Object of type int64 is not JSON serializable"
        for model in (
                train_rusboost(noisy_ds, T=np.int64(2), rng=0,
                               max_depth=np.int32(3)),
                train_liuboost(noisy_ds, T=2, k=np.int64(3),
                               delta=np.float32(0.5), rng=0,
                               max_depth=np.uint8(3))):
            back = BoostModel.from_json(model.to_json())
            assert back.config == model.config
            assert back.retries_exhausted is model.retries_exhausted is False
            assert all(type(v) in (str, int, float)
                       for v in model.config.values())
        assert model.config == {"algorithm": "liuboost", "T": 2, "k": 3,
                                "delta": 0.5, "max_depth": 3}

    def test_schema_version_checked(self, noisy_ds):
        d = train_liuboost(noisy_ds, T=2, rng=5).to_dict()
        # true and 1.0 equal 1 in Python, but training writes the int 1
        for version in (999, True, 1.0, "1", None):
            d["schema_version"] = version
            with pytest.raises(ValueError, match="schema"):
                BoostModel.from_dict(d)
        del d["schema_version"]
        with pytest.raises(ValueError, match="schema: None"):
            BoostModel.from_dict(d)

    @pytest.mark.parametrize("change, message", [
        (lambda d: d["alphas"].append(0.5), "2 alphas for 1 trees"),
        (lambda d: d["alphas"].__setitem__(0, math.nan), "finite"),
        (lambda d: d["alphas"].__setitem__(0, math.inf), "finite"),
        (lambda d: (d["alphas"].append(0.5), d["trees"].append(
            dict(d["trees"][0], n_features=3))), "n_features"),
        (lambda d: d["alphas"].__setitem__(0, -0.5), "positive"),
        (lambda d: d["alphas"].__setitem__(0, 0.0), "positive"),
        (lambda d: d["trees"][0].update(label=[7]), "leaf label"),
        (lambda d: d.pop("alphas"), "'alphas'"),
        (lambda d: d.pop("trees"), "'trees'"),
        (lambda d: d.pop("config"), "'config'"),
        (lambda d: d.pop("retries_exhausted"), "'retries_exhausted'"),
        (lambda d: d["trees"][0].pop("label"), "'label'"),
        (lambda d: d.update(trees=[1]), "malformed model: TypeError"),
        (lambda d: d.update(alphas=5), "'alphas' is not a list"),
        (lambda d: d.update(alphas={"1.5": 0}), "'alphas' is not a list"),
        (lambda d: d.update(alphas=[True]), "'alphas' is not a list"),
        (lambda d: d.update(alphas=["0.7"]), "'alphas' is not a list"),
        (lambda d: d.update(trees={}, alphas=[]), "'trees' is not a list"),
        (lambda d: d.update(config=5), "'config' is not a dict"),
        (lambda d: d.update(retries_exhausted="no"),
         "'retries_exhausted' is not a bool"),
        (lambda d: d["trees"][0].update(label=[10**30]), "OverflowError"),
        (lambda d: d["trees"][0].update(label=[1e300]), "'label' is not a"),
        (lambda d: d["trees"][0].update(label=[1.5]), "'label' is not a"),
        (lambda d: d["trees"][0].update(n_features="1"),
         "'n_features' is not an int"),
    ], ids=["alpha-count", "nan-alpha", "inf-alpha", "n-features-differ",
            "negative-alpha", "zero-alpha", "bad-tree", "no-alphas",
            "no-trees", "no-config", "no-retries-exhausted", "no-tree-label",
            "tree-not-object", "alphas-number", "alphas-object",
            "bool-alpha", "string-alpha", "trees-object", "config-number",
            "retries-exhausted-string", "label-overflow", "float-label",
            "fractional-label", "n-features-string"])
    def test_malformed_file_rejected(self, change, message):
        d = one_stage_dict()
        change(d)
        with pytest.raises(ValueError, match=message):
            BoostModel.from_json(json.dumps(d))

    @pytest.mark.parametrize("text", ["[]", "5", '"model"', "null"])
    def test_file_not_an_object_rejected(self, text):
        with pytest.raises(ValueError, match="malformed model"):
            BoostModel.from_json(text)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_subtree_replaced_loads_or_raises_value_error(self, data):
        # a two-stage file whose second tree has a split, then one of its
        # subtrees, the whole file included, replaced by any JSON value
        d = one_stage_dict()
        d["alphas"].append(0.3)
        d["trees"].append(fit_tree(np.array([[0.0], [1.0]]),
                                   np.array([-1, 1]), np.ones(2)).to_dict())
        path = data.draw(st.sampled_from(list(subtree_paths(d))))
        value = data.draw(json_values)
        if path:
            parent = d
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            d = value
        try:
            model = BoostModel.from_json(json.dumps(d))
        except ValueError:
            return
        # what loads can score
        n = model.trees[0].n_features if model.trees else 0
        if 0 < n <= 8:
            assert np.isfinite(decision_score(model, np.zeros((3, n)))).all()
