import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liuboost import bench
from liuboost.bench import ExperimentConfig
from liuboost.synth import BENCHMARK_CATALOG, generate_catalog_dataset
from liuboost.tree import (MIN_LEAF_WEIGHT, DecisionTree, _best_split,
                           _binary_entropy, fit_tree)


def walk_tree(tree, x):
    """Oracle: route one feature vector to a leaf; x[f] <= threshold goes
    left."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return int(tree.label[node])


def loop_best_split(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Oracle: the split search as a loop over features, one sort each.

    Ties among equal gain ratios resolve to the lower feature index, then
    the lower threshold.  Returns (-inf, -1, nan) when no candidate exists.
    """
    W = w.sum()
    Wp = w[y == 1].sum()
    h_parent = float(_binary_entropy(np.array([Wp / W]))[0])
    best_ratio, best_feature, best_threshold = -np.inf, -1, np.nan
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ws = w[order]
        cw = np.cumsum(ws)
        cp = np.cumsum(ws * (y[order] == 1))
        cut = np.flatnonzero(xs[:-1] < xs[1:])
        if cut.size == 0:
            continue
        wl = cw[cut]
        wr = W - wl
        ok = (wl > 0) & (wr > 0)
        if not ok.any():
            continue
        wl, wr, plc = wl[ok], wr[ok], cp[cut][ok]
        fl, fr = wl / W, wr / W
        gain = h_parent - fl * _binary_entropy(plc / wl) \
            - fr * _binary_entropy((Wp - plc) / wr)
        split_info = -(fl * np.log(fl) + fr * np.log(fr))
        ratio = gain / split_info
        i = int(np.argmax(ratio))  # first max = lowest threshold
        if ratio[i] > best_ratio:
            best_ratio = float(ratio[i])
            best_feature = j
            c = cut[ok][i]
            best_threshold = (xs[c] + xs[c + 1]) / 2.0
    return best_ratio, best_feature, best_threshold


def weighted_error(tree, X, y, w):
    return float(w[tree.predict_many(X) != y].sum() / w.sum())


def xor_dataset():
    """XOR corners with asymmetric weights.

    Perfectly symmetric XOR has zero information gain at the root, so a
    greedy learner would refuse to split; unequal corner weights give the
    x-axis root split positive gain while any single stump still carries
    at least 25% weighted error.
    """
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([-1, 1, 1, -1], dtype=np.int64)
    w = np.array([0.3, 0.2, 0.3, 0.2])
    return X, y, w


class TestFitTree:
    def test_separable_single_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1, -1, 1, 1])
        w = np.full(4, 0.25)
        tree = fit_tree(X, y, w)
        assert tree.n_nodes == 3
        assert tree.feature[0] == 0 and tree.threshold[0] == 1.5
        assert weighted_error(tree, X, y, w) == 0.0
        # boundary value routes left (<=)
        assert tree.predict_many(np.array([[0.2], [1.5], [1.500001]])
                                 ).tolist() == [-1, -1, 1]

    def test_pure_node_is_single_leaf(self):
        X = np.arange(5, dtype=float)[:, None]
        tree = fit_tree(X, np.ones(5, dtype=np.int64), np.ones(5))
        assert tree.n_nodes == 1
        assert tree.label[0] == 1

    def test_xor_needs_depth_two(self):
        X, y, w = xor_dataset()
        deep = fit_tree(X, y, w, max_depth=2)
        assert weighted_error(deep, X, y, w) == 0.0
        stump = fit_tree(X, y, w, max_depth=1)
        # oracle: best achievable stump error by exhaustive enumeration
        best = 1.0
        for j in range(2):
            for thr in np.unique(X[:, j]):
                for left_label in (-1, 1):
                    pred = np.where(X[:, j] <= thr, left_label, -left_label)
                    best = min(best, float(w[pred != y].sum()))
        assert weighted_error(stump, X, y, w) >= best >= 0.25

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        y = np.where(X[:, 0] + rng.normal(scale=0.5, size=40) > 0, 1, -1)
        w = rng.uniform(0.1, 2.0, size=40)
        t1 = fit_tree(X, y, w)
        # power-of-two scales keep every float mantissa intact, so the
        # fitted tree must be bit-identical
        for scale in (0.5, 2.0, 1024.0):
            np.testing.assert_equal(t1.to_dict(),
                                    fit_tree(X, y, scale * w).to_dict())
        # an arbitrary scale perturbs last-ulp rounding; the fit must
        # still make the same decisions on this tie-free problem
        a = fit_tree(X, y, w, max_depth=3)
        b = fit_tree(X, y, 3.7 * w, max_depth=3)
        np.testing.assert_array_equal(a.predict_many(X), b.predict_many(X))

    def test_duplicate_instance_additivity(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        y = np.where(X[:, 1] > 0, 1, -1)
        w = np.full(30, 1.0 / 30)
        X2 = np.vstack([X, X[4:5]])
        y2 = np.r_[y, y[4]]
        w2 = np.r_[w, [w[4] / 2]]
        w2[4] /= 2
        np.testing.assert_equal(fit_tree(X, y, w).to_dict(),
                                fit_tree(X2, y2, w2).to_dict())

    def test_zero_weight_rows_do_not_affect_structure(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 2))
        y = np.where(X[:, 0] > 0, 1, -1)
        w = np.ones(25)
        base = fit_tree(X, y, w)
        # an adversarially-labeled zero-weight row changes nothing
        X2 = np.vstack([X, [[0.01, 0.0]]])
        y2 = np.r_[y, [-1 if y[np.argmax(X[:, 0])] == 1 else 1]]
        w2 = np.r_[w, [0.0]]
        aug = fit_tree(X2, y2, w2)
        np.testing.assert_array_equal(aug.feature, base.feature)
        np.testing.assert_array_equal(aug.threshold, base.threshold)
        np.testing.assert_array_equal(aug.label, base.label)

    def test_separable_data_zero_error_unrestricted(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = np.where(X[:, 1] > 0.3, 1, -1)
        w = np.ones(60)
        tree = fit_tree(X, y, w, max_depth=30)
        assert weighted_error(tree, X, y, w) == 0.0

    def test_min_leaf_weight_stops_splitting(self):
        # the rows at x = 2 and 3 hold 1/401 of the weight: their node is
        # impure and separable, but below MIN_LEAF_WEIGHT it stays a leaf
        X = np.arange(6, dtype=float)[:, None]
        y = np.array([-1, -1, 1, -1, 1, 1])
        w = np.array([100.0, 100.0, 0.5, 0.5, 100.0, 100.0])
        assert w[2:4].sum() / w.sum() < MIN_LEAF_WEIGHT
        tree = fit_tree(X, y, w, max_depth=30)
        assert tree.n_nodes == 5
        assert tree.predict_many(X[2:4]).tolist() == [-1, -1]

    def test_zero_gain_root_is_leaf(self):
        # symmetric XOR: every split has gain ratio 0, below MIN_GAIN
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([-1, 1, 1, -1])
        tree = fit_tree(X, y, np.ones(4))
        assert tree.n_nodes == 1

    def test_max_depth_zero_majority_leaf(self):
        X = np.arange(6, dtype=float)[:, None]
        y = np.array([-1, -1, -1, -1, 1, 1])
        tree = fit_tree(X, y, np.ones(6), max_depth=0)
        assert tree.n_nodes == 1 and tree.label[0] == -1

    def test_leaf_tie_breaks_to_majority_class(self):
        X = np.array([[0.0], [0.0]])  # no split possible
        tree = fit_tree(X, np.array([1, -1]), np.ones(2))
        assert tree.n_nodes == 1 and tree.label[0] == -1

    def test_gain_tie_prefers_lower_feature_index(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([-1, -1, 1, 1])
        tree = fit_tree(X, y, np.ones(4), max_depth=1)
        assert tree.feature[0] == 0

    def test_child_without_rows_is_a_leaf(self):
        # between adjacent floats a < b the midpoint can round to b: the
        # cut then sends both rows left and the right child holds no row.
        # The node-weight test makes it a leaf before the purity test
        # looks for its first weighted row.
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert (a + b) / 2 == b
        X = np.array([[a], [b]])
        tree = fit_tree(X, np.array([-1, 1]), np.ones(2), max_depth=2)
        assert tree.feature[0] == 0 and tree.threshold[0] == b
        assert tree.predict_many(X).shape == (2,)

    def test_validation(self):
        X = np.zeros((3, 1))
        y = np.array([1, -1, 1])
        with pytest.raises(ValueError, match="dimension"):
            fit_tree(X, y[:2], np.ones(3))
        with pytest.raises(ValueError, match="weights"):
            fit_tree(X, y, np.array([1.0, -0.5, 1.0]))
        with pytest.raises(ValueError, match="weights"):
            fit_tree(X, y, np.zeros(3))
        # no rows: the weights have no positive sum
        with pytest.raises(ValueError, match="positive, finite sum"):
            fit_tree(X[:0], y[:0], np.ones(0))
        # finite weights whose sum overflows would normalize to zeros
        with pytest.raises(ValueError, match="finite sum"), \
                np.errstate(over="ignore"):
            fit_tree(X, y, np.full(3, 1e308))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        # the sign and sum checks alone let a NaN weight through, to a
        # one-leaf tree after a divide warning
        X = np.arange(4, dtype=float)[:, None]
        with pytest.raises(ValueError, match="weights must be finite"):
            fit_tree(X, np.array([-1, -1, 1, 1]), np.array([bad, 1, 1, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        # every split would route a NaN feature right, silently
        X = np.arange(4, dtype=float)[:, None]
        X[1, 0] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            fit_tree(X, np.array([-1, -1, 1, 1]), np.ones(4))


@st.composite
def nodes(draw):
    """A node's (X, y, w): float or integer-grid features (tied values),
    some zero weights, and maybe a constant and a duplicated column."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    values = (st.sampled_from([0.0, 1.0, 2.0, 3.0]) if draw(st.booleans())
              else st.floats(-10, 10, allow_nan=False))
    X = draw(arrays(np.float64, (n, d), elements=values))
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = X[0, 0]
    if draw(st.booleans()):
        X = np.hstack([X, X[:, [draw(st.integers(0, d - 1))]]])
    y = draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    w = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 0.5, 1.0])
                    | st.floats(1e-3, 10)))
    assume(w.sum() > 0)
    return X, y, w


NO_SPLIT = (-np.inf, -1, np.nan)


class TestBestSplit:
    # np.testing.assert_equal compares floats exactly, treats NaN as equal
    # to NaN and tells 0.0 from -0.0
    @settings(max_examples=300, deadline=None)
    @given(nodes())
    @example((np.array([[0.0], [0.0], [1.0], [1.0], [2.0]]),
              np.array([-1, 1, 1, 1, -1]), np.ones(5)))  # tied x values
    @example((np.array([[0.3, 2.0], [-1.2, 0.5], [0.7, 1.5], [2.2, 0.1]]),
              np.array([1, -1, 1, -1]),
              np.array([0.0, 1.0, 0.0, 2.0])))  # zero weights
    @example((np.array([[5.0, 0.0], [5.0, 1.0], [5.0, 2.0]]),
              np.array([1, -1, -1]), np.ones(3)))  # a constant column
    @example((np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 2.0], [1.0, 3.0, 1.0]]),
              np.array([-1, 1, 1]), np.ones(3)))  # a duplicated column
    @example((np.array([[1.0, 2.0]]), np.array([1]), np.ones(1)))  # n = 1
    def test_matches_loop_oracle(self, node):
        X, y, w = node
        np.testing.assert_equal(_best_split(X, y, w), loop_best_split(X, y, w))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle_on_large_tied_nodes(self, seed):
        # a weight prefix sum over tied rows depends on their order in the
        # last bit, so only a stable sort matches the oracle; nodes this
        # large show it (numpy sorts small arrays stably whatever the kind)
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, size=(300, 3)).astype(float)
        y = rng.choice([-1, 1], size=300)
        w = rng.uniform(size=300)
        np.testing.assert_equal(_best_split(X, y, w), loop_best_split(X, y, w))

    def test_duplicated_column_tie_goes_to_lower_feature(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=20)
        X = np.column_stack([rng.normal(size=20), x, x])
        y = np.where(x > 0, 1, -1)
        ratio, f, thr = _best_split(X, y, np.ones(20))
        assert (f, thr) == (1, (x[x <= 0].max() + x[x > 0].min()) / 2)
        assert loop_best_split(X, y, np.ones(20)) == (ratio, f, thr)

    def test_all_constant_features_give_no_split(self):
        X = np.full((5, 3), 2.0)
        y = np.array([1, -1, 1, -1, 1])
        for search in (_best_split, loop_best_split):
            np.testing.assert_equal(search(X, y, np.ones(5)), NO_SPLIT)

    def test_cuts_with_an_empty_side_give_no_split(self):
        # the weight sits on rows 2 and 3, which share their value in both
        # columns: every cut has wl == 0 or wr == 0
        X = np.array([[0.0, 5.0], [1.0, 6.0], [2.0, 4.0], [2.0, 4.0]])
        y = np.array([1, -1, 1, -1])
        w = np.array([0.0, 0.0, 1.0, 1.0])
        for search in (_best_split, loop_best_split):
            np.testing.assert_equal(search(X, y, w), NO_SPLIT)


class TestOracleGuard:
    @pytest.mark.parametrize("max_depth", [1, 8])
    def test_fold_models_match_loop_oracle(self, monkeypatch, max_depth):
        """One fold of two stand-ins trains byte-identical models with the
        library's split search and with the loop oracle."""
        cfg = ExperimentConfig(dataset_paths=(), max_depth=max_depth)
        stand_ins = [generate_catalog_dataset(e) for e in BENCHMARK_CATALOG
                     if e.name in ("glass0", "winequality-red-8_vs_6")]

        def model_json():
            out = []
            for ds in stand_ins:
                scored = bench._fold_models(ds, bench._fold_plan(ds, cfg, 0),
                                            cfg, 0, 0)
                assert scored is not None
                out += [m.to_json() for m in scored[0].values()]
            return out

        library = model_json()
        calls = []

        def oracle(X, y, w):
            calls.append(X.shape)
            return loop_best_split(X, y, w)

        monkeypatch.setattr("liuboost.tree._best_split", oracle)
        assert model_json() == library
        assert calls


class TestPrediction:
    def test_predict_many_matches_single(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 4))
        y = np.where(X[:, 0] * X[:, 1] > 0, 1, -1)
        tree = fit_tree(X, y, np.ones(80), max_depth=4)
        Xq = rng.normal(size=(100, 4))
        many = tree.predict_many(Xq)
        singles = np.array([walk_tree(tree, x) for x in Xq])
        np.testing.assert_array_equal(many, singles)

    def test_dimension_mismatch(self):
        tree = fit_tree(np.zeros((2, 2)), np.array([1, -1]), np.ones(2))
        with pytest.raises(ValueError):
            tree.predict_many(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            tree.predict_many(np.zeros(2))


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 3))
        y = np.where(X[:, 2] > 0, 1, -1)
        tree = fit_tree(X, y, rng.uniform(0.5, 1.5, size=50))
        back = DecisionTree.from_dict(tree.to_dict())
        np.testing.assert_equal(back.to_dict(), tree.to_dict())
        np.testing.assert_array_equal(back.predict_many(X),
                                      tree.predict_many(X))

    @staticmethod
    def stump_dict() -> dict:
        tree = fit_tree(np.array([[0.0], [1.0]]), np.array([-1, 1]),
                        np.ones(2), max_depth=1)
        d = tree.to_dict()
        assert d["feature"] == [0, -1, -1] and d["label"][1:] == [-1, 1]
        return d

    @pytest.mark.parametrize("change, message", [
        ({"threshold": [0.5, np.nan]}, "equal length"),
        ({k: [] for k in ("feature", "threshold", "left", "right", "label")},
         "nonempty"),
        ({"left": [5, -1, -1]}, "child index"),
        ({"right": [0, -1, -1]}, "child index"),
        ({"left": [-1, -1, -1]}, "child index"),
        ({"left": [1, 2, -1]}, "child index"),
        ({"feature": [1, -1, -1]}, "feature in"),
        ({"feature": [-2, -1, -1]}, "feature in"),
        ({"threshold": [np.inf, np.nan, np.nan]}, "finite threshold"),
        ({"label": [0, 7, 1]}, "leaf label"),
        # a root that is its own child made prediction loop forever
        ({"feature": [0], "threshold": [0.5], "left": [5], "right": [0],
          "label": [0]}, "child index"),
        # numpy would coerce these quietly
        ({"feature": [True, -1, -1]}, "'feature' is not a list of int"),
        ({"left": [1.0, -1, -1]}, "'left' is not a list of int"),
        ({"threshold": ["0.5", np.nan, np.nan]},
         "'threshold' is not a list of int or float"),
        ({"right": "2"}, "'right' is not a list"),
        ({"n_features": 1.0}, "'n_features' is not an int"),
        ({"n_features": -1}, "'n_features' is not an int >= 0"),
        ({"label": [0, -1, 2**63]}, "OverflowError"),
    ], ids=["ragged", "empty", "child-past-end", "child-before-node",
            "internal-without-child", "leaf-with-child", "feature-past-end",
            "feature-negative", "threshold-inf", "leaf-label-7",
            "one-node-cycle", "bool-feature", "float-child",
            "string-threshold", "string-children", "float-n-features",
            "negative-n-features", "label-overflow"])
    def test_malformed_file_rejected(self, change, message):
        d = self.stump_dict() | change
        with pytest.raises(ValueError, match=message):
            DecisionTree.from_dict(d)

    @pytest.mark.parametrize("d", [[], 5, None, {}])
    def test_not_a_tree_object_rejected(self, d):
        # a KeyError, TypeError or AttributeError surfaces as ValueError
        with pytest.raises(ValueError, match="malformed model"):
            DecisionTree.from_dict(d)
