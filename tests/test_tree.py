import numpy as np
import pytest

from liuboost.tree import MIN_LEAF_WEIGHT, DecisionTree, fit_tree


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

    def test_validation(self):
        X = np.zeros((3, 1))
        y = np.array([1, -1, 1])
        with pytest.raises(ValueError, match="dimension"):
            fit_tree(X, y[:2], np.ones(3))
        with pytest.raises(ValueError, match="weights"):
            fit_tree(X, y, np.array([1.0, -0.5, 1.0]))
        with pytest.raises(ValueError, match="weights"):
            fit_tree(X, y, np.zeros(3))


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
