import dataclasses
import gc
import itertools
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import model_bits, tree_bits
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liuboost import bench
from liuboost import tree as tree_module
from liuboost.bench import ExperimentConfig
from liuboost.synth import BENCHMARK_CATALOG, generate_catalog_dataset
from liuboost.tree import (MIN_GAIN, MIN_LEAF_WEIGHT,
                           DecisionTree, _best_split, _binary_entropy,
                           fit_tree)


def check_tree(tree) -> None:
    """Oracle: the structure of every tree fit_tree builds.  Nodes are
    numbered in pre-order, so every child index is above its parent's,
    which is what makes prediction terminate."""
    assert isinstance(tree, DecisionTree), "not a DecisionTree"
    for name in ("feature", "threshold", "left", "right", "label"):
        dtype = np.float64 if name == "threshold" else np.int64
        a = getattr(tree, name)
        assert isinstance(a, np.ndarray) and a.dtype == dtype, \
            f"'{name}' is not a {np.dtype(dtype)} array"
    assert type(tree.n_features) is int, "'n_features' is not an int"
    assert tree.n_features >= 0, "'n_features' is not an int >= 0"
    n = tree.feature.size
    node_arrays = (tree.feature, tree.threshold, tree.left, tree.right,
                   tree.label)
    assert n > 0 and all(a.shape == (n,) for a in node_arrays), \
        "tree node arrays must be nonempty and of equal length"
    leaf = tree.feature == -1
    node = np.arange(n)
    for child in (tree.left, tree.right):
        assert not np.where(leaf, child != -1,
                            (child <= node) | (child >= n)).any(), \
            "tree child index must be -1 at a leaf and in (node, n_nodes) " \
            "at an internal node"
    assert not (~leaf & ((tree.feature < 0)
                         | (tree.feature >= tree.n_features)
                         | ~np.isfinite(tree.threshold))).any(), \
        "internal tree node needs a feature in [0, n_features) and a " \
        "finite threshold"
    assert not (leaf & (np.abs(tree.label) != 1)).any(), \
        "tree leaf label must be -1 or +1"


def walk_tree(tree, x):
    """Oracle: route one feature vector to a leaf; x[f] <= threshold goes
    left."""
    return int(tree.label[leaf_of(tree, x)])


def leaf_of(tree, x):
    """The node id of the leaf that walk_tree routes x to."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return int(node)


def masked_binary_entropy(p: np.ndarray) -> np.ndarray:
    """Oracle: entropy (natural log) given P(+1), with each log taken only
    where its probability is positive."""
    p = np.clip(p, 0.0, 1.0)
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        nz = q > 0
        out[nz] -= q[nz] * np.log(q[nz])
    return out


def loop_best_split(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Oracle: the split search as a loop over features, one sort each.

    Ties among equal gain ratios resolve to the lower feature index, then
    the lower threshold.  Returns (-inf, -1, nan) when no candidate exists.
    """
    W = w.sum()
    Wp = w[y == 1].sum()
    h_parent = float(masked_binary_entropy(np.array([Wp / W]))[0])
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
        gain = h_parent - fl * masked_binary_entropy(plc / wl) \
            - fr * masked_binary_entropy((Wp - plc) / wr)
        split_info = -(fl * np.log(fl) + fr * np.log(fr))
        ratio = gain / split_info
        i = int(np.argmax(ratio))  # first max = lowest threshold
        if ratio[i] > best_ratio:
            best_ratio = float(ratio[i])
            best_feature = j
            c = cut[ok][i]
            mid = xs[c] / 2 + xs[c + 1] / 2
            best_threshold = mid if mid < xs[c + 1] else xs[c]
    return best_ratio, best_feature, best_threshold


def closure_fit_tree(X, y, w, max_depth):
    """Oracle: tree growth with five parallel node lists, a closure that
    appends placeholders to all five and two leaf exits, splitting by
    loop_best_split; X, y and w are valid fit_tree inputs."""
    w = w / w.sum()

    feature, threshold, left, right, label = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        label.append(0)
        return len(feature) - 1

    def make_leaf(node, wn, yn, Wn):
        wpos = wn[yn == 1].sum()
        # ties, and leaves holding only zero-weight instances, go to -1
        label[node] = 1 if wpos > Wn - wpos else -1

    def build(idx, depth):
        node = new_node()
        wn, yn = w[idx], y[idx]
        Wn = wn.sum()
        live = wn > 0
        ya = yn[live]
        # weights sum to 1: a node with no weighted row is below
        # MIN_LEAF_WEIGHT; with no valid cut, the ratio is -inf < MIN_GAIN
        if (depth >= max_depth or Wn < MIN_LEAF_WEIGHT
                or (ya == ya[0]).all()):
            make_leaf(node, wn, yn, Wn)
            return node
        ratio, f, thr = loop_best_split(X[idx[live]], ya, wn[live])
        if ratio < MIN_GAIN:
            make_leaf(node, wn, yn, Wn)
            return node
        feature[node] = f
        threshold[node] = thr
        go_left = X[idx, f] <= thr
        left[node] = build(idx[go_left], depth + 1)
        right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        label=np.asarray(label, dtype=np.int64),
        n_features=X.shape[1],
    )


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
            assert tree_bits(fit_tree(X, y, scale * w)) == tree_bits(t1)
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
        assert tree_bits(fit_tree(X, y, w)) == tree_bits(fit_tree(X2, y2, w2))

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

    @pytest.mark.parametrize("a, b", [
        # adjacent floats: (a + b) / 2 rounds to b
        (1 + 2.0 ** -52, 1 + 2.0 ** -51),
        # near the float max: a + b overflows to inf
        (1e308, 1.5e308),
    ], ids=["adjacent-floats", "near-float-max"])
    def test_cut_separates_its_rows(self, a, b):
        X = np.array([[a], [b]])
        y = np.array([-1, 1])
        tree = fit_tree(X, y, np.ones(2), max_depth=2)
        assert tree.feature[0] == 0 and a <= tree.threshold[0] < b
        assert tree.n_nodes == 3
        np.testing.assert_array_equal(tree.predict_many(X), y)
        check_tree(tree)  # a finite threshold

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
        # a direct call checks max_depth as the trainers do
        for max_depth in (None, 2.5, True, -1):
            with pytest.raises(ValueError, match="max_depth must be"):
                fit_tree(X, y, np.ones(3), max_depth)

    def test_fit_leaves_no_reference_cycle(self):
        # a cycle would keep each fit's arrays until the collector runs,
        # which raised the protocol benchmark's peak RSS by about 1 MB
        X, y, w = xor_dataset()
        gc.collect()
        gc.disable()
        try:
            fit_tree(X, y, w, max_depth=2)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("labels", [[0, 0, 1, 1], [-1, -1, 2, 2],
                                        [-1, 1, 1, -2],
                                        [1.5, 1.2, -1.7, -1]])
    def test_labels_other_than_plus_minus_one_rejected(self, labels):
        # a 0 label used to train, and was then predicted as -1 or +1; a
        # fraction was truncated toward zero and trained
        X = np.arange(4, dtype=float)[:, None]
        with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
            fit_tree(X, np.array(labels), np.ones(4), max_depth=2)

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


@st.composite
def training_sets(draw):
    """fit_tree's (X, y, w, max_depth): integer-grid (tied) or float
    features, zero weights on a third of the sets, depth 0-8."""
    max_depth = draw(st.integers(0, 8))
    n = draw(st.integers(1, 8) | st.integers(9, 80))
    d = draw(st.integers(1, 6))
    values = (st.integers(0, 4).map(float) if draw(st.booleans())
              else st.floats(-100, 100, allow_nan=False))
    # no fill value: each element is drawn, so rows are not mostly equal
    X = draw(arrays(np.float64, (n, d), elements=values, fill=st.nothing()))
    y = draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1]),
                    fill=st.nothing()))
    w = draw(arrays(np.float64, n, elements=st.floats(1e-3, 10),
                    fill=st.nothing()))
    if draw(st.integers(0, 2)) == 0:
        w[draw(arrays(np.bool_, n, fill=st.nothing()))] = 0.0
    assume(w.sum() > 0)
    return X, y, w, max_depth


# Nodes whose split settles children, or must not: (X, y, w), one column.
_SPLIT_EDGES = [
    # the right child's live rows are all +1; zero-weight -1 rows ride
    # along between them, so they are a settled +1 leaf
    (np.arange(14.0)[:, None],
     np.array([-1, -1, -1, 1, -1, 1, 1, -1, 1, 1, -1, 1, 1, 1]),
     np.array([1, 1, 1, 0.7, 0, 0.3, 1.1, 0, 0.9, 0.6, 0, 1.3, 0.2, 0.8])),
    # the right child holds one -1 row of normalized weight about 1e-300
    # among +1 rows: its float sums cannot tell it from a pure node, but
    # it is impure, so it takes its rows and is searched
    (np.arange(10.0)[:, None], np.array([-1, -1, -1, -1, 1, 1, 1, -1, 1, 1]),
     np.array([1, 1, 1, 1, 1, 1, 1, 1e-299, 1, 1])),
    # an impure right child of 0.0099 of the weight, a settled leaf, and
    # one of 0.0101, which is split
    (np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0]]),
     np.array([-1, -1, -1, -1, 1, -1]),
     np.array([0.2475] * 4 + [0.005, 0.0049])),
    (np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0]]),
     np.array([-1, -1, -1, -1, 1, -1]),
     np.array([0.2475] * 4 + [0.0051, 0.005])),
    # the right child holds one +1 and one -1 row of equal weight: at
    # max_depth 1 it is labelled from an exact tie, which goes to -1
    (np.arange(6.0)[:, None], np.array([-1, -1, -1, -1, 1, -1]),
     np.ones(6)),
]


def split_edge_examples(test):
    """test, with each of _SPLIT_EDGES as an example at max_depth 1, 2, 3
    and 8: at max_depth 1 the first, second and last settle a child at
    max_depth, pure by count, impure by a weight of 1e-300 and tied."""
    for X, y, w in _SPLIT_EDGES:
        for max_depth in (1, 2, 3, 8):
            test = example((X, y, w, max_depth))(test)
    return test


class TestGrowthOracle:
    @settings(max_examples=300, deadline=None)
    @given(training_sets())
    @split_edge_examples
    def test_matches_closure_grower(self, training_set):
        X, y, w, max_depth = training_set
        tree = fit_tree(X, y, w, max_depth)
        check_tree(tree)
        assert tree_bits(tree) == tree_bits(closure_fit_tree(X, y, w,
                                                             max_depth))

    def test_deep_chain_is_not_bounded_by_the_recursion_limit(self):
        # alternating labels on one column peel one row per level until a
        # node is below MIN_LEAF_WEIGHT: 1485 levels, more than a grower
        # that recurses per level gets under Python's recursion limit
        n = 1500
        X = np.arange(float(n))[:, None]
        y = np.where(np.arange(n) % 2, 1, -1)
        tree = fit_tree(X, y, np.ones(n), max_depth=10**5)
        check_tree(tree)
        depth = np.zeros(tree.n_nodes, dtype=np.int64)
        for node in np.flatnonzero(tree.feature >= 0):  # parents first
            depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
        assert (tree.n_nodes, depth.max()) == (2971, 1485)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 4 * n)
        try:
            oracle = closure_fit_tree(X, y, np.ones(n), 10**5)
        finally:
            sys.setrecursionlimit(limit)
        assert tree_bits(tree) == tree_bits(oracle)


NO_SPLIT = (-np.inf, -1, np.nan)

# The ends of [0, 1], one ulp either side of each, and the smallest
# positive float: where a mask-free entropy could differ from the oracle.
ENTROPY_EDGES = (0.0, 1.0, 5e-324, -5e-324, np.nextafter(1.0, 2.0),
                 np.nextafter(1.0, 0.0))


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

    @staticmethod
    def tied_node(shape, n, rng):
        """An (n, 3) node whose columns tie: a 5-valued grid, or one tied
        column among continuous ones that mostly decides the labels, so
        the best cut is one of its own: 5-valued, or of signs whose zero
        run mixes -0.0 and 0.0."""
        if shape == "grid5":
            X = rng.integers(0, 5, size=(n, 3)).astype(float)
            y = rng.choice([-1, 1], size=n)
        else:
            X = rng.normal(size=(n, 3))
            values = ([-1.0, -0.0, 0.0, 1.0] if shape == "signed_zero"
                      else [0.0, 1.0, 2.0, 3.0, 4.0])
            X[:, 1] = rng.choice(values, size=n)
            noise = rng.uniform(size=n) < 0.2
            y = np.where((X[:, 1] > 0) ^ noise, 1, -1)
        return X, y, rng.uniform(size=n)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle_on_large_tied_nodes(self, seed):
        # a weight prefix sum over tied rows depends on their order in the
        # last bit, so only the stable order matches the oracle.  Every
        # node takes the default sort, which on an AVX-512 host reorders
        # ties from 4 rows up, and has its tied runs put back in row order
        rng = np.random.default_rng(seed)
        for n in (4, 16, 64, 200, 256, 480):
            for shape in ("grid5", "one_tied", "signed_zero"):
                X, y, w = self.tied_node(shape, n, rng)
                np.testing.assert_equal(_best_split(X, y, w),
                                        loop_best_split(X, y, w),
                                        err_msg=f"{shape}, n = {n}")

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


def search_cells(cells):
    """A context in which liuboost.tree._SEARCH_CELLS is cells."""
    return mock.patch.object(tree_module, "_SEARCH_CELLS", cells)


class TestSplitSearch:
    """A node above the cell budget is searched in blocks of columns and
    gets one pass's (ratio, feature, threshold), bit for bit."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(node=nodes())
    @example(node=(np.array([[0.0, -0.0, 1.0, 0.0], [-0.0, 0.0, 0.0, 1.0],
                             [1.0, 1.0, -0.0, -0.0], [0.0, -1.0, 1.0, 0.0]]),
                   np.array([1, -1, 1, -1]),
                   np.array([1.0, 0.0, 2.0, 1.0])))  # signed zeros
    def test_blocks_match_one_pass(self, width, node):
        # a budget of width * n cells gives blocks of width columns
        X, y, w = node
        with search_cells(width * len(X)):
            blocked = tree_module._split_search(X, y, w)
        np.testing.assert_equal(blocked, _best_split(X, y, w))

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_match_one_pass_on_large_tied_nodes(self, width, seed):
        # seven columns: two tied nodes of TestBestSplit side by side and
        # a continuous column, so the best cut may fall in any block
        rng = np.random.default_rng(seed)
        for n in (16, 200, 480):
            for shape in ("grid5", "one_tied", "signed_zero"):
                X, y, w = TestBestSplit.tied_node(shape, n, rng)
                X = np.hstack([rng.normal(size=(n, 1)),
                               TestBestSplit.tied_node("grid5", n, rng)[0], X])
                w[rng.uniform(size=n) < 0.1] = 0.0
                with search_cells(width * n):
                    blocked = tree_module._split_search(X, y, w)
                np.testing.assert_equal(blocked, _best_split(X, y, w),
                                        err_msg=f"{shape}, n = {n}")

    @settings(max_examples=150, deadline=None)
    @given(training_sets())
    @split_edge_examples
    def test_trees_match_the_closure_grower_in_blocks(self, training_set):
        # a budget of 2 cells searches every node of two or more rows one
        # column at a time, zero-weight nodes through _live_split
        X, y, w, max_depth = training_set
        with search_cells(2):
            tree = fit_tree(X, y, w, max_depth)
        assert tree_bits(tree) == tree_bits(closure_fit_tree(X, y, w,
                                                             max_depth))

    def test_traced_peak_of_a_depth_8_fit(self):
        # the root's 5e4 rows exceed the budget, so it is searched one
        # column at a time: measured at 2.9 times X (17 in one pass)
        rng = np.random.default_rng(0)
        n, d = 5 * 10 ** 4, 10
        X = rng.uniform(size=(n, d))
        y = np.where(rng.uniform(size=n) < 0.3, 1, -1)
        w = np.ones(n)
        gc.collect()
        tracemalloc.start()
        try:
            tree = fit_tree(X, y, w, max_depth=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        check_tree(tree)
        assert tree.n_nodes > 3
        assert peak <= 4 * X.nbytes, f"peak {peak / X.nbytes:.2f}x"


class TestBinaryEntropy:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(1, 300),
                  elements=st.sampled_from(ENTROPY_EDGES)
                  | st.floats(0.0, 1.0)))
    def test_matches_masked_oracle_bit_for_bit(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = _binary_entropy(p)
        # equal bit patterns: 0.0 and -0.0 differ, and so would any NaN
        np.testing.assert_array_equal(h.view(np.uint64),
                                      masked_binary_entropy(p).view(np.uint64))


class TestOracleGuard:
    @pytest.mark.parametrize("max_depth", [1, 8])
    def test_fold_models_match_loop_oracle(self, monkeypatch, max_depth):
        """One fold of three stand-ins trains byte-identical models with the
        library's split search and with the loop oracle.  pima's balanced
        subsamples hold about 480 rows, so its boosting rounds sort nodes
        of 256 rows or more (its fold 0 leaves a stump model with no
        stage, so it runs fold 1)."""
        cfg = ExperimentConfig(dataset_paths=(), max_depth=max_depth)
        folds = {"glass0": 0, "winequality-red-8_vs_6": 0, "pima": 1}
        stand_ins = [generate_catalog_dataset(e) for e in BENCHMARK_CATALOG
                     if e.name in folds]

        def fold_models():
            out = []
            for ds in stand_ins:
                # the runner trains the folds before this one too
                reason, scored = next(itertools.islice(
                    bench._folds(ds, cfg, 0), folds[ds.name], None))
                assert reason is None
                out += [model_bits(m) for m in scored[0].values()]
            return out

        library = fold_models()
        calls = []

        def oracle(X, y, w):
            calls.append(X.shape)
            return loop_best_split(X, y, w)

        monkeypatch.setattr("liuboost.tree._best_split", oracle)
        assert fold_models() == library
        assert max(rows for rows, _ in calls) >= 256


def tree_from_nodes(nodes, d):
    """A DecisionTree of [feature, threshold, left, right, label] rows."""
    feature, threshold, left, right, label = zip(*nodes)
    return DecisionTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        label=np.array(label, dtype=np.int64), n_features=d)


def complete_tree(depth, d, split_on, leaf_labels):
    """A complete tree of the given depth, numbered in pre-order, that
    takes its (feature, threshold) pairs and its leaf labels in order from
    the iterators split_on and leaf_labels."""
    nodes = []  # [feature, threshold, left, right, label] rows

    def build(level):
        node, row = len(nodes), [-1, np.nan, -1, -1, 0]
        nodes.append(row)
        if level == depth:
            row[4] = next(leaf_labels)
        else:
            row[:2] = next(split_on)
            row[2] = build(level + 1)
            row[3] = build(level + 1)
        return node

    build(0)
    return tree_from_nodes(nodes, d)


@st.composite
def complete_trees(draw, depth=8):
    """A complete tree of the given depth with features, thresholds and
    leaf labels drawn; the thresholds come from a small grid, so a path
    may contradict itself and reach no row."""
    d = draw(st.integers(1, 4))
    n_inner = 2 ** depth - 1
    split_on = zip(
        draw(arrays(np.int64, n_inner, elements=st.integers(0, d - 1))),
        draw(arrays(np.float64, n_inner,
                    elements=st.sampled_from([-1.0, 0.0, 0.5, 1.0]))))
    leaf_labels = iter(draw(arrays(np.int64, n_inner + 1,
                                   elements=st.sampled_from([-1, 1]))))
    return complete_tree(depth, d, split_on, leaf_labels)


def _leaf(label):
    return [-1, np.nan, -1, -1, label]


def _split(f, threshold, left, right):
    return [f, threshold, left, right, 0]


# one tree of two features for each branch of predict_many's routing rule
ROUTING_SHAPES = {
    "one-leaf": [_leaf(1)],
    "stump": [_split(0, 0.5, 1, 2), _leaf(-1), _leaf(1)],
    "two-leaf-splits-below-the-root": [
        _split(0, 0.5, 1, 4), _split(1, 0.0, 2, 3), _leaf(1), _leaf(-1),
        _split(1, 1.0, 5, 6), _leaf(-1), _leaf(1)],
    "leaf-left-of-an-internal-sibling-at-the-root": [
        _split(0, 0.5, 1, 2), _leaf(1), _split(1, 0.0, 3, 4), _leaf(-1),
        _leaf(1)],
    "leaf-right-of-an-internal-sibling-at-the-root": [
        _split(0, 0.5, 1, 4), _split(1, 0.0, 2, 3), _leaf(-1), _leaf(1),
        _leaf(-1)],
    "leaf-beside-an-internal-sibling-deeper": [
        _split(0, 0.5, 1, 6),
        _split(1, 0.0, 2, 3), _leaf(1),
        _split(0, 0.0, 4, 5), _leaf(-1), _leaf(1),
        _split(1, 1.0, 7, 10),
        _split(0, 1.0, 8, 9), _leaf(1), _leaf(-1),
        _leaf(-1)],
}
# every pair of values around the thresholds: each leaf above gets rows
ROUTING_GRID = np.array(list(itertools.product(
    [-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5], repeat=2)))


def assert_routes_like_walk(tree, X):
    np.testing.assert_array_equal(tree.predict_many(X),
                                  [walk_tree(tree, x) for x in X])


class TestPrediction:
    @settings(max_examples=200, deadline=None)
    @given(training_sets(), st.data())
    def test_predict_many_matches_walk_on_fitted_trees(self, training_set,
                                                      data):
        # depth 0-8 on tied, continuous and zero-weight data; the queries
        # add rows outside the training range
        X, y, w, max_depth = training_set
        tree = fit_tree(X, y, w, max_depth)
        outside = data.draw(arrays(
            np.float64, (data.draw(st.integers(0, 20)), X.shape[1]),
            elements=st.floats(-1e3, 1e3) | st.sampled_from(
                [-1e300, -0.0, 0.0, 1e300]), fill=st.nothing()))
        assert_routes_like_walk(tree, np.vstack([X, outside]))

    @settings(max_examples=50, deadline=None)
    @given(complete_trees(), st.data())
    def test_predict_many_matches_walk_on_a_complete_tree(self, tree, data):
        # 511 nodes: under 256 rows some leaves receive none, and some
        # nodes route an empty index array
        assert tree.n_nodes == 511
        check_tree(tree)
        X = data.draw(arrays(
            np.float64, (data.draw(st.integers(0, 300)), tree.n_features),
            elements=st.sampled_from([-2.0, -1.0, 0.0, 0.5, 0.75, 1.0, 2.0])
            | st.floats(-3, 3), fill=st.nothing()))
        assert_routes_like_walk(tree, X)

    @pytest.mark.parametrize("X", [ROUTING_GRID, ROUTING_GRID[:0]],
                             ids=["grid", "no-rows"])
    @pytest.mark.parametrize("nodes", ROUTING_SHAPES.values(),
                             ids=ROUTING_SHAPES.keys())
    def test_each_branch_of_the_routing_rule(self, nodes, X):
        tree = tree_from_nodes(nodes, 2)
        check_tree(tree)
        out = tree.predict_many(X)
        assert out.dtype == np.int64 and out.shape == (len(X),)
        assert_routes_like_walk(tree, X)

    def test_shapes_reach_every_leaf(self):
        # the grid routes rows to each leaf of each shape, so every branch
        # of the rule labels some row
        for nodes in ROUTING_SHAPES.values():
            tree = tree_from_nodes(nodes, 2)
            reached = {leaf_of(tree, x) for x in ROUTING_GRID}
            assert reached == set(np.flatnonzero(tree.feature < 0).tolist())

    def test_traced_peak_of_a_complete_depth_8_tree(self):
        # besides the (m,) output at most m row indices wait on the stack,
        # plus the node being split: measured at 3.0 times the output
        rng = np.random.default_rng(0)
        m, d = 10 ** 5, 4
        tree = complete_tree(
            8, d, zip(rng.integers(0, d, 255).tolist(),
                      rng.uniform(0.2, 0.8, 255).tolist()),
            iter(rng.choice([-1, 1], 256).tolist()))
        X = rng.uniform(size=(m, d))
        gc.collect()
        tracemalloc.start()
        try:
            out = tree.predict_many(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_routes_like_walk(tree, X[:2000])
        assert peak <= 4 * out.nbytes, f"peak {peak / out.nbytes:.2f}x"

    def test_predict_many_matches_single(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 4))
        y = np.where(X[:, 0] * X[:, 1] > 0, 1, -1)
        tree = fit_tree(X, y, np.ones(80), max_depth=4)
        assert_routes_like_walk(tree, rng.normal(size=(100, 4)))

    def test_dimension_mismatch(self):
        tree = fit_tree(np.zeros((2, 2)), np.array([1, -1]), np.ones(2))
        with pytest.raises(ValueError):
            tree.predict_many(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            tree.predict_many(np.zeros(2))


class TestSerialization:
    """Malformed tree structures, the ones a tree file was checked for
    when it was loaded: check_tree, the oracle every fitted tree passes,
    rejects each of them."""

    @staticmethod
    def stump():
        tree = fit_tree(np.array([[0.0], [1.0]]), np.array([-1, 1]),
                        np.ones(2), max_depth=1)
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.label[1:].tolist() == [-1, 1]
        check_tree(tree)
        return tree

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
        # a root that is its own child would make prediction loop forever
        ({"feature": [0], "threshold": [0.5], "left": [5], "right": [0],
          "label": [0]}, "child index"),
        # arrays fit_tree never builds, which numpy indexing would accept
        ({"feature": np.array([True, False, False])},
         "'feature' is not a int64 array"),
        ({"left": np.array([1.0, -1.0, -1.0])}, "'left' is not a int64 array"),
        ({"threshold": np.array(["0.5", "nan", "nan"])},
         "'threshold' is not a float64 array"),
        ({"right": "2"}, "'right' is not a int64 array"),
        ({"n_features": 1.0}, "'n_features' is not an int"),
        ({"n_features": -1}, "'n_features' is not an int >= 0"),
        ({"label": np.array([0, -1, 2**63], dtype=object)},
         "'label' is not a int64 array"),
    ], ids=["ragged", "empty", "child-past-end", "child-before-node",
            "internal-without-child", "leaf-with-child", "feature-past-end",
            "feature-negative", "threshold-inf", "leaf-label-7",
            "one-node-cycle", "bool-feature", "float-child",
            "string-threshold", "string-children", "float-n-features",
            "negative-n-features", "label-overflow"])
    def test_malformed_file_rejected(self, change, message):
        fields = {key: np.asarray(value, dtype=np.float64 if key == "threshold"
                                  else np.int64)
                  if isinstance(value, list) else value
                  for key, value in change.items()}
        tree = dataclasses.replace(self.stump(), **fields)
        with pytest.raises(AssertionError, match=message):
            check_tree(tree)

    @pytest.mark.parametrize("d", [[], 5, None, {}])
    def test_not_a_tree_object_rejected(self, d):
        with pytest.raises(AssertionError, match="not a DecisionTree"):
            check_tree(d)
