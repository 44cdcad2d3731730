"""Weighted gain-ratio decision tree used as the boosting weak learner.

Binary numeric splits only; no pruning (boosting wants low-bias weak
learners and handles errors by reweighting).  Sample weights are
normalized internally, so any positive rescaling yields the same tree.
Depth is the tree's one parameter; the other two stopping rules are the
constants MIN_LEAF_WEIGHT and MIN_GAIN.

The split search scores every feature of a node in one pass: one stable
column-wise argsort gives feature-major (d, n) sorted values and weight
prefix sums, and one argmax over all valid cuts picks the lowest feature,
then the lowest threshold, among equal gain ratios.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

MIN_LEAF_WEIGHT = 0.01  # fraction of total weight
MIN_GAIN = 1e-7


@contextmanager
def _decoding():
    """As a decorator: what a decoder lets out on a malformed model is
    raised as one ValueError naming the cause (a KeyError names the key)."""
    try:
        yield
    except (KeyError, TypeError, AttributeError, OverflowError) as e:
        raise ValueError(f"malformed model: {e!r}") from e


def _json_array(d: dict, key: str, kinds: tuple) -> np.ndarray:
    """d[key] as an array, if it is a JSON array of items of these exact
    types: numpy would quietly coerce bools, strings and fractions."""
    if type(d[key]) is not list or any(type(v) not in kinds for v in d[key]):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"model {key!r} is not a list of {names}")
    return np.asarray(d[key], dtype=np.float64 if float in kinds else np.int64)


@dataclass(frozen=True)
class DecisionTree:
    """Flat-array binary tree; feature == -1 marks a leaf."""

    feature: np.ndarray     # (n_nodes,) int, -1 for leaves
    threshold: np.ndarray   # (n_nodes,) float
    left: np.ndarray        # (n_nodes,) int child ids, -1 for leaves
    right: np.ndarray
    label: np.ndarray       # (n_nodes,) int in {-1, +1}, leaves only
    n_features: int

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError("feature dimensionality mismatch")
        out = np.empty(X.shape[0], dtype=np.int64)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if self.feature[node] < 0:
                out[idx] = self.label[node]
                continue
            go_left = X[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], idx[go_left]))
            stack.append((self.right[node], idx[~go_left]))
        return out

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "label": self.label.tolist(),
            "n_features": self.n_features,
        }

    @classmethod
    @_decoding()
    def from_dict(cls, d: dict) -> "DecisionTree":
        # files written before may also hold "params" and "confidence"
        if type(d["n_features"]) is not int or d["n_features"] < 0:
            raise ValueError("model 'n_features' is not an int >= 0")
        tree = cls(**{key: _json_array(d, key, (int,)) for key in
                      ("feature", "left", "right", "label")},
                   threshold=_json_array(d, "threshold", (int, float)),
                   n_features=d["n_features"])
        tree._check()
        return tree

    def _check(self) -> None:
        """Reject a tree that fit_tree cannot build.  fit_tree numbers nodes
        in pre-order, so every child index is above its parent's: that is
        what makes prediction on a loaded tree terminate."""
        n = self.feature.size
        arrays = (self.feature, self.threshold, self.left, self.right,
                  self.label)
        if n == 0 or any(a.shape != (n,) for a in arrays):
            raise ValueError("tree node arrays must be nonempty and of "
                             "equal length")
        leaf = self.feature == -1
        node = np.arange(n)
        for child in (self.left, self.right):
            if (np.where(leaf, child != -1,
                         (child <= node) | (child >= n))).any():
                raise ValueError("tree child index must be -1 at a leaf and "
                                 "in (node, n_nodes) at an internal node")
        if (~leaf & ((self.feature < 0) | (self.feature >= self.n_features)
                     | ~np.isfinite(self.threshold))).any():
            raise ValueError("internal tree node needs a feature in "
                             "[0, n_features) and a finite threshold")
        if (leaf & (np.abs(self.label) != 1)).any():
            raise ValueError("tree leaf label must be -1 or +1")


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    """Entropy (natural log) of a two-class distribution given P(+1)."""
    p = np.clip(p, 0.0, 1.0)
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        nz = q > 0
        out[nz] -= q[nz] * np.log(q[nz])
    return out


def _best_split(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Best (gain_ratio, feature, threshold) over all midpoint candidates.

    All features are scored in one pass over feature-major (d, n) arrays:
    row j holds the node's rows sorted (stably) by feature j, and position
    c of a row is the cut between sorted rows c and c + 1.  A cut is valid
    where those two values differ and both sides carry weight.  The flat
    argmax over the valid cuts, in feature-major order, takes the first
    maximum: ties among equal gain ratios resolve to the lower feature
    index, then the lower threshold.  Returns (-inf, -1, nan) when no valid
    cut exists.  With finite inputs (fit_tree checks them) every ratio is
    finite, so no NaN reaches the argmax.
    """
    W = w.sum()
    Wp = w[y == 1].sum()
    h_parent = float(_binary_entropy(np.array([Wp / W]))[0])
    order = np.argsort(X, axis=0, kind="stable").T
    xs = np.take_along_axis(X.T, order, axis=1)
    ws = w[order]
    wl = np.cumsum(ws, axis=1)[:, :-1]
    plc = np.cumsum(ws * (y[order] == 1), axis=1)[:, :-1]
    wr = W - wl
    ok = (xs[:, :-1] < xs[:, 1:]) & (wl > 0) & (wr > 0)
    if not ok.any():
        return -np.inf, -1, np.nan
    wl, wr, plc = wl[ok], wr[ok], plc[ok]
    fl, fr = wl / W, wr / W
    gain = h_parent - fl * _binary_entropy(plc / wl) \
        - fr * _binary_entropy((Wp - plc) / wr)
    split_info = -(fl * np.log(fl) + fr * np.log(fr))
    ratio = gain / split_info
    i = int(np.argmax(ratio))
    j, c = np.argwhere(ok)[i]
    return float(ratio[i]), int(j), (xs[j, c] + xs[j, c + 1]) / 2.0


def fit_tree(features: np.ndarray, labels: np.ndarray,
             sample_weights: np.ndarray,
             max_depth: int = 8) -> DecisionTree:
    """Greedy top-down induction maximizing weighted gain ratio.

    Recursion stops at max_depth, on a pure node, when node weight falls
    below MIN_LEAF_WEIGHT, or when the best gain ratio is below MIN_GAIN.
    Zero-weight instances are excluded from split statistics but still
    routed to leaves.  NaN or infinite features or weights are rejected.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    w = np.asarray(sample_weights, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],) or w.shape != y.shape:
        raise ValueError("features/labels/weights dimension mismatch")
    for name, values in (("features", X), ("weights", w)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite (no NaN or inf)")
    W = w.sum()
    if (w < 0).any() or not 0 < W < np.inf:
        raise ValueError(
            "weights must be nonnegative with a positive, finite sum")
    w = w / W

    feature, threshold, left, right, label = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        label.append(0)
        return len(feature) - 1

    def make_leaf(node, idx):
        wpos = w[idx][y[idx] == 1].sum()
        wneg = w[idx].sum() - wpos
        # ties, and leaves holding only zero-weight instances, go to -1
        label[node] = 1 if wpos > wneg else -1

    def build(idx, depth):
        node = new_node()
        active = idx[w[idx] > 0]
        # weights sum to 1: a node with no weighted row is below
        # MIN_LEAF_WEIGHT; with no valid cut, the ratio is -inf < MIN_GAIN
        if (depth >= max_depth or w[idx].sum() < MIN_LEAF_WEIGHT
                or (y[active] == y[active[0]]).all()):
            make_leaf(node, idx)
            return node
        ratio, f, thr = _best_split(X[active], y[active], w[active])
        if ratio < MIN_GAIN:
            make_leaf(node, idx)
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
