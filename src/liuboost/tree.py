"""Weighted gain-ratio decision tree used as the boosting weak learner.

Binary numeric splits only; no pruning (boosting wants low-bias weak
learners and handles errors by reweighting).  Sample weights are
normalized internally, so any positive rescaling yields the same tree.
Depth is the tree's one parameter; the other two stopping rules are the
constants MIN_LEAF_WEIGHT and MIN_GAIN.

The split search scores every feature of a node in one pass: one stable
column-wise argsort gives feature-major (d, n) sorted values and weight
prefix sums, one entropy call covers the parent and both sides of every
valid cut, and one argmax over those cuts picks the lowest feature, then
the lowest threshold, among equal gain ratios.  A node of a boosting
round holds tens of rows, so the search costs numpy calls, not
arithmetic: it makes a fixed number of them per node, whatever d is.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import as_labels

MIN_LEAF_WEIGHT = 0.01  # fraction of total weight
MIN_GAIN = 1e-7
_TINY = 5e-324  # the smallest positive float: its log is finite


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
    """Entropy (natural log) of a two-class distribution given P(+1).

    A zero probability adds 0 * log(_TINY) = -0.0, so no mask is needed
    and no warning is raised.
    """
    p = np.minimum(np.maximum(p, 0.0), 1.0)
    q = 1.0 - p
    return 0.0 - p * np.log(np.maximum(p, _TINY)) \
        - q * np.log(np.maximum(q, _TINY))


def _best_split(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Best (gain_ratio, feature, threshold) over all midpoint candidates.

    All features are scored in one pass over feature-major (d, n) arrays:
    row j holds the node's rows sorted (stably) by feature j, and position
    c of a row is the cut between sorted rows c and c + 1.  A cut is valid
    where those two values differ and both sides carry weight.  The flat
    argmax over the valid cuts, in feature-major order, takes the first
    maximum: ties among equal gain ratios resolve to the lower feature
    index, then the lower threshold.  The valid cuts are kept as flat
    indices j * (n - 1) + c into the (d, n - 1) cut grid, so the winner's
    feature and position are one divmod.  One _binary_entropy call scores
    the parent and the left and right side of every valid cut.  The
    threshold is the midpoint lo / 2 + hi / 2 of the two values, which
    cannot overflow; between adjacent floats that rounds to hi, so lo is
    taken instead and the cut still separates them.  Returns
    (-inf, -1, nan) when no valid cut exists.  With finite inputs
    (fit_tree checks them) every ratio is finite, so no NaN reaches the
    argmax.
    """
    n, d = X.shape
    pos = y == 1
    W = w.sum()
    Wp = w[pos].sum()
    order = X.argsort(axis=0, kind="stable").T
    xs = X[order, np.arange(d)[:, None]]
    wl = w[order].cumsum(axis=1)[:, :-1]
    plc = (w * pos)[order].cumsum(axis=1)[:, :-1]
    wr = W - wl
    flat = np.flatnonzero((xs[:, :-1] < xs[:, 1:]) & (wl > 0) & (wr > 0))
    if not flat.size:
        return -np.inf, -1, np.nan
    wl, wr, plc = wl.take(flat), wr.take(flat), plc.take(flat)
    h = _binary_entropy(np.concatenate(([Wp / W], plc / wl,
                                        (Wp - plc) / wr)))
    fl, fr = wl / W, wr / W
    gain = h[0] - fl * h[1:flat.size + 1] - fr * h[flat.size + 1:]
    split_info = -(fl * np.log(fl) + fr * np.log(fr))
    ratio = gain / split_info
    i = int(ratio.argmax())
    j, c = divmod(int(flat[i]), n - 1)
    lo, hi = xs[j, c], xs[j, c + 1]
    mid = lo / 2 + hi / 2
    return float(ratio[i]), j, mid if mid < hi else lo


def fit_tree(features: np.ndarray, labels: np.ndarray,
             sample_weights: np.ndarray,
             max_depth: int = 8) -> DecisionTree:
    """Greedy top-down induction maximizing weighted gain ratio.

    Recursion stops at max_depth, on a pure node, when node weight falls
    below MIN_LEAF_WEIGHT, or when the best gain ratio is below MIN_GAIN.
    Zero-weight instances are excluded from split statistics but still
    routed to leaves.  NaN or infinite features or weights are rejected.
    Nodes are numbered in pre-order, each before its left, then its right
    subtree, as DecisionTree._check requires.
    """
    X = np.asarray(features, dtype=np.float64)
    y = as_labels(labels)
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

    nodes = []  # [feature, threshold, left, right, label] rows

    def build(idx, depth):
        node, row = len(nodes), [-1, np.nan, -1, -1, 0]
        nodes.append(row)
        wn, yn = w[idx], y[idx]
        Wn = wn.sum()
        live = wn > 0
        ya = yn[live]
        # weights sum to 1: a node with no weighted row is below
        # MIN_LEAF_WEIGHT; with no valid cut, the ratio is -inf < MIN_GAIN
        if not (depth >= max_depth or Wn < MIN_LEAF_WEIGHT
                or (ya == ya[0]).all()):
            ratio, f, thr = _best_split(X[idx[live]], ya, wn[live])
            if ratio >= MIN_GAIN:
                go_left = X[idx, f] <= thr
                row[:4] = (f, thr, build(idx[go_left], depth + 1),
                           build(idx[~go_left], depth + 1))
                return node
        wpos = wn[yn == 1].sum()
        # ties, and leaves holding only zero-weight instances, go to -1
        row[4] = 1 if wpos > Wn - wpos else -1
        return node

    build(np.arange(X.shape[0]), 0)
    del build  # it refers to itself: a cycle would hold X, y, w until gc
    feature, threshold, left, right, label = zip(*nodes)
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        label=np.asarray(label, dtype=np.int64),
        n_features=X.shape[1],
    )
