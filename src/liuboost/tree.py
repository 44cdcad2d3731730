"""Weighted gain-ratio decision tree, the boosting weak learner.

Binary numeric splits, no pruning: boosting wants low-bias weak learners
and handles errors by reweighting.  Sample weights are normalized, so
any positive rescaling gives the same tree.  Depth is the one parameter;
the other stopping rules are the constants MIN_LEAF_WEIGHT and MIN_GAIN.
fit_tree states the growth rule and its memory, _best_split the split
order and its ties, _split_search its column blocks, and
DecisionTree.predict_many the routing rule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import as_labels, is_count

MIN_LEAF_WEIGHT = 0.01  # fraction of total weight
MIN_GAIN = 1e-7
_TINY = 5e-324  # the smallest positive float: its log is finite
# Reductions call the ufunc's reduce (np.add.reduce for ndarray.sum, and
# so on): the methods reach the same reduction through a Python function,
# so the bits agree and a fit's many small nodes skip a frame.

# The most cells (rows times columns) that one pass of the split search
# takes: above it, passes over blocks of columns are no slower, and one
# pass's arrays outgrow a core's cache (CHANGES.md has the sweep).
_SEARCH_CELLS = 2 ** 15


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
        """The leaf label of each row of an (m, n_features) matrix.

        The root compares its whole column, go = X[:, f] <= threshold;
        every other node compares the gather of its column at its rows,
        an index array (rows.compress(go): rows[go], but faster on a
        mixed mask).  A split of two leaves labels its rows by one
        np.where, so a stump labels every row by one comparison.

        Memory: besides the (m,) output, the rows waiting on the stack
        are disjoint, so at most m row indices wait there, plus the node
        being split: its rows, the gather of its column, its comparison
        and its children's rows.  README Memory has the measured peaks.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError("feature dimensionality mismatch")
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right, label = (self.left.tolist(), self.right.tolist(),
                              self.label.tolist())
        if feature[0] < 0:
            return np.full(X.shape[0], label[0])
        stack = [(0, None)]  # None: every row, at the root
        while stack:
            node, rows = stack.pop()
            a, b = left[node], right[node]
            column = X[:, feature[node]]
            go = (column if rows is None else column[rows]) <= threshold[node]
            if feature[a] < 0 and feature[b] < 0:
                labels = np.where(go, label[a], label[b])
                if rows is None:  # a stump
                    return labels
                out[rows] = labels
                continue
            if rows is None:
                out = np.empty(X.shape[0], dtype=np.int64)
                kids = go.nonzero()[0], (~go).nonzero()[0]
            else:
                kids = rows.compress(go), rows.compress(~go)
            for child, at in zip((a, b), kids):
                if feature[child] < 0:
                    out[at] = label[child]
                else:
                    stack.append((child, at))
        return out


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
    """Best (gain_ratio, feature, threshold) over all midpoint cuts.

    Every feature is scored in one pass over feature-major (d, n) arrays:
    row j holds the node's rows in the stable order of feature j, and
    position c is the cut between sorted rows c and c + 1, valid where
    their values differ and both sides carry weight.  The order must be
    the stable one, since a weight prefix sum over tied rows depends on
    their order in the last bit.  The columns take numpy's default sort,
    faster but unstable, and then each run of equal values (-0.0 equals
    0.0) is put back in row order by one sort of the unique keys
    run * n + row, run numbering the runs of the sorted column.  A node
    with no tie in any column skips that sort.

    The argmax over the valid cuts, kept as flat indices j * (n - 1) + c,
    takes the first maximum: equal gain ratios go to the lower feature,
    then the lower threshold.  The threshold is lo / 2 + hi / 2, which
    cannot overflow; between adjacent floats that rounds to hi, so lo is
    taken instead and the cut still separates them.  The sorted values
    come from a sort of their own, so the signs within a run of zeros may
    stand in any order, and no sign reaches a threshold: lo and hi lie in
    different runs, so at most one is a zero.  A zero lo gives
    mid = hi / 2 < hi, taken; a zero hi makes lo negative, and mid is
    lo / 2, taken, or a zero, and then lo is taken.

    Returns (-inf, -1, nan) when no cut is valid.  With finite inputs
    (fit_tree checks them) every ratio is finite, so no NaN reaches the
    argmax.
    """
    n, d = X.shape
    pos = y == 1
    W = np.add.reduce(w)
    Wp = np.add.reduce(w[pos])
    order = X.argsort(axis=0).T
    xs = X.copy()  # np.sort(X, axis=0), without its Python wrapper
    xs.sort(axis=0)
    xs = xs.T
    step = xs[:, :-1] < xs[:, 1:]
    if not np.logical_and.reduce(step, axis=None):
        # run ids stay put: the repair moves rows only within their run
        run = np.zeros((d, n), dtype=np.int64)
        np.cumsum(step, axis=1, out=run[:, 1:])
        run *= n
        key = run + order
        key.sort(axis=1)
        order = key - run
    wl = w[order].cumsum(axis=1)[:, :-1]
    plc = (w * pos)[order].cumsum(axis=1)[:, :-1]
    # W - wl > 0 exactly when wl < W: a float difference is 0 only
    # between equal floats
    flat = (step & (wl > 0) & (wl < W)).ravel().nonzero()[0]
    if not flat.size:
        return -np.inf, -1, np.nan
    wl, plc = wl.take(flat), plc.take(flat)
    wr = W - wl
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


def _split_search(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """_best_split of a node, taken over blocks of its columns when the
    node holds more than _SEARCH_CELLS cells (rows times columns).

    There are as few blocks of equal width as keep each block within
    max(_SEARCH_CELLS, n) cells, so a search holds one block's arrays.
    Each column's sort, tie repair, prefix sums and ratios are those of
    one pass, and a later block replaces the best split only with a
    strictly larger ratio, so the first maximum in feature-major order
    wins, as in one pass: the result is the same, bit for bit.
    """
    n, d = X.shape
    if n * d <= _SEARCH_CELLS:
        return _best_split(X, y, w)
    blocks = -(-d // max(1, _SEARCH_CELLS // n))
    width = -(-d // blocks)
    best = -np.inf, -1, np.nan
    for start in range(0, d, width):
        ratio, j, thr = _best_split(X[:, start:start + width], y, w)
        if ratio > best[0]:
            best = ratio, start + j, thr
    return best


def _live_split(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """_split_search of a node's rows of positive weight, searched in
    place when every row has one."""
    live = w > 0
    if not np.logical_and.reduce(live):
        X, y, w = X[live], y[live], w[live]
    return _split_search(X, y, w)


def _leaf_label(weight: float, wpos: float) -> int:
    """The label of a leaf of that weight, wpos of it on +1 rows: ties,
    and leaves holding only zero-weight instances, go to -1."""
    return 1 if wpos > weight - wpos else -1


def _children(X: np.ndarray, y: np.ndarray, w: np.ndarray,
              go_left: np.ndarray, every_live: bool, at_max: bool) -> list:
    """The left and right child of a split of the rows (X, y, w) by the
    mask go_left, each as the label of a leaf that the split settles or
    as ([X, y, w] of its rows, their weight sum).  every_live says that
    every weight is positive, at_max that the children are at max_depth.
    fit_tree states the rule."""
    pos = y == 1
    # (live +1 rows, live rows) on each side: exact integers
    if every_live:
        live_left, live_pos, n_live = go_left, pos, len(y)
    else:
        live = w > 0
        live_left, live_pos = go_left & live, pos & live
        n_live = np.count_nonzero(live)
    n_left = np.count_nonzero(live_left)
    pos_left = np.count_nonzero(live_left & live_pos)
    counts = ((pos_left, n_left),
              (np.count_nonzero(live_pos) - pos_left, n_live - n_left))
    kids = []
    for side, (n_pos, n_side) in zip((go_left, ~go_left), counts):
        # a valid cut leaves live rows on both sides
        if n_pos in (0, n_side):
            kids.append(1 if n_pos else -1)
            continue
        # the mask's positions, taken: faster than masking (n, d)
        at = side.nonzero()[0]
        w_side = w[at]
        W_side = np.add.reduce(w_side)
        kids.append(
            _leaf_label(W_side, np.add.reduce(w[side & pos]))
            if at_max or W_side < MIN_LEAF_WEIGHT
            else ([X.take(at, axis=0), y[at], w_side], W_side))
    return kids


def fit_tree(features: np.ndarray, labels: np.ndarray,
             sample_weights: np.ndarray,
             max_depth: int = 8) -> DecisionTree:
    """Greedy top-down induction maximizing weighted gain ratio.

    Growth stops at max_depth, on a pure node, below MIN_LEAF_WEIGHT of
    node weight, or when the best gain ratio is below MIN_GAIN.
    Zero-weight rows take no part in split statistics but are routed to
    leaves.  NaN or infinite features or weights are rejected.

    The tree grows in one loop over a stack of pending nodes, each a
    settled leaf's label or its rows with their weight sum, so depth is
    not bounded by Python's recursion limit.  A split pushes its right
    child under its left, so nodes are numbered in pre-order.  Memory: a
    fit holds the rows of the node it grows and of the right children on
    the stack, disjoint rows, so with the split in hand at most two
    copies of the input beyond it, and the arrays of one block of
    _split_search (README Memory).

    A split settles each child sure to be a leaf before any child takes
    rows: one at max_depth, one whose live rows (of positive weight)
    carry one label, and one whose masked weight sum is below
    MIN_LEAF_WEIGHT.  Purity is decided by counting rows, never by
    comparing float sums, which a -1 row of weight 1e-300 would leave
    equal: with only +1 live rows the +1 sum and the total add the same
    positive weights, so the leaf rule gives +1, and with no live +1 row
    the +1 sum is zero, which gives -1.  Any other settled child is
    labelled from the split's rows under its mask: the masked weights are
    the elements, in the order, that the child's own rows would hold, so
    their sums are bit-equal to the child's.  Only impure children of at
    least MIN_LEAF_WEIGHT take their rows.

    When every weight of the root is positive so is every child's, and
    each node goes straight to _split_search; otherwise _live_split drops
    a node's zero-weight rows first.  A pure root gets no split either
    way: its best gain ratio is 0 or -inf, below MIN_GAIN.
    """
    if not (is_count(max_depth) and max_depth >= 0):
        raise ValueError("max_depth must be >= 0")
    X = np.asarray(features, dtype=np.float64)
    y = as_labels(labels)
    w = np.asarray(sample_weights, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],) or w.shape != y.shape:
        raise ValueError("features/labels/weights dimension mismatch")
    for name, values in (("features", X), ("weights", w)):
        if not np.logical_and.reduce(np.isfinite(values), axis=None):
            raise ValueError(f"{name} must be finite (no NaN or inf)")
    W = np.add.reduce(w)
    lowest = np.minimum.reduce(w, initial=np.inf)  # inf with no rows
    if lowest < 0 or not 0 < W < np.inf:
        raise ValueError(
            "weights must be nonnegative with a positive, finite sum")
    w = w / W
    # x / W rounds monotonically in x, so lowest / W is the least
    # normalized weight, and a child's rows are some of the root's
    every_live = lowest / W > 0
    search = _split_search if every_live else _live_split

    nodes = []  # [feature, threshold, left, right, label] rows
    # an entry: a settled leaf's label or a node's ([X, y, w], weight
    # sum), its depth, and the parent row and field (2 or 3) that take its
    # id; the root's parent row is a throwaway
    stack = [(([X, y, w], np.add.reduce(w)), 0, [None] * 3, 2)]
    while stack:
        node, depth, parent, field = stack.pop()
        parent[field] = len(nodes)
        if isinstance(node, int):
            nodes.append([-1, np.nan, -1, -1, node])
            continue
        (Xn, yn, wn), Wn = node
        row = [-1, np.nan, -1, -1, 0]
        nodes.append(row)
        # only the root can be at max_depth; a node with rows weighs at
        # least MIN_LEAF_WEIGHT (the root about 1)
        if depth < max_depth:
            ratio, f, thr = search(Xn, yn, wn)
            if ratio >= MIN_GAIN:
                row[:2] = f, thr
                kids = _children(Xn, yn, wn, Xn[:, f] <= thr, every_live,
                                 depth + 1 == max_depth)
                # right, then left on top: pre-order, and kids ends empty
                stack += ((kids.pop(), depth + 1, row, 3),
                          (kids.pop(), depth + 1, row, 2))
                continue
        row[4] = _leaf_label(Wn, np.add.reduce(wn[yn == 1]))
    feature, threshold, left, right, label = zip(*nodes)
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        label=np.asarray(label, dtype=np.int64),
        n_features=X.shape[1],
    )
