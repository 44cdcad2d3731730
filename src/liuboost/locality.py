"""Per-instance costs from the class mix of each row's k nearest rows.

Every training row gets a pair (weight_plus, weight_minus): weight_plus
amplifies its boosting weight increase when it is misclassified,
weight_minus accelerates the decrease when it is correct.  Rows in
hostile neighbourhoods (few same-class neighbours) get a large
weight_plus, rows in safe ones a large weight_minus.

The counts are those of an exact k-NN search on one k-d tree (Friedman,
Bentley & Finkel, ACM TOMS 1977).  assign_weights states which rows take
which path and the layer's memory, _exact_neighbors the search and its
tie rule, and _certified_rows the certificate that proves most safe
majority rows without the search (Napierala & Stefanowski, JIIS 2016).
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .data import is_count


@dataclass(frozen=True)
class CostVector:
    """Locality-derived cost pair for each training instance."""

    weight_plus: np.ndarray   # (m,) in (0, 1]
    weight_minus: np.ndarray  # (m,) in (0, 1]
    n_same: np.ndarray        # (m,) same-class neighbor counts
    n_opposite: np.ndarray    # (m,) opposite-class neighbor counts
    k: int
    delta: float


# The one rounding tolerance of the search.  The tree and cdist round each
# distance within a few ulps, far inside this relative gap.  A row whose
# k-th and (k+1)-th tree distances clear it has one k-set under either;
# an unsettled row's ball is widened by it, so rounding cannot push out a
# row tied at the k-th distance.
_MARGIN = 1e-9

# The sizes below move speed, never a count; CHANGES.md has the timings
# that chose them.

# Query rows per k-d tree worker thread: on fewer, a second thread costs
# more than it saves.
_ROWS_PER_WORKER = 2048

# Rows per k-d tree leaf (cKDTree's default is 16).  Leaf size cannot
# change a neighbour set: a settled row has a strict gap at its k-th
# distance, so any exact search returns the same k rows, and a tied row
# is ranked from an exact ball query.
_LEAF_ROWS = 64

# Relative error (cKDTree's eps) of the certificate's second pass.
_EPS = 2.0

# Majority rows in excess of +1 rows from which a split runs the
# certificate: on smaller splits its queries cost about what they save.
_CERTIFY_ROWS = 420


def _query_workers(m: int) -> int:
    """Threads for a k-d tree query over m rows: one per _ROWS_PER_WORKER
    rows, at least one, at most the cores this process may run on."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        cores = os.cpu_count() or 1
    return max(1, min(cores, m // _ROWS_PER_WORKER))


def _exact_neighbors(tree: cKDTree, features: np.ndarray, rows: np.ndarray,
                     k: int) -> np.ndarray:
    """(len(rows), k) matrix whose i-th row holds the k nearest rows to
    row rows[i] of the tree's features: Euclidean distance, self
    excluded, each row a set in unspecified order.  Ties at the k-th
    distance go to the smaller index.

    The candidates are the tree's k+2 nearest points, self dropped by
    index (a duplicate may come before it) or else the last one.  A row
    is settled when its k-th distance is below (1 - _MARGIN) times its
    (k+1)-th; _tied_neighbors resolves the others from the same tree.
    The query runs on _query_workers(len(rows)) threads, each answering
    its own rows, so the result does not depend on their number.
    """
    n = len(rows)
    dist, idx = tree.query(features[rows], k=k + 2,
                           workers=_query_workers(n))
    drop = idx == rows[:, None]
    drop[~drop.any(axis=1), -1] = True
    keep = ~drop
    dist = dist[keep].reshape(n, k + 1)
    nearest = idx[keep].reshape(n, k + 1)[:, :k].copy()
    # with m = k + 1 the (k+1)-th candidate is padding at inf: settled
    unsettled = np.flatnonzero(~(dist[:, k - 1] < (1 - _MARGIN) * dist[:, k]))
    if unsettled.size:
        nearest[unsettled] = _tied_neighbors(
            tree, features, rows[unsettled], dist[unsettled, k - 1], k)
    return nearest


def _leaf_bounds(tree: cKDTree, features: np.ndarray, k: int) -> np.ndarray:
    """(m,) upper bound on each row's k-th distance, from its own leaf.

    A leaf (split_dim -1) holds the rows tree.indices[start_idx:end_idx].
    Each row's (k+1)-th smallest cdist distance to its leaf's rows, self
    at 0 among them, has at least k other rows within it; a leaf of k
    rows or fewer gives inf.  The distances are taken _LEAF_ROWS rows at
    a time (a leaf holds more only when they are copies of one point).
    """
    bound = np.full(len(features), np.inf)
    nodes = [tree.tree]
    while nodes:
        node = nodes.pop()
        if node.split_dim != -1:
            nodes += [node.lesser, node.greater]
            continue
        leaf = tree.indices[node.start_idx:node.end_idx]
        if len(leaf) <= k:
            continue
        points = features[leaf]
        for start in range(0, len(leaf), _LEAF_ROWS):
            block = slice(start, start + _LEAF_ROWS)
            bound[leaf[block]] = np.partition(cdist(points[block], points),
                                              k, axis=1)[:, k]
    return bound


def _certified_rows(tree: cKDTree, features: np.ndarray, labels: np.ndarray,
                    k: int) -> np.ndarray:
    """The majority rows whose k nearest rows are all majority rows,
    proven without the exact search.

    Any k other rows bound a row's k-th distance from above.  A row is
    certified when its nearest +1 row, from a tree over the +1 rows,
    lies beyond such a bound by more than _MARGIN: then every row the
    exact search could return is a majority row, and n_s = k, as the
    search would give.  Pass 1 reads each bound from the row's own leaf
    (_leaf_bounds); pass 2, for the rows pass 1 left, from the k+1
    candidates of an approximate query at eps = _EPS (Arya et al., JACM
    1998).  Any eps gives an upper bound, so eps moves speed, never a
    count.  The rows that fail both passes are left to the exact search.
    """
    plus = cKDTree(features[labels == 1], leafsize=_LEAF_ROWS)
    rows = np.flatnonzero(labels == -1)
    nearest_plus = plus.query(features[rows], k=1,
                              workers=_query_workers(len(rows)))[0]
    bound = _leaf_bounds(tree, features, k)[rows]
    passed = nearest_plus > bound * (1 + _MARGIN)
    certified = rows[passed]
    rows, nearest_plus = rows[~passed], nearest_plus[~passed]
    kth = tree.query(features[rows], k=k + 1, eps=_EPS,
                     workers=_query_workers(len(rows)))[0][:, k]
    return np.concatenate([certified,
                           rows[nearest_plus > kth * (1 + _MARGIN)]])


def _tied_neighbors(tree: cKDTree, features: np.ndarray, rows: np.ndarray,
                    kth: np.ndarray, k: int) -> np.ndarray:
    """_exact_neighbors of the given rows, whose k-th tree distances are
    kth.  The ball of radius kth * (1 + _MARGIN) holds every row at or
    below the k-th distance, ties included; those candidates are ranked
    by cdist distance, then index.  cdist computes each pair on its own,
    so a pair's distance does not depend on the other rows ranked."""
    nearest = np.empty((len(rows), k), dtype=np.intp)
    for out, i, radius in zip(nearest, rows, kth * (1 + _MARGIN)):
        near = np.array(tree.query_ball_point(features[i], radius))
        near = near[near != i]
        d = cdist(features[i:i + 1], features[near], "sqeuclidean")[0]
        out[:] = near[np.lexsort((near, d))[:k]]
    return nearest


def assign_weights(ds, k: int = 5, delta: float = 1.0) -> CostVector:
    """Compute (weight_plus, weight_minus) for every instance of a Dataset.

    With n_s same-class and n_o opposite-class neighbors among the k
    nearest: weight_plus = 1/n_s (delta when n_s = 0) and
    weight_minus = 1/n_o (delta when n_o = 0).

    The counts are those of the exact k-NN search.  On a split whose
    majority rows outnumber its +1 rows by at least _CERTIFY_ROWS, the
    rows that _certified_rows proves safe get n_s = k without it; every
    other row takes the exact search, on the same tree.  Memory: O(m k),
    the tree and each row's neighbours, never an m x m matrix (README
    Memory).
    """
    m = ds.n_instances
    if not is_count(k) or not 1 <= k <= m - 1:
        raise ValueError(f"k={k} must be in [1, m-1] with m={m}")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    X, y = ds.features, ds.labels
    tree = cKDTree(X, leafsize=_LEAF_ROWS)
    searched = np.ones(m, dtype=bool)
    if ds.majority_count - ds.minority_count >= _CERTIFY_ROWS:
        searched[_certified_rows(tree, X, y, k)] = False
    rows = np.flatnonzero(searched)
    n_same = np.full(m, k)
    n_same[rows] = (y[_exact_neighbors(tree, X, rows, k)]
                    == y[rows, None]).sum(axis=1)
    n_opp = k - n_same
    weight_plus = np.where(n_same == 0, delta, 1.0 / np.maximum(n_same, 1))
    weight_minus = np.where(n_opp == 0, delta, 1.0 / np.maximum(n_opp, 1))
    return CostVector(
        weight_plus=weight_plus,
        weight_minus=weight_minus,
        n_same=n_same,
        n_opposite=n_opp,
        k=k,
        delta=delta,
    )
