"""Per-instance cost assignment from k-nearest-neighbor class composition.

Every training instance receives a pair (weight_plus, weight_minus):
weight_plus amplifies the boosting weight increase when the instance is
misclassified, weight_minus accelerates the decrease when it is correct.
Instances in hostile neighborhoods (few same-class neighbors) get large
weight_plus; instances in safe neighborhoods get large weight_minus.

The costs read only how many of each row's k nearest rows share its
class, and they are exact: the same as from a full exact k-NN search.
That search uses one index, a k-d tree (Friedman, Bentley & Finkel, ACM
TOMS 1977), so it holds O(m k) memory, not an m x m distance matrix.
Rows whose k-th and (k+1)-th candidates are too close to rank safely
(distance ties) are settled from the same tree: a ball query just past
the k-th distance collects every tied row, and those few candidates are
ranked exactly.  One relative tolerance, _MARGIN, decides both what is
too close and how far past the ball goes.

Most majority rows of an imbalanced split are safe: all k neighbours
share their class (Napierala & Stefanowski, JIIS 2016).  Such a row is
certified without the exact search.  Any k other rows bound a row's
k-th distance from above.  When the nearest +1 row, from a small tree
over the +1 rows, lies beyond such a bound by more than _MARGIN, every
row the exact search could return is a majority row: the count is k,
as the search would give.  The certificate runs in two passes.  The
first reads each row's bound from its own leaf of the tree, by one
cdist per leaf: it is cheap and proves most safe rows.  The second
queries only the rows the first left, with an approximate query on the
same tree (cKDTree's eps = _EPS; Arya et al., JACM 1998), whose k+1
candidates give tighter bounds; any eps gives an upper bound, so eps
moves speed and never a count.  The +1 rows, the rows that fail both
passes, and every row of a split with fewer than _CERTIFY_ROWS more
majority than +1 rows take the exact search.

The tree has leaves of up to _LEAF_ROWS = 64 rows.  Leaf size cannot
change a neighbour set: a settled row has a strict gap at its k-th
distance, so any exact search returns the same k rows, and a tied row
is ranked from an exact ball query.

Each tree query runs on one thread per _ROWS_PER_WORKER of its query
rows, up to the cores this process may run on, so small queries stay on
one thread.  Each query row is answered on its own, so the neighbour
sets, and every cost, are the same at any worker count.
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

# Query rows per k-d tree worker thread.  Below about twice this a second
# thread costs more than it saves (timings in CHANGES.md).
_ROWS_PER_WORKER = 2048

# Rows per k-d tree leaf.  A leaf is scanned by brute force; leaves of 64
# rows rather than cKDTree's 16 build a shallower tree that answers the
# benchmark's training splits (hundreds to thousands of rows) faster
# (timings in CHANGES.md).
_LEAF_ROWS = 64

# Relative error allowed to the certificate's second pass, the candidate
# query of the rows that their own leaf did not prove safe (cKDTree's
# eps).  Any eps gives an upper bound on a row's k-th distance, so it
# moves speed only, never a count; from 2 to 5 the benchmark's large
# splits certify fastest (timings in CHANGES.md).
_EPS = 2.0

# A training split runs the certificate only when its majority rows
# outnumber its +1 rows by at least this many; every row of another split
# takes the exact search.  On small splits the candidate queries cost
# about as much as the exact query they would save, and a large +1 share
# leaves few rows to certify (timings in CHANGES.md).
_CERTIFY_ROWS = 420


def _query_workers(m: int) -> int:
    """Threads for a k-d tree query over m rows: one per _ROWS_PER_WORKER
    rows, at least one, at most the cores this process may run on."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        cores = os.cpu_count() or 1
    return max(1, min(cores, m // _ROWS_PER_WORKER))


def _neighbor_matrix(features: np.ndarray, k: int) -> np.ndarray:
    """(m, k) matrix whose row i holds the k nearest rows to row i: the
    exact search of every row, on a new tree."""
    tree = cKDTree(features, leafsize=_LEAF_ROWS)
    return _exact_neighbors(tree, features, np.arange(len(features)), k)


def _exact_neighbors(tree: cKDTree, features: np.ndarray, rows: np.ndarray,
                     k: int) -> np.ndarray:
    """(len(rows), k) matrix whose i-th row holds the k nearest rows to
    row rows[i] of the tree's features.

    Euclidean distance, self excluded.  Each row is a set: its order is
    unspecified.  Ties at the k-th distance go to the smaller index.

    Candidates are the k+2 nearest points from the k-d tree, self dropped
    by index (a duplicate point may come before it); when self is not
    among them, the last candidate is dropped instead.  A row is settled
    when its k-th distance is below (1 - _MARGIN) times its (k+1)-th;
    the other rows are resolved by _tied_neighbors from the same tree.
    Memory is O(m k) for the tree and candidates.

    The query runs on _query_workers(len(rows)) threads.  Each thread
    answers its own query rows, so the result does not depend on their
    number.
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

    A leaf of the tree (split_dim -1) holds the rows
    tree.indices[start_idx:end_idx].  Each row's (k+1)-th smallest cdist
    distance to its leaf's rows, self at 0 among them, has at least k
    other rows within it.  A leaf of k rows or fewer gives no bound: inf.
    The distances are taken for _LEAF_ROWS rows at a time, so a block is
    at most _LEAF_ROWS by the leaf's rows (a leaf holds more than
    _LEAF_ROWS rows only when they are copies of one point).
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
        for start in range(0, len(leaf), _LEAF_ROWS):
            rows = leaf[start:start + _LEAF_ROWS]
            bound[rows] = np.partition(cdist(features[rows], features[leaf]),
                                       k, axis=1)[:, k]
    return bound


def _certified_rows(tree: cKDTree, features: np.ndarray, labels: np.ndarray,
                    k: int) -> np.ndarray:
    """The majority rows whose k nearest rows are all majority rows,
    proven without the exact search.

    Each pass gives each majority row still open an upper bound on its
    k-th distance: the first from its own leaf (_leaf_bounds), the
    second, for the rows the first left, from the k+1 candidates of an
    approximate query at eps = _EPS, at least k of them other rows.  A
    row is certified when its nearest +1 row lies beyond its bound by
    more than _MARGIN: then every row at or near its k-th distance is a
    majority row.  The +1 tree is asked once per majority row, before
    the first pass: the distance does not depend on the bound.  The rows
    that fail both passes are left to the exact search.
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
    """(len(rows), k) exact k nearest neighbours of the given query rows.

    Same contract as _exact_neighbors.  kth holds each row's k-th
    distance from the tree.  The tree's ball of radius kth * (1 + _MARGIN)
    holds every row at or below the k-th distance, ties included; those
    candidates are ranked by cdist distance, then index.  cdist computes
    every pair on its own, so a pair's distance does not depend on which
    other rows are ranked with it.
    """
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
    majority rows that either pass of _certified_rows proves safe get
    n_s = k without it.  Every other row, and every row of another split,
    takes the exact search, on the same tree.
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
