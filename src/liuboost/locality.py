"""Per-instance cost assignment from k-nearest-neighbor class composition.

Every training instance receives a pair (weight_plus, weight_minus):
weight_plus amplifies the boosting weight increase when the instance is
misclassified, weight_minus accelerates the decrease when it is correct.
Instances in hostile neighborhoods (few same-class neighbors) get large
weight_plus; instances in safe neighborhoods get large weight_minus.

The k-NN search is exact and uses one index, a k-d tree (Friedman,
Bentley & Finkel, ACM TOMS 1977), so it holds O(m k) memory, not an
m x m distance matrix.  Rows whose k-th and (k+1)-th candidates are too
close to rank safely (distance ties) are settled from the same tree: a
ball query just past the k-th distance collects every tied row, and
those few candidates are ranked exactly.  One relative tolerance,
_MARGIN, decides both what is too close and how far past the ball goes.

The tree has leaves of up to _LEAF_ROWS = 64 rows.  Leaf size cannot
change a neighbour set: a settled row has a strict gap at its k-th
distance, so any exact search returns the same k rows, and a tied row
is ranked from an exact ball query.

The tree query runs on one thread per _ROWS_PER_WORKER rows, up to the
cores this process may run on, so small training splits stay on one
thread.  Each query row is answered on its own, so the neighbour sets,
and every cost, are the same at any worker count.
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


def _query_workers(m: int) -> int:
    """Threads for a k-d tree query over m rows: one per _ROWS_PER_WORKER
    rows, at least one, at most the cores this process may run on."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        cores = os.cpu_count() or 1
    return max(1, min(cores, m // _ROWS_PER_WORKER))


def _neighbor_matrix(features: np.ndarray, k: int) -> np.ndarray:
    """(m, k) matrix whose row i holds the k nearest rows to row i.

    Euclidean distance, self excluded.  Each row is a set: its order is
    unspecified.  Ties at the k-th distance go to the smaller index.

    Candidates are the k+2 nearest points from a k-d tree, self dropped
    by index (a duplicate point may come before it); when self is not
    among them, the last candidate is dropped instead.  A row is settled
    when its k-th distance is below (1 - _MARGIN) times its (k+1)-th;
    the other rows are resolved by _tied_neighbors from the same tree.
    Memory is O(m k) for the tree and candidates.

    The query runs on _query_workers(m) threads.  Each thread answers
    its own query rows, so the result does not depend on their number.
    """
    m = len(features)
    tree = cKDTree(features, leafsize=_LEAF_ROWS)
    dist, idx = tree.query(features, k=k + 2, workers=_query_workers(m))
    drop = idx == np.arange(m)[:, None]
    drop[~drop.any(axis=1), -1] = True
    keep = ~drop
    dist = dist[keep].reshape(m, k + 1)
    nearest = idx[keep].reshape(m, k + 1)[:, :k].copy()
    # with m = k + 1 the (k+1)-th candidate is padding at inf: settled
    unsettled = np.flatnonzero(~(dist[:, k - 1] < (1 - _MARGIN) * dist[:, k]))
    if unsettled.size:
        nearest[unsettled] = _tied_neighbors(
            tree, features, unsettled, dist[unsettled, k - 1], k)
    return nearest


def _tied_neighbors(tree: cKDTree, features: np.ndarray, rows: np.ndarray,
                    kth: np.ndarray, k: int) -> np.ndarray:
    """(len(rows), k) exact k nearest neighbours of the given query rows.

    Same contract as _neighbor_matrix.  kth holds each row's k-th
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
    """
    m = ds.n_instances
    if not is_count(k) or not 1 <= k <= m - 1:
        raise ValueError(f"k={k} must be in [1, m-1] with m={m}")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    neighbors = _neighbor_matrix(ds.features, k)
    same = ds.labels[neighbors] == ds.labels[:, None]
    n_same = same.sum(axis=1)
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
