"""Per-instance cost assignment from k-nearest-neighbor class composition.

Every training instance receives a pair (weight_plus, weight_minus):
weight_plus amplifies the boosting weight increase when the instance is
misclassified, weight_minus accelerates the decrease when it is correct.
Instances in hostile neighborhoods (few same-class neighbors) get large
weight_plus; instances in safe neighborhoods get large weight_minus.

The k-NN search is exact.  Candidates come from a k-d tree (Friedman,
Bentley & Finkel, ACM TOMS 1977), so it holds O(m k) memory, not an
m x m distance matrix.  Rows whose k-th and (k+1)-th candidates are too
close to rank safely (distance ties) are redone by a blocked brute-force
search whose working memory stays near a fixed _BLOCK_BYTES budget.

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


@dataclass(frozen=True)
class CostVector:
    """Locality-derived cost pair for each training instance."""

    weight_plus: np.ndarray   # (m,) in (0, 1]
    weight_minus: np.ndarray  # (m,) in (0, 1]
    n_same: np.ndarray        # (m,) same-class neighbor counts
    n_opposite: np.ndarray    # (m,) opposite-class neighbor counts
    k: int
    delta: float


# Byte budget of one block of query-row distances in _blocked_neighbors.
_BLOCK_BYTES = 16 * 2**20

# Relative gap the k-d tree's k-th and (k+1)-th distances must clear for
# its k-set to stand.  Both searches round each distance within a few
# ulps, far inside this gap, so a settled row has one k-set under either.
_MARGIN = 1e-9

# Query rows per k-d tree worker thread.  Below about twice this a second
# thread costs more than it saves (timings in CHANGES.md).
_ROWS_PER_WORKER = 2048


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
    the other rows are redone by _blocked_neighbors, which ranks exact
    ties by index.  Memory is O(m k) for the tree and candidates, plus
    the fallback's _BLOCK_BYTES block budget.

    The query runs on _query_workers(m) threads.  Each thread answers
    its own query rows, so the result does not depend on their number.
    """
    m = len(features)
    dist, idx = cKDTree(features).query(features, k=k + 2,
                                        workers=_query_workers(m))
    drop = idx == np.arange(m)[:, None]
    drop[~drop.any(axis=1), -1] = True
    keep = ~drop
    dist = dist[keep].reshape(m, k + 1)
    nearest = idx[keep].reshape(m, k + 1)[:, :k].copy()
    # with m = k + 1 the (k+1)-th candidate is padding at inf: settled
    unsettled = np.flatnonzero(
        ~(dist[:, k - 1] < (1 - _MARGIN) * dist[:, k]))
    if unsettled.size:
        nearest[unsettled] = _blocked_neighbors(features, unsettled, k)
    return nearest


def _blocked_neighbors(features: np.ndarray, rows: np.ndarray,
                       k: int) -> np.ndarray:
    """(len(rows), k) exact k nearest neighbours of the given query rows.

    Same contract as _neighbor_matrix, by brute force.  Query rows are
    taken in blocks of at most _BLOCK_BYTES of float64 distances (one
    row at least), so besides the result the search holds about two
    blocks at once: one of distances and one of int64 indices (or the
    next block's distances).  cdist computes every pair on its own, so
    the result does not depend on the block height.
    """
    m = len(features)
    height = max(1, _BLOCK_BYTES // (8 * m))
    nearest = np.empty((len(rows), k), dtype=np.intp)
    for start in range(0, len(rows), height):
        query = rows[start:start + height]
        d = cdist(features[query], features, "sqeuclidean")
        d[np.arange(len(query)), query] = np.inf  # never its own neighbor
        # argpartition is O(m) per row; it picks the right set only when
        # no tie straddles the k-th position, so such rows are redone
        # with a stable full sort (index order among equal distances).
        block = nearest[start:start + len(query)]
        block[:] = np.argpartition(d, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(d, block, axis=1).max(axis=1, keepdims=True)
        ambiguous = (d <= kth).sum(axis=1) > k
        for i in np.flatnonzero(ambiguous):
            block[i] = np.argsort(d[i], kind="stable")[:k]
    return nearest


def assign_weights(ds, k: int = 5, delta: float = 1.0) -> CostVector:
    """Compute (weight_plus, weight_minus) for every instance of a Dataset.

    With n_s same-class and n_o opposite-class neighbors among the k
    nearest: weight_plus = 1/n_s (delta when n_s = 0) and
    weight_minus = 1/n_o (delta when n_o = 0).
    """
    m = ds.n_instances
    if not 1 <= k <= m - 1:
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
