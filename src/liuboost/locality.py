"""Per-instance cost assignment from k-nearest-neighbor class composition.

Every training instance receives a pair (weight_plus, weight_minus):
weight_plus amplifies the boosting weight increase when the instance is
misclassified, weight_minus accelerates the decrease when it is correct.
Instances in hostile neighborhoods (few same-class neighbors) get large
weight_plus; instances in safe neighborhoods get large weight_minus.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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


def _squared_distances(features: np.ndarray) -> np.ndarray:
    d = cdist(features, features, "sqeuclidean")
    np.fill_diagonal(d, np.inf)  # never a neighbor of itself
    return d


def _neighbor_matrix(features: np.ndarray, k: int) -> np.ndarray:
    """(m, k) matrix whose row i holds the k nearest rows to row i.

    Euclidean distance, self excluded.  Each row is a set: its order is
    unspecified.  Ties at the k-th distance go to the smaller index.
    """
    d = _squared_distances(features)
    # argpartition is O(m) per row; it picks the right set only when no
    # tie straddles the k-th position, so such rows are redone with a
    # stable full sort (index order among equal distances).
    nearest = np.argpartition(d, k - 1, axis=1)[:, :k]
    kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
    ambiguous = (d <= kth).sum(axis=1) > k
    for i in np.flatnonzero(ambiguous):
        nearest[i] = np.argsort(d[i], kind="stable")[:k]
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
    with np.errstate(divide="ignore"):
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
