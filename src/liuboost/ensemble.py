"""Boosting core: LIUBoost and the RUSBoost baseline, one training loop.

Each round draws a balanced (50:50) undersample, fits a tree on it with
the current distribution D as sample weights, and sets the stage
coefficient alpha and the weight update from cost-weighted masses over
all training rows, not just the subsample.  Undersampling is part of
both algorithms, not a setting.  _boost_loop states the retry rule and
what a model records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import is_count
from .locality import assign_weights
from .resample import random_undersample
from .tree import DecisionTree, fit_tree

MAX_CONSECUTIVE_RETRIES = 10


@dataclass
class RoundRecord:
    """Training trace of one kept stage; its alpha is the matching entry
    of BoostModel.alphas."""

    mis_sum: float
    cor_sum: float
    epsilon: float  # plain weighted error, no costs
    distribution: np.ndarray  # D after update + normalization


@dataclass(frozen=True)
class BoostModel:
    """Ordered stages (alpha_t, tree_t) and how training ended."""

    alphas: tuple[float, ...]
    trees: tuple[DecisionTree, ...]
    retries_exhausted: bool = False
    history: tuple[RoundRecord, ...] = ()

    @property
    def trained_iterations(self) -> int:
        return len(self.alphas)


def compute_alpha(cor_sum: float, mis_sum: float) -> float:
    """Stage coefficient: 0.5 * ln((1 + cor_sum - mis_sum) / (1 - cor_sum + mis_sum)).

    Positive iff cor_sum > mis_sum.  With unit costs (cor_sum = 1 - eps,
    mis_sum = eps) this reduces to the classical 0.5 * ln((1-eps)/eps).
    """
    if not (cor_sum >= 0 and mis_sum >= 0):  # NaN fails it too
        raise ValueError("cor_sum and mis_sum must be nonnegative")
    # nonnegative masses with a sum of at most 1 keep num and den >= 0
    if cor_sum + mis_sum > 1 + 1e-12:
        raise ValueError("requires cor_sum + mis_sum <= 1")
    num = 1.0 + cor_sum - mis_sum
    den = 1.0 - cor_sum + mis_sum
    # den hits 0 exactly when every instance is correct with unit cost
    # (a perfect round); clamp instead of overflowing to +inf, which
    # bounds |alpha| by 0.5 * ln(2e12) < 14.2
    return 0.5 * math.log(max(num, 1e-12) / max(den, 1e-12))


def _check_counts(T, max_depth) -> None:
    """The trainers' checks of their counts, made before any work."""
    if not is_count(T) or T < 1:
        raise ValueError("T must be >= 1")
    if not is_count(max_depth) or max_depth < 0:
        raise ValueError("max_depth must be >= 0")


def _boost_loop(X, y, weight_plus, weight_minus, T, rng,
                max_depth) -> BoostModel:
    """The shared loop, on counts that _check_counts accepted.

    A round whose alpha is not positive is discarded and redrawn.  After
    MAX_CONSECUTIVE_RETRIES failed redraws in a row training stops, and
    the model records retries_exhausted, a Python bool; no warning is
    issued.  history keeps one RoundRecord per kept stage, so D of each:
    up to T·m floats, beside the two D · cost products of the current
    stage (README Memory).
    """
    rng = np.random.default_rng(rng)  # a Generator is passed through
    D = np.full(len(y), 1.0 / len(y))
    # D * cost is taken once per stage and shared by its redraws.  A
    # product does not depend on when it is taken and a sign flip is exact,
    # so the sums and the update exponent have the bits of
    # (D[mis] * weight_plus[mis]).sum() and -alpha * y * pred * cost
    Dp, Dm = D * weight_plus, D * weight_minus
    alphas: list[float] = []
    trees: list[DecisionTree] = []
    history: list[RoundRecord] = []
    retries = 0
    while len(alphas) < T and retries <= MAX_CONSECUTIVE_RETRIES:
        sample = random_undersample(y, rng)
        tree = fit_tree(X.take(sample, axis=0), y[sample], D[sample],
                        max_depth)  # take: faster than X[sample]
        pred = tree.predict_many(X)
        mis = pred != y
        mis_sum = float(np.add.reduce(Dp[mis]))
        cor_sum = float(np.add.reduce(Dm[~mis]))
        alpha = compute_alpha(cor_sum, mis_sum)
        if alpha <= 0:
            retries += 1
            continue
        retries = 0
        epsilon = float(np.add.reduce(D[mis]))
        # |alpha| < 14.2 and every cost is in (0, 1]: no overflow
        D = D * np.exp(np.where(mis, alpha * weight_plus,
                                -alpha * weight_minus))
        # rebinds D, so each record keeps its own array
        D = D / np.add.reduce(D)
        Dp, Dm = D * weight_plus, D * weight_minus
        alphas.append(alpha)
        trees.append(tree)
        history.append(RoundRecord(mis_sum=mis_sum, cor_sum=cor_sum,
                                   epsilon=epsilon, distribution=D))

    return BoostModel(
        alphas=tuple(alphas),
        trees=tuple(trees),
        retries_exhausted=retries > MAX_CONSECUTIVE_RETRIES,
        history=tuple(history),
    )


def train_liuboost(ds, T: int = 10, k: int = 5, delta: float = 1.0,
                   rng=0, max_depth: int = 8) -> BoostModel:
    """Train the cost-sensitive undersampled ensemble on a Dataset.

    Locality costs are computed once on the full training split before the
    boosting loop begins.
    """
    _check_counts(T, max_depth)
    cv = assign_weights(ds, k=k, delta=delta)
    return _boost_loop(ds.features, ds.labels, cv.weight_plus,
                       cv.weight_minus, T, rng, max_depth)


def train_rusboost(ds, T: int = 10, rng=0, max_depth: int = 8) -> BoostModel:
    """Classical undersampled AdaBoost: the shared loop with unit costs."""
    _check_counts(T, max_depth)
    ones = np.ones(ds.n_instances)
    return _boost_loop(ds.features, ds.labels, ones, ones, T, rng, max_depth)


def decision_score(model: BoostModel, X: np.ndarray) -> np.ndarray:
    """Continuous vote margin g(x) = sum_t alpha_t * h_t(x) of each row of
    an (n, d) matrix, as an (n,) array.  NaN or infinite features are
    rejected: a tree routes NaN right at every node."""
    if model.trained_iterations == 0:
        raise ValueError("model has no trained stages")
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("features must be finite (no NaN or inf)")
    g = np.zeros(len(X))
    for alpha, tree in zip(model.alphas, model.trees):
        g += alpha * tree.predict_many(X)
    return g


def classify(model: BoostModel, X: np.ndarray) -> np.ndarray:
    """sign(g) with ties (g == 0) resolved to the majority class (-1)."""
    return np.where(decision_score(model, X) > 0, 1, -1)
