"""Boosting core: cost-sensitive undersampled boosting and the RUSBoost
baseline, sharing one training loop.

Per round: draw a balanced (50:50) random undersample, fit a tree on it
using the current distribution D as sample weights, then account
cost-weighted correct/incorrect mass over ALL training instances (not
just the subsample) to set the stage coefficient alpha and the weight
update.  Rounds whose alpha is non-positive are discarded and redrawn.
When MAX_CONSECUTIVE_RETRIES redraws in a row fail, training stops; the
model records this in ``retries_exhausted``, and ``trained_iterations``
is the stage count it stopped at.  No warning is issued.  Undersampling
is part of the algorithm, not a setting: every round of both boosters
draws one.

Every trained model carries its round trace in ``history``: one
RoundRecord (mis_sum, cor_sum, epsilon and the updated D) per kept
stage.  The trace is not serialized.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import is_count
from .locality import assign_weights
from .resample import random_undersample
from .tree import DecisionTree, _decoding, _json_array, fit_tree

SCHEMA_VERSION = 1
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
    """Ordered stages (alpha_t, tree_t) with a config snapshot."""

    alphas: tuple[float, ...]
    trees: tuple[DecisionTree, ...]
    config: dict
    retries_exhausted: bool = False
    history: tuple[RoundRecord, ...] = ()  # empty once loaded from JSON

    @property
    def trained_iterations(self) -> int:
        return len(self.alphas)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "alphas": list(self.alphas),
            "trees": [t.to_dict() for t in self.trees],
            "config": self.config,
            "retries_exhausted": self.retries_exhausted,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    @_decoding()
    def from_dict(cls, d: dict) -> "BoostModel":
        if type(v := d.get("schema_version")) is not int or v != SCHEMA_VERSION:
            raise ValueError(f"unsupported model schema: {v!r}")
        # the config is kept as written: files written before hold a
        # "tree_params" dict for "max_depth", and may hold the sampling
        # settings "target_majority_fraction" and "undersample"
        for key, kind in (("trees", list), ("config", dict),
                          ("retries_exhausted", bool)):
            if type(d[key]) is not kind:
                raise ValueError(f"model {key!r} is not a {kind.__name__}")
        alphas = _json_array(d, "alphas", (int, float))
        trees = tuple(DecisionTree.from_dict(t) for t in d["trees"])
        if len(alphas) != len(trees):
            raise ValueError(f"{len(alphas)} alphas for {len(trees)} trees")
        # training redraws every round whose alpha is not positive
        if not (np.isfinite(alphas) & (alphas > 0)).all():
            raise ValueError("alphas must be finite and positive")
        if len({t.n_features for t in trees}) > 1:
            raise ValueError("trees disagree on n_features")
        return cls(alphas=tuple(d["alphas"]), trees=trees, config=d["config"],
                   retries_exhausted=d["retries_exhausted"])

    @classmethod
    def from_json(cls, text: str) -> "BoostModel":
        return cls.from_dict(json.loads(text))


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


def _boost_loop(algorithm, X, y, weight_plus, weight_minus, T, rng,
                max_depth, **locality) -> BoostModel:
    """The shared loop; ``locality`` is LIUBoost's (k, delta), recorded in
    the config snapshot."""
    if not is_count(T) or T < 1:
        raise ValueError("T must be >= 1")
    if not is_count(max_depth) or max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    # a NumPy integer would reach the config and retries_exhausted, which
    # would not serialize to JSON
    T, max_depth = int(T), int(max_depth)
    rng = np.random.default_rng(rng)  # a Generator is passed through
    config = {"algorithm": algorithm, "T": T, **locality,
              "max_depth": max_depth}
    D = np.full(len(y), 1.0 / len(y))
    alphas: list[float] = []
    trees: list[DecisionTree] = []
    history: list[RoundRecord] = []
    retries = 0
    while len(alphas) < T and retries <= MAX_CONSECUTIVE_RETRIES:
        sample = random_undersample(y, rng)
        tree = fit_tree(X[sample], y[sample], D[sample], max_depth)
        pred = tree.predict_many(X)
        mis = pred != y
        mis_sum = float((D[mis] * weight_plus[mis]).sum())
        cor_sum = float((D[~mis] * weight_minus[~mis]).sum())
        alpha = compute_alpha(cor_sum, mis_sum)
        if alpha <= 0:
            retries += 1
            continue
        retries = 0
        epsilon = float(D[mis].sum())  # cost-free weighted error under current D
        cost = np.where(mis, weight_plus, weight_minus)
        # |alpha| < 14.2 and every cost is in (0, 1]: no overflow
        D = D * np.exp(-alpha * y * pred * cost)
        D = D / D.sum()  # rebinds D, so each record keeps its own array
        alphas.append(alpha)
        trees.append(tree)
        history.append(RoundRecord(mis_sum=mis_sum, cor_sum=cor_sum,
                                   epsilon=epsilon, distribution=D))

    return BoostModel(
        alphas=tuple(alphas),
        trees=tuple(trees),
        config=config,
        retries_exhausted=len(alphas) < T,
        history=tuple(history),
    )


def train_liuboost(ds, T: int = 10, k: int = 5, delta: float = 1.0,
                   rng=0, max_depth: int = 8) -> BoostModel:
    """Train the cost-sensitive undersampled ensemble on a Dataset.

    Locality costs are computed once on the full training split before the
    boosting loop begins.
    """
    cv = assign_weights(ds, k=k, delta=delta)
    return _boost_loop("liuboost", ds.features, ds.labels, cv.weight_plus,
                       cv.weight_minus, T, rng, max_depth, k=int(k),
                       delta=float(delta))


def train_rusboost(ds, T: int = 10, rng=0, max_depth: int = 8) -> BoostModel:
    """Classical undersampled AdaBoost: the shared loop with unit costs."""
    ones = np.ones(ds.n_instances)
    return _boost_loop("rusboost", ds.features, ds.labels, ones, ones, T, rng,
                       max_depth)


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
