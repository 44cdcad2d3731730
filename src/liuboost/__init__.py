"""Locality-informed undersampled boosting for imbalanced binary
classification, with a RUSBoost baseline and evaluation tooling.

Each exported name is imported from its module when it is first read
(PEP 562), so parsing, generating, scoring or ranking never loads scipy:
only ``locality``, and the ``ensemble`` and ``bench`` modules that import
it, do.
"""

from importlib import import_module

_EXPORTS = {
    "Dataset": "data", "FoldPlan": "data", "KeelFormatError": "data",
    "imbalance_ratio": "data", "parse_keel": "data",
    "serialize_keel": "data", "stratified_folds": "data",
    "BoostModel": "ensemble", "classify": "ensemble",
    "compute_alpha": "ensemble", "decision_score": "ensemble",
    "train_liuboost": "ensemble", "train_rusboost": "ensemble",
    "CostVector": "locality", "assign_weights": "locality",
    "aupr": "metrics", "auroc": "metrics", "pr_curve": "metrics",
    "roc_curve": "metrics",
    "random_undersample": "resample",
    "RankTestResult": "stats", "wilcoxon_signed_rank": "stats",
    "DecisionTree": "tree", "fit_tree": "tree",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
