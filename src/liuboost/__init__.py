"""Locality-informed undersampled boosting for imbalanced binary
classification, with a RUSBoost baseline and evaluation tooling."""

from .data import (Dataset, FoldPlan, KeelFormatError, imbalance_ratio,
                   parse_keel, serialize_keel, stratified_folds)
from .ensemble import (BoostModel, classify, compute_alpha, decision_score,
                       train_liuboost, train_rusboost)
from .locality import CostVector, assign_weights
from .metrics import aupr, auroc, pr_curve, roc_curve
from .resample import random_undersample
from .stats import RankTestResult, wilcoxon_signed_rank
from .tree import DecisionTree, fit_tree

__all__ = [
    "Dataset", "FoldPlan", "KeelFormatError", "imbalance_ratio",
    "parse_keel", "serialize_keel", "stratified_folds",
    "BoostModel", "classify", "compute_alpha", "decision_score",
    "train_liuboost", "train_rusboost",
    "CostVector", "assign_weights",
    "aupr", "auroc", "pr_curve", "roc_curve",
    "random_undersample",
    "RankTestResult", "wilcoxon_signed_rank",
    "DecisionTree", "fit_tree",
]

__version__ = "0.1.0"
