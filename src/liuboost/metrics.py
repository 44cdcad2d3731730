"""ROC/PR curves and their areas over decision scores.

Positive class is +1.  A prediction is positive when score > threshold.
AUROC uses trapezoidal integration (equal to the Mann-Whitney statistic
with half credit for ties); AUPR uses step-wise right-constant precision,
never linear interpolation between PR points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import as_labels


@dataclass(frozen=True)
class Curve:
    points: tuple[tuple[float, float], ...]
    area: float


def _check_scored(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = as_labels(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    # NaN has no place in the order (it would sort as the lowest score and
    # never tie with itself); +-inf orders and is allowed
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    return scores, labels


def _cumulative_by_threshold(scores, labels):
    """Cumulative (tp, fp) integer counts after each distinct-score group,
    scores processed in descending order with ties grouped.  The counts
    at a group's end do not depend on the order of the rows inside it,
    so the sort need not be stable."""
    order = np.argsort(-scores)
    s = scores[order]
    pos = (labels[order] == 1).astype(np.int64)
    group_end = np.flatnonzero(np.r_[s[:-1] != s[1:], True])
    tp = np.cumsum(pos)[group_end]
    fp = (group_end + 1) - tp
    return tp, fp


def roc_curve(scores, labels) -> Curve:
    """ROC curve points (fpr, tpr) from (0,0) to (1,1), trapezoidal area."""
    scores, labels = _check_scored(scores, labels)
    p = int((labels == 1).sum())
    n = int((labels == -1).sum())
    if p == 0 or n == 0:
        raise ValueError("both classes required for a ROC curve")
    tp, fp = _cumulative_by_threshold(scores, labels)
    # integer accumulation keeps the trapezoid sum exact (matches the
    # pairwise Mann-Whitney computation bit for bit)
    tp0 = np.r_[0, tp[:-1]]
    fp0 = np.r_[0, fp[:-1]]
    twice_area = ((fp - fp0) * (tp + tp0)).sum()
    area = twice_area / (2.0 * p * n)
    points = [(0.0, 0.0)] + [(float(f) / n, float(t) / p)
                             for f, t in zip(fp, tp)]
    return Curve(points=tuple(points), area=float(area))


def pr_curve(scores, labels) -> Curve:
    """Precision-recall curve with step (right-constant) integration."""
    scores, labels = _check_scored(scores, labels)
    p = int((labels == 1).sum())
    if p == 0:
        raise ValueError("at least one positive label required")
    tp, fp = _cumulative_by_threshold(scores, labels)
    tp0 = np.r_[0, tp[:-1]]
    prec = tp / (tp + fp)
    rec = tp / p
    area = float((((tp - tp0) / p) * prec).sum())
    points = [(0.0, 1.0)] + [(float(r), float(q)) for r, q in zip(rec, prec)]
    return Curve(points=tuple(points), area=area)


def auroc(scores, labels) -> float:
    """Area under the ROC curve."""
    return roc_curve(scores, labels).area


def aupr(scores, labels) -> float:
    """Area under the precision-recall curve."""
    return pr_curve(scores, labels).area
