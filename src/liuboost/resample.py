"""Balanced (50:50) random undersampling of the majority class for one
boosting round."""
from __future__ import annotations

import numpy as np


def random_undersample(labels: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of every minority instance and a uniform
    without-replacement draw of as many majority instances.

    The generator is advanced on every call, so successive boosting rounds
    see different subsets.  When the two classes are the same size, the
    draw is every majority instance, so every instance is kept.
    """
    labels = np.asarray(labels)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == -1)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both classes must be present")
    minority, majority = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
    chosen = rng.choice(majority, size=len(minority), replace=False)
    return np.sort(np.concatenate([minority, chosen]))
