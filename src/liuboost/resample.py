"""Random undersampling of the majority class for one boosting round."""
from __future__ import annotations

import warnings

import numpy as np


def random_undersample(labels: np.ndarray, target_majority_fraction: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of every minority instance and a uniform
    without-replacement draw of majority instances.

    The majority draw size is ceil(n_min * f / (1 - f)) for
    f = target_majority_fraction, so f = 0.5 yields a 50:50 sample.  The
    generator is advanced on every call, so successive boosting rounds see
    different subsets.  If the requested majority count meets or exceeds
    the available majority instances, all of them are kept (with a warning
    when it strictly exceeds).
    """
    labels = np.asarray(labels)
    if not 0 < target_majority_fraction < 1:
        raise ValueError("target_majority_fraction must be in (0, 1)")
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == -1)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both classes must be present")
    minority, majority = (pos, neg) if len(pos) <= len(neg) else (neg, pos)

    f = target_majority_fraction
    n_target = int(np.ceil(len(minority) * f / (1.0 - f)))
    if n_target >= len(majority):
        if n_target > len(majority):
            warnings.warn(
                f"requested {n_target} majority instances but only "
                f"{len(majority)} available; keeping all", stacklevel=2)
        chosen = majority
    else:
        chosen = rng.choice(majority, size=n_target, replace=False)
    return np.sort(np.concatenate([minority, chosen]))
