"""Shared fixtures/helpers and the acceptance-criteria summary section."""
from __future__ import annotations

import numpy as np
import pytest

from liuboost.data import Dataset

# One line per acceptance criterion, echoed after the test summary so the
# pass/fail verdicts are visible even when pytest captures stdout.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def record_criterion():
    """Record and assert one acceptance-criterion verdict."""

    def _record(cid: str, passed: bool, detail: str = ""):
        line = f"criterion {cid}: {'PASS' if passed else 'FAIL'}" \
            + (f" — {detail}" if detail else "")
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert passed, line

    return _record


def make_clusters(n_pos: int, n_neg: int, d: int = 2, sep: float = 6.0,
                  seed: int = 0, noise: float = 1.0,
                  flip_fraction: float = 0.0) -> Dataset:
    """Two Gaussian blobs, minority (+1) at distance `sep` from majority.

    flip_fraction > 0 injects label noise so boosting rounds keep nonzero
    training error.
    """
    if n_pos > n_neg:
        raise ValueError("minority (+1) count must not exceed majority")
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(loc=sep, scale=noise, size=(n_pos, d)),
        rng.normal(loc=0.0, scale=noise, size=(n_neg, d)),
    ])
    y = np.r_[np.ones(n_pos, dtype=np.int64), -np.ones(n_neg, dtype=np.int64)]
    if flip_fraction > 0:
        n_flip = int(round(flip_fraction * len(y)))
        flip = rng.choice(len(y), size=n_flip, replace=False)
        y = y.copy()
        y[flip] = -y[flip]
        if (y == 1).sum() == 0 or (y == 1).sum() > (y == -1).sum():
            raise ValueError("label flips broke the class balance; reseed")
    perm = rng.permutation(len(y))
    return Dataset(features=X[perm], labels=y[perm],
                   feature_names=tuple(f"f{j}" for j in range(d)),
                   name=f"clusters_{n_pos}_{n_neg}_{seed}")


def tree_bits(tree) -> tuple:
    """A tree as the dtype and bytes of each node array and its
    n_features: equal exactly when the trees are bit-identical, so NaN
    equals NaN and 0.0 differs from -0.0."""
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.label)
    return tuple((a.dtype.str, a.tobytes()) for a in arrays) \
        + (tree.n_features,)


def model_bits(model) -> tuple:
    """A model as the bytes of its alphas, retries_exhausted and the
    tree_bits of each tree: equal exactly when the models are
    bit-identical."""
    return (np.asarray(model.alphas, dtype=np.float64).tobytes(),
            model.retries_exhausted,
            tuple(tree_bits(t) for t in model.trees))


@pytest.fixture
def separable_ds() -> Dataset:
    return make_clusters(10, 10, d=2, sep=8.0, seed=1, noise=0.5)


@pytest.fixture
def noisy_ds() -> Dataset:
    return make_clusters(30, 70, d=3, sep=2.0, seed=2, noise=1.5)
