"""KEEL dataset parsing, label mapping and cross-validation splitting.

Labels are always mapped to {-1, +1} with the minority class as +1, so
that recall/precision downstream refer to the rare class.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MISSING_TOKENS = {"?", "<null>"}
NUMERIC_TYPES = {"real", "integer", "numeric"}


class KeelFormatError(ValueError):
    """Raised when a KEEL .dat file cannot be parsed."""


@dataclass(frozen=True)
class Dataset:
    """Binary classification dataset with minority class encoded as +1."""

    features: np.ndarray  # (m, d) float64
    labels: np.ndarray    # (m,) in {-1, +1}
    feature_names: tuple[str, ...]
    name: str = "unnamed"

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = as_labels(self.labels)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 1:
            raise ValueError("features must be an (m>=2, d>=1) matrix")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must match the number of rows")
        n_pos = int((y == 1).sum())
        n_neg = int((y == -1).sum())
        if n_pos == 0 or n_neg == 0:
            raise ValueError("both classes must be present")
        if n_pos > n_neg:
            raise ValueError("+1 must be the minority (or tied) class")
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names must match feature count")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite values")

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def minority_count(self) -> int:
        return int((self.labels == 1).sum())

    @property
    def majority_count(self) -> int:
        return int((self.labels == -1).sum())


@dataclass(frozen=True)
class FoldPlan:
    """Disjoint stratified folds covering every instance: row i is held out
    in fold fold_of[i]."""

    fold_of: np.ndarray  # (m,) int in [0, k)
    k: int

    @property
    def folds(self) -> tuple[np.ndarray, ...]:
        """The sorted held-out indices of each fold."""
        return tuple(np.flatnonzero(self.fold_of == f) for f in range(self.k))

    def split(self, fold: int):
        """(train_indices, test_indices) for one held-out fold, both sorted."""
        held_out = self.fold_of == fold
        return np.flatnonzero(~held_out), np.flatnonzero(held_out)


def imbalance_ratio(ds: Dataset) -> float:
    """Majority cardinality over minority cardinality (>= 1)."""
    return ds.majority_count / ds.minority_count


def parse_keel(text: str, name: str | None = None) -> Dataset:
    """Parse KEEL .dat text into a Dataset.

    The class column is the single @outputs attribute (last attribute if
    @outputs is absent).  The minority class becomes +1; on a cardinality
    tie the lexicographically smaller class name becomes +1.
    """
    attr_names: list[str] = []
    attr_nominal: list[bool] = []
    relation = None
    outputs: list[str] = []

    lines = [line for line in (raw.strip() for raw in text.splitlines())
             if line]
    for n, line in enumerate(lines):
        if not line.startswith("@"):
            raise KeelFormatError(f"data line before @data section: {line!r}")
        keyword, _, rest = line.replace("\t", " ").partition(" ")
        keyword, rest = keyword.lower(), rest.strip()
        if keyword == "@relation":
            relation = rest or "unnamed"
        elif keyword == "@attribute":
            if not rest:
                raise KeelFormatError(f"malformed attribute line: {line!r}")
            attr_name, _, spec = rest.partition(" ")
            spec = spec.strip()
            attr_names.append(attr_name.strip())
            if spec.startswith("{"):
                attr_nominal.append(True)
            else:
                base = spec.split("[")[0].strip().lower()
                if base not in NUMERIC_TYPES:
                    raise KeelFormatError(
                        f"unsupported attribute type {spec!r} for {attr_name!r}")
                attr_nominal.append(False)
        elif keyword == "@outputs":
            outputs = [s.strip() for s in rest.split(",") if s.strip()]
        elif keyword == "@data":
            break
        elif keyword != "@inputs":  # the input list is implied by @outputs
            raise KeelFormatError(f"unknown header keyword: {keyword!r}")
    else:
        raise KeelFormatError("missing @data section")
    rows = [[f.strip() for f in line.split(",")] for line in lines[n + 1:]]

    if relation is None:
        raise KeelFormatError("missing @relation line")
    if not rows:
        raise KeelFormatError("empty @data section")
    if not attr_names:
        raise KeelFormatError("no @attribute declarations")

    if len(outputs) > 1:
        raise KeelFormatError("exactly one output attribute is supported")
    class_name = outputs[0] if outputs else attr_names[-1]
    if class_name not in attr_names:
        raise KeelFormatError(f"output attribute {class_name!r} not declared")
    class_col = attr_names.index(class_name)

    for j, nominal in enumerate(attr_nominal):
        if nominal and j != class_col:
            raise KeelFormatError(
                f"nominal input attribute {attr_names[j]!r} is not supported")

    n_cols = len(attr_names)
    feat_cols = [j for j in range(n_cols) if j != class_col]
    if not feat_cols:
        raise KeelFormatError("no input attribute declared")
    features = np.empty((len(rows), len(feat_cols)))
    classes: list[str] = []
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise KeelFormatError(f"row {i} has {len(row)} fields, expected {n_cols}")
        for token in row:
            if token.lower() in MISSING_TOKENS:
                raise KeelFormatError(f"missing value in row {i}")
        for jj, j in enumerate(feat_cols):
            try:
                features[i, jj] = float(row[j])
            except ValueError:
                raise KeelFormatError(
                    f"non-numeric value {row[j]!r} in attribute {attr_names[j]!r}")
        classes.append(row[class_col])

    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        i, jj = bad[0]
        raise KeelFormatError(
            f"non-finite value {rows[i][feat_cols[jj]]!r} in row {i}, "
            f"attribute {attr_names[feat_cols[jj]]!r}")

    uniq, class_of, counts = np.unique(classes, return_inverse=True,
                                       return_counts=True)
    if len(uniq) != 2:
        raise KeelFormatError(f"expected 2 classes, found {len(uniq)}: {list(uniq)}")
    # argmin picks the first of equal counts: the smaller name, as uniq
    # is sorted
    return Dataset(
        features=features,
        labels=np.where(class_of == np.argmin(counts), 1, -1),
        feature_names=tuple(attr_names[j] for j in feat_cols),
        name=name or relation,
    )


def serialize_keel(ds: Dataset) -> str:
    """Render a Dataset back to KEEL .dat text (inverse of parse_keel)."""
    lines = [f"@relation {ds.name}"]
    for j, fname in enumerate(ds.feature_names):
        col = ds.features[:, j]
        lines.append(f"@attribute {fname} real [{col.min():.6f}, {col.max():.6f}]")
    lines.append("@attribute Class {negative, positive}")
    lines.append(f"@inputs {', '.join(ds.feature_names)}")
    lines.append("@outputs Class")
    lines.append("@data")
    for x, y in zip(ds.features.tolist(), ds.labels.tolist()):
        cls = "positive" if y == 1 else "negative"
        lines.append(",".join(map(repr, x)) + "," + cls)
    return "\n".join(lines) + "\n"


def is_count(value) -> bool:
    """Whether value may be a count (of folds, rounds or neighbours)."""
    return isinstance(value, (int, np.integer)) and type(value) is not bool


def as_labels(labels) -> np.ndarray:
    """labels as an int64 array, with no copy of one; a ValueError unless
    every value is exactly -1 or +1 (booleans are not labels), checked
    before the cast so that a fraction is never truncated to a label."""
    y = np.asarray(labels)
    if y.dtype.kind not in "iuf" or not (np.abs(y) == 1).all():
        raise ValueError("labels must be -1 or +1")
    return y.astype(np.int64, copy=False)


def stratified_folds(ds: Dataset, k: int, seed: int) -> FoldPlan:
    """Deterministic stratified k-fold partition of instance indices.

    A class with fewer than k members leaves some folds without it; the
    returned plan shows which ones, and `bench` counts those folds as
    skipped.
    """
    m = ds.n_instances
    if not is_count(k) or k < 2:
        raise ValueError("k must be >= 2")
    if k > m:
        raise ValueError(f"k={k} exceeds instance count m={m}")

    rng = np.random.default_rng(seed)
    fold_of = np.empty(m, dtype=np.int64)
    for cls in (1, -1):
        idx = np.flatnonzero(ds.labels == cls)
        rng.shuffle(idx)
        # the shuffled class is dealt round-robin: fold j gets idx[j::k]
        fold_of[idx] = np.arange(len(idx)) % k
    return FoldPlan(fold_of=fold_of, k=k)


def fit_min_max(features: np.ndarray):
    """Column-wise (min, range) statistics; constant columns get range 1."""
    mins = features.min(axis=0)
    ranges = features.max(axis=0) - mins
    ranges = np.where(ranges == 0, 1.0, ranges)
    return mins, ranges


def apply_min_max(features: np.ndarray, mins: np.ndarray,
                  ranges: np.ndarray) -> np.ndarray:
    return (features - mins) / ranges

