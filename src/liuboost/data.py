"""KEEL dataset parsing, label mapping and cross-validation splitting.

Labels are always mapped to {-1, +1} with the minority class as +1, so
that recall/precision downstream refer to the rare class.
"""
from __future__ import annotations

import warnings
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
        y = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 1:
            raise ValueError("features must be an (m>=2, d>=1) matrix")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must match the number of rows")
        if not np.all(np.isin(y, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
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
    """Disjoint stratified index folds covering every instance."""

    folds: tuple[np.ndarray, ...]

    @property
    def k(self) -> int:
        return len(self.folds)

    def split(self, fold: int):
        """(train_indices, test_indices) for one held-out fold."""
        test = self.folds[fold]
        train = np.concatenate([f for j, f in enumerate(self.folds) if j != fold])
        return np.sort(train), test


def imbalance_ratio(ds: Dataset) -> float:
    """Majority cardinality over minority cardinality (>= 1)."""
    return ds.majority_count / ds.minority_count


def _parse_header_line(line: str):
    keyword, _, rest = line.partition(" ")
    return keyword.lower(), rest.strip()


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
    rows: list[list[str]] = []
    in_data = False

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if not in_data and line.startswith("@"):
            keyword, rest = _parse_header_line(line.replace("\t", " "))
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
            elif keyword == "@inputs":
                pass  # input list is implied by @outputs
            elif keyword == "@outputs":
                outputs = [s.strip() for s in rest.split(",") if s.strip()]
            elif keyword == "@data":
                in_data = True
            else:
                raise KeelFormatError(f"unknown header keyword: {keyword!r}")
        elif in_data:
            rows.append([f.strip() for f in line.split(",")])
        else:
            raise KeelFormatError(f"data line before @data section: {line!r}")

    if relation is None:
        raise KeelFormatError("missing @relation line")
    if not in_data:
        raise KeelFormatError("missing @data section")
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

    uniq, counts = np.unique(classes, return_counts=True)
    if len(uniq) != 2:
        raise KeelFormatError(f"expected 2 classes, found {len(uniq)}: {list(uniq)}")
    # argmin picks the first of equal counts: the smaller name, as uniq
    # is sorted
    positive = uniq[np.argmin(counts)]

    labels = np.where(np.asarray(classes) == positive, 1, -1)
    return Dataset(
        features=features,
        labels=labels,
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
    for x, y in zip(ds.features, ds.labels):
        cls = "positive" if y == 1 else "negative"
        lines.append(",".join(repr(float(v)) for v in x) + "," + cls)
    return "\n".join(lines) + "\n"


def stratified_folds(ds: Dataset, k: int, seed: int) -> FoldPlan:
    """Deterministic stratified k-fold partition of instance indices.

    When a class has fewer than k members the folds are still built (some
    folds then lack that class in their test part) and a warning is issued.
    """
    m = ds.n_instances
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > m:
        raise ValueError(f"k={k} exceeds instance count m={m}")
    for cls in (1, -1):
        n_cls = int((ds.labels == cls).sum())
        if n_cls < k:
            warnings.warn(
                f"class {cls:+d} has only {n_cls} instances for {k} folds; "
                "some folds will not contain it", stacklevel=2)

    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(k)]
    for cls in (1, -1):
        idx = np.flatnonzero(ds.labels == cls)
        rng.shuffle(idx)
        for j in range(k):
            buckets[j].extend(idx[j::k])
    folds = tuple(np.sort(np.asarray(b, dtype=np.int64)) for b in buckets)
    return FoldPlan(folds=folds)


def fit_min_max(features: np.ndarray):
    """Column-wise (min, range) statistics; constant columns get range 1."""
    mins = features.min(axis=0)
    ranges = features.max(axis=0) - mins
    ranges = np.where(ranges == 0, 1.0, ranges)
    return mins, ranges


def apply_min_max(features: np.ndarray, mins: np.ndarray,
                  ranges: np.ndarray) -> np.ndarray:
    return (features - mins) / ranges

