"""KEEL dataset parsing, label mapping and cross-validation splitting.

Labels are always mapped to {-1, +1} with the minority class as +1, so
that recall/precision downstream refer to the rare class.

parse_keel converts the data section in blocks of _BLOCK_LINES lines,
one float() pass per feature column of a block, into one preallocated
array; only when a block fails does it scan the rows in order, from the
first, for the first bad one, so its errors are those of a row-by-row
check. A parse holds the text, its list of lines, the (m, d) array with
one class code per row, and the tokens of one block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MISSING_TOKENS = {"?", "<null>"}
NUMERIC_TYPES = {"real", "integer", "numeric"}
# data lines converted at a time: the tokens of one block are all the
# Python strings a parse makes beyond its lines. At 2·10⁵ rows a parse
# grew RSS by 37 MiB with 64 or 256 lines, 41 MiB with 4096 and 107 MiB
# with 2¹⁶, and 256 was no slower than any of them
_BLOCK_LINES = 256


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

    The data lines are converted in blocks of _BLOCK_LINES lines: each
    line of a block is split once at its commas, the block's rows are
    transposed into columns, and each feature column is converted by one
    pass of float() into its rows of a preallocated C-ordered (m, d)
    float64 array; every value is that of float() on the stripped token.
    Each class token becomes an integer code against a table of the
    class names, so no token outlives its block.  A row with the wrong
    field count, a missing value ('?' or '<null>' in any column) or a
    non-numeric value raises for the first such row, with the checks of a
    row in that order; a non-finite value raises only when every row
    passes them.
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
    body = lines[n + 1:]
    del lines

    if relation is None:
        raise KeelFormatError("missing @relation line")
    if not body:
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
    m = len(body)
    features = np.empty((m, len(feat_cols)))
    codes = np.empty(m, dtype=np.intp)
    table: dict[str, int] = {}  # class name -> code, by first row
    try:
        for start in range(0, m, _BLOCK_LINES):
            block = body[start:start + _BLOCK_LINES]
            rows = [line.split(",") for line in block]
            if set(map(len, rows)) != {n_cols}:
                raise ValueError
            columns = list(zip(*rows))
            del rows
            stop = start + len(block)
            for jj, j in enumerate(feat_cols):
                features[start:stop, jj] = _floats(columns[j])
            classes = [token.strip() for token in columns[class_col]]
            del columns
            for c in dict.fromkeys(classes):
                if c not in table:
                    if c.lower() in MISSING_TOKENS:
                        raise ValueError
                    table[c] = len(table)
            codes[start:stop] = [table[c] for c in classes]
    except ValueError:
        raise _first_bad_row(body, n_cols, feat_cols, attr_names) from None

    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        i, jj = bad[0]
        token = body[i].split(",")[feat_cols[jj]].strip()
        raise KeelFormatError(
            f"non-finite value {token!r} in row {i}, "
            f"attribute {attr_names[feat_cols[jj]]!r}")

    # the class names sorted as Python strings: a NumPy unicode array
    # drops trailing '\x00', so np.unique would merge 'a\x00' into 'a'
    names = sorted(table)
    if len(names) != 2:
        raise KeelFormatError(
            f"expected 2 classes, found {len(names)}: {names}")
    # each row's index into names; table lists the names by code
    class_of = np.array([names.index(c) for c in table])[codes]
    counts = np.bincount(class_of, minlength=2)
    # argmin picks the first of equal counts: the smaller name, as names
    # is sorted
    return Dataset(
        features=features,
        labels=np.where(class_of == np.argmin(counts), 1, -1),
        feature_names=tuple(attr_names[j] for j in feat_cols),
        name=name or relation,
    )


def _floats(tokens) -> np.ndarray:
    """float(token.strip()) of each token as a float64 array; a
    ValueError when one is not a number."""
    try:
        return np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        # float() strips ASCII whitespace but not all that str.strip()
        # does ('\x1f', for one), so a token padded with that converts
        # only once stripped
        return np.fromiter(map(float, map(str.strip, tokens)), np.float64,
                           len(tokens))


def _first_bad_row(body: list[str], n_cols: int, feat_cols: list[int],
                   attr_names: list[str]) -> KeelFormatError:
    """The error of the first data line that fails a row check: its field
    count, then a missing value in any column, then a non-numeric value
    by feature column."""
    for i, line in enumerate(body):
        row = [f.strip() for f in line.split(",")]
        if len(row) != n_cols:
            return KeelFormatError(
                f"row {i} has {len(row)} fields, expected {n_cols}")
        if any(token.lower() in MISSING_TOKENS for token in row):
            return KeelFormatError(f"missing value in row {i}")
        for j in feat_cols:
            try:
                float(row[j])
            except ValueError:
                return KeelFormatError(
                    f"non-numeric value {row[j]!r} in attribute "
                    f"{attr_names[j]!r}")
    raise AssertionError("no data line fails a row check")


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

