"""KEEL dataset parsing, label mapping, cross-validation folds and min-max
scaling.

Labels are always mapped to {-1, +1} with the minority class as +1, so
that recall/precision downstream refer to the rare class.  parse_keel
states the parse, its error order and its memory.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

MISSING_TOKENS = {"?", "<null>"}
NUMERIC_TYPES = {"real", "integer", "numeric"}
# characters of a text split, or of a file read, at a time (_pieces): a
# block's Python objects outweigh its text, so larger pieces raise a
# parse's peak and smaller ones add pieces; CHANGES.md has the sizes
# measured
_BLOCK_CHARS = 1 << 14


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


def parse_keel(source: str | os.PathLike, name: str | None = None) -> Dataset:
    """Parse KEEL .dat text, or the file at a path, into a Dataset.

    The class column is the single @outputs attribute (last attribute if
    @outputs is absent).  The minority class becomes +1; on a cardinality
    tie the lexicographically smaller class name becomes +1.

    source is the text itself (a str) or a path (os.PathLike).  Either
    is taken a piece at a time (_pieces): slices of the text, or reads
    of the file decoded as Path.read_text() decodes it (the locale's
    encoding, strict errors, universal newlines), so a file's text is
    never held whole.  The lines are those of text.splitlines(),
    stripped, with blank lines dropped.  One walk over the pieces reads
    the header up to @data and counts the data lines; a second converts
    each piece's data lines as one block, one float() pass per feature
    column, into a preallocated (m, d) float64 array; every value is
    that of float() on the stripped token.  Each class token becomes an
    integer code against a table of the class names, and the codes
    become the labels in place.  An error is named from the block that
    holds its row.  A file is read afresh on the second walk, and if
    that reads other pieces than the first it raises KeelFormatError,
    so a parse never mixes two versions of a file.  Memory: the array
    with its codes and one block, besides a text passed in (README
    Memory).

    Errors: a row with the wrong field count, a missing value ('?' or
    '<null>' in any column) or a non-numeric value raises for the first
    such row, with the checks of a row in that order; a non-finite value
    raises only when every row passes them, and names its row before the
    class count is checked.  A byte of a file that cannot be decoded
    raises UnicodeDecodeError in the first walk, when the reading
    reaches it, so only a header error read before it comes first; its
    position is counted within the chunk that was read, not the file.
    """
    walks = _Walks(source)
    pieces = iter(walks)
    relation, attr_names, attr_nominal, outputs, skip, m = _read_header(
        pieces)
    m += sum(len(_lines(piece)) for piece in pieces)

    if relation is None:
        raise KeelFormatError("missing @relation line")
    if not m:
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
    features = np.empty((m, len(feat_cols)))
    codes = np.empty(m, dtype=np.int64)
    table: dict[str, int] = {}  # class name -> code, by first row
    start = 0
    non_finite = None  # the error of the first non-finite value
    # the walk stays outside the try: its KeelFormatError (the file
    # changed) is no bad row
    for block in _blocks(walks, skip):
        stop = start + len(block)
        try:
            rows = [line.split(",") for line in block]
            if set(map(len, rows)) != {n_cols}:
                raise ValueError
            columns = list(zip(*rows))
            del rows
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
            # every earlier block passed every row check
            raise _first_bad_row(block, start, n_cols, feat_cols,
                                 attr_names) from None
        finite = np.isfinite(features[start:stop])
        if non_finite is None and not finite.all():
            i, jj = np.argwhere(~finite)[0]
            token = block[i].split(",")[feat_cols[jj]].strip()
            non_finite = KeelFormatError(
                f"non-finite value {token!r} in row {start + i}, "
                f"attribute {attr_names[feat_cols[jj]]!r}")
        start = stop
    if non_finite is not None:
        raise non_finite

    # the class names sorted as Python strings: a NumPy unicode array
    # drops trailing '\x00', so np.unique would merge 'a\x00' into 'a'
    names = sorted(table)
    if len(names) != 2:
        raise KeelFormatError(
            f"expected 2 classes, found {len(names)}: {names}")
    by_name = [table[c] for c in names]  # the code of each sorted name
    # argmin picks the first of equal counts: the smaller name
    plus = by_name[int(np.bincount(codes)[by_name].argmin())]
    # the codes 0 and 1 become the labels in place: 2 * code - 1, negated
    # when the +1 class has code 0
    sign = 1 if plus else -1
    codes *= 2 * sign
    codes -= sign
    return Dataset(
        features=features,
        labels=codes,
        feature_names=tuple(attr_names[j] for j in feat_cols),
        name=name or relation,
    )


def _lines(piece: str) -> list[str]:
    """The lines of piece that are not blank, stripped."""
    return [line for line in (raw.strip() for raw in piece.splitlines())
            if line]


def _pieces(source):
    """The pieces of a text (str) or of the file at a path, in order:
    the next _BLOCK_CHARS characters, finished to the end of their last
    line, so that each piece ends right after a newline ('\\n') or at
    the end.  splitlines() ends a line at every '\\n' (with the '\\r'
    of a '\\r\\n'), so the lines of the pieces are those of the whole
    text."""
    if isinstance(source, str):
        start = 0
        while start < len(source):
            stop = (source.find("\n", start + _BLOCK_CHARS - 1) + 1
                    or len(source))
            yield source[start:stop]
            start = stop
        return
    with open(source) as file:  # as Path.read_text() opens it
        while piece := file.read(_BLOCK_CHARS):
            if not piece.endswith("\n"):
                piece += file.readline()
            yield piece


class _Walks:
    """The pieces of source (_pieces), walked afresh by each iter().  A
    file is read again on each later walk (parse_keel makes one), which
    must read the first walk's pieces, or it raises KeelFormatError."""

    def __init__(self, source):
        self.source = source
        self.digests = None  # hash() of each piece of a file's first walk

    def __iter__(self):
        pieces = _pieces(self.source)
        if isinstance(self.source, str):
            yield from pieces
        elif self.digests is None:
            self.digests = []
            for piece in pieces:
                self.digests.append(hash(piece))
                yield piece
        else:
            for piece, digest in zip_longest(pieces, self.digests):
                if piece is None or hash(piece) != digest:
                    raise KeelFormatError(
                        "the file changed while it was parsed")
                yield piece


def _read_header(pieces):
    """(relation, attribute names, which are nominal, outputs, skip,
    rows) of the header, read from the iterator pieces up to the @data
    line: skip counts the non-blank lines up to and including it, rows
    those after it in its piece.  The later pieces are left in pieces."""
    attr_names: list[str] = []
    attr_nominal: list[bool] = []
    relation = None
    outputs: list[str] = []
    skip = 0
    for piece in pieces:
        lines = _lines(piece)
        for n, line in enumerate(lines, 1):
            if not line.startswith("@"):
                raise KeelFormatError(
                    f"data line before @data section: {line!r}")
            keyword, _, rest = line.replace("\t", " ").partition(" ")
            keyword, rest = keyword.lower(), rest.strip()
            if keyword == "@relation":
                relation = rest or "unnamed"
            elif keyword == "@attribute":
                if not rest:
                    raise KeelFormatError(
                        f"malformed attribute line: {line!r}")
                attr_name, _, spec = rest.partition(" ")
                spec = spec.strip()
                attr_names.append(attr_name.strip())
                if spec.startswith("{"):
                    attr_nominal.append(True)
                else:
                    base = spec.split("[")[0].strip().lower()
                    if base not in NUMERIC_TYPES:
                        raise KeelFormatError(
                            f"unsupported attribute type {spec!r} "
                            f"for {attr_name!r}")
                    attr_nominal.append(False)
            elif keyword == "@outputs":
                outputs = [s.strip() for s in rest.split(",") if s.strip()]
            elif keyword == "@data":
                return (relation, attr_names, attr_nominal, outputs,
                        skip + n, len(lines) - n)
            elif keyword != "@inputs":  # the input list is implied by @outputs
                raise KeelFormatError(f"unknown header keyword: {keyword!r}")
        skip += len(lines)
    raise KeelFormatError("missing @data section")


def _blocks(walks, skip: int):
    """The data lines of each piece of a walk that holds any, as one
    list: the non-blank lines past the first skip."""
    for piece in walks:
        lines = _lines(piece)
        if skip:
            lines, skip = lines[skip:], max(skip - len(lines), 0)
        if lines:
            yield lines


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


def _first_bad_row(block, start: int, n_cols: int, feat_cols: list[int],
                   attr_names: list[str]) -> KeelFormatError:
    """The error of the first of the data lines block, rows start on,
    that fails a row check, in parse_keel's order."""
    for i, line in enumerate(block, start):
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
    raise AssertionError("no line of the block fails a row check")


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
    if y.dtype.kind not in "iuf" or not np.logical_and.reduce(
            np.abs(y) == 1, axis=None):
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
    """Column-wise (min, range) statistics, the range taken in halves,
    max/2 - min/2, so that a finite column never gives an infinite one
    (max - min overflows for a column spanning +-1e308).  Constant
    columns get range 0.5, so apply_min_max gives them x - min."""
    mins = features.min(axis=0)
    ranges = features.max(axis=0) / 2 - mins / 2
    ranges = np.where(ranges == 0, 0.5, ranges)
    return mins, ranges


def apply_min_max(features: np.ndarray, mins: np.ndarray,
                  ranges: np.ndarray) -> np.ndarray:
    """(x/2 - min/2) / range, with fit_min_max's half range, as one new
    float64 array computed in place.  Halving is exact for normal floats
    and commutes with rounding, so wherever (x - min) / (max - min) does
    not overflow it gives the same bits.  A value past the float range (a
    row far outside the fitted one) saturates at +-finfo(float).max, with
    no warning: every threshold is finite, so it goes to the side of
    every split that the overflowed value would."""
    out = np.divide(features, 2, dtype=np.float64)
    out -= mins / 2
    with np.errstate(over="ignore"):
        out /= ranges
    big = np.finfo(np.float64).max
    return np.clip(out, -big, big, out=out)

