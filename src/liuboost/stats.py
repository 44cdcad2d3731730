"""Wilcoxon signed-rank test over paired per-dataset metrics.

Two zero-difference conventions are provided: "drop" (Wilcoxon's
original: discard zero differences before ranking) and "pratt" (rank all
differences including zeros, then exclude the zero ranks from both sums).
The exact null distribution is enumerated when the effective sample is
small; otherwise a normal approximation with tie and continuity
corrections is used.  Tied |differences| share their midrank.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXACT_LIMIT = 20


@dataclass(frozen=True)
class RankTestResult:
    w_minus: float
    w_plus: float
    n_effective: int  # pairs remaining after zero handling
    p_two_sided: float
    method: str  # "exact" or "normal_approx"
    zeros: str   # "drop" or "pratt"
    # one-sided normal-approximation p (tie + continuity corrections),
    # always reported: published comparisons in this domain commonly quote
    # this quantity rather than the exact two-sided p
    p_one_sided_normal: float


def _exact_two_sided(ranks: np.ndarray, w_min: float) -> float:
    """Exact p by enumerating all sign assignments of the given ranks.

    Ranks may be half-integers (midrank ties), so everything is doubled
    to work over integers.
    """
    r2 = np.rint(2 * ranks).astype(np.int64)
    total = int(r2.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in r2:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: len(counts) - r]
        counts = counts + shifted
    w2 = int(math.floor(2 * w_min + 1e-9))
    p = 2.0 * counts[: w2 + 1].sum() / 2.0 ** len(r2)
    return min(1.0, p)


def _normal_one_sided(w_min: float, n: int, n_zero: int,
                      tie_sizes: np.ndarray) -> float:
    """One-sided normal approximation with tie and continuity corrections.

    n counts all ranked pairs (zeros included under the pratt convention),
    n_zero of which are zeros whose ranks belong to neither sum.
    """
    mu = (n * (n + 1) - n_zero * (n_zero + 1)) / 4.0
    var = (n * (n + 1) * (2 * n + 1) - n_zero * (n_zero + 1) * (2 * n_zero + 1)) / 24.0
    var -= float((tie_sizes ** 3 - tie_sizes).sum()) / 48.0
    if var <= 0:
        return 1.0
    z = max(0.0, mu - w_min - 0.5) / math.sqrt(var)
    return min(1.0, 0.5 * math.erfc(z / math.sqrt(2.0)))


def wilcoxon_signed_rank(pairs, zeros: str = "drop") -> RankTestResult:
    """Two-sided paired signed-rank test on (a, b) pairs, testing b - a."""
    if zeros not in ("drop", "pratt"):
        raise ValueError("zeros must be 'drop' or 'pratt'")
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 5:
        raise ValueError("need at least 5 (a, b) pairs")
    if not np.isfinite(pairs).all():
        raise ValueError("pairs must be finite")
    d = pairs[:, 1] - pairs[:, 0]
    nonzero = d != 0
    n_nonzero = int(nonzero.sum())
    if n_nonzero == 0:
        raise ValueError("all differences are zero; no test possible")

    ranked = d[nonzero] if zeros == "drop" else d
    # one grouping of |d| gives the tie sizes and the midranks: group g
    # holds ranks cumsum(c)[g] - c[g] + 1 .. cumsum(c)[g]
    _, group, tie_counts = np.unique(np.abs(ranked), return_inverse=True,
                                     return_counts=True)
    ranks = (np.cumsum(tie_counts) - (tie_counts - 1) / 2)[group][ranked != 0]
    dd = d[nonzero]
    n_ranked = len(ranked)
    n_zero_ranked = n_ranked - n_nonzero

    w_plus = float(ranks[dd > 0].sum())
    w_minus = float(ranks[dd < 0].sum())
    w_min = min(w_plus, w_minus)

    p_normal = _normal_one_sided(w_min, n_ranked, n_zero_ranked,
                                 tie_counts.astype(np.float64))
    if n_nonzero <= EXACT_LIMIT:
        p = _exact_two_sided(ranks, w_min)
        method = "exact"
    else:
        p = min(1.0, 2.0 * p_normal)
        method = "normal_approx"

    return RankTestResult(
        w_minus=w_minus, w_plus=w_plus, n_effective=n_nonzero,
        p_two_sided=p, method=method, zeros=zeros,
        p_one_sided_normal=p_normal,
    )
