import numpy as np
import pytest

from liuboost.metrics import aupr, auroc, pr_curve, roc_curve


def pairwise_auroc(scores, labels):
    """O(n^2) Mann-Whitney oracle with half credit for ties."""
    sp = scores[labels == 1]
    sn = scores[labels == -1]
    greater = (sp[:, None] > sn[None, :]).sum()
    ties = (sp[:, None] == sn[None, :]).sum()
    return (2 * greater + ties) / (2.0 * len(sp) * len(sn))


def naive_aupr(scores, labels):
    """Threshold-by-threshold step summation oracle; a score above the
    threshold is predicted positive."""
    distinct = np.sort(np.unique(scores))[::-1]
    thresholds = [(distinct[i] + distinct[i + 1]) / 2
                  for i in range(len(distinct) - 1)] + [distinct[-1] - 1.0]
    pos = labels == 1
    area, prev_recall = 0.0, 0.0
    for t in thresholds:
        pred_pos = scores > t
        tp = int((pred_pos & pos).sum())
        fp = int((pred_pos & ~pos).sum())
        recall = tp / int(pos.sum())
        area += (recall - prev_recall) * (tp / (tp + fp) if tp + fp else 0.0)
        prev_recall = recall
    return area


@pytest.mark.parametrize("curve", [roc_curve, pr_curve], ids=["roc", "pr"])
def test_validation(curve):
    with pytest.raises(ValueError, match="equal-length"):
        curve(np.zeros(3), np.array([1, -1]))
    with pytest.raises(ValueError, match="-1 or \\+1"):
        curve(np.zeros(2), np.array([0, 1]))
    # 1.9 used to be truncated to 1, for an AUROC of 1.0
    with pytest.raises(ValueError, match="-1 or \\+1"):
        curve([0.9, 0.1, 0.2, 0.3], [1.9, -1, -1, -1])


@pytest.mark.parametrize("score", [auroc, aupr, roc_curve, pr_curve],
                         ids=["auroc", "aupr", "roc", "pr"])
@pytest.mark.parametrize("scores", [[np.nan, 0.5, 0.1],
                                    [np.nan, np.nan, 0.1]],
                         ids=["one-nan", "two-nan"])
def test_nan_scores_rejected(score, scores):
    # a NaN used to sort as the lowest score (auroc 0.0 for one NaN), and
    # two NaNs did not tie with each other (0.5 where a tie gives 0.75)
    with pytest.raises(ValueError, match="NaN"):
        score(np.array(scores), np.array([1, -1, -1]))


def test_infinite_scores_order():
    y = np.array([1, -1, 1, -1])
    s = np.array([np.inf, 0.5, 0.7, -np.inf])
    assert auroc(s, y) == pairwise_auroc(s, y) == 1.0
    assert aupr(s, y) == 1.0
    # tied infinities group like any tied score
    s = np.array([np.inf, np.inf, 0.1, -np.inf])
    assert auroc(s, y) == pairwise_auroc(s, y) == 0.625


class TestRoc:
    def test_perfect_and_reversed(self):
        s = np.array([0.9, 0.8, 0.2, 0.1])
        y = np.array([1, 1, -1, -1])
        assert auroc(s, y) == 1.0
        assert auroc(-s, y) == 0.0

    def test_identical_scores_half(self):
        s = np.full(6, 0.3)
        y = np.array([1, 1, -1, -1, -1, -1])
        curve = roc_curve(s, y)
        assert curve.area == 0.5
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))

    def test_endpoints_and_monotone_points(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=40)
        y = np.where(rng.random(40) < 0.4, 1, -1)
        curve = roc_curve(s, y)
        xs = [p[0] for p in curve.points]
        ys = [p[1] for p in curve.points]
        assert curve.points[0] == (0.0, 0.0) and curve.points[-1] == (1.0, 1.0)
        assert all(a <= b for a, b in zip(xs, xs[1:]))
        assert all(a <= b for a, b in zip(ys, ys[1:]))

    def test_negation_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = rng.integers(0, 4, size=30).astype(float)  # heavy ties
            y = np.where(rng.random(30) < 0.5, 1, -1)
            if len(set(y)) < 2:
                continue
            assert auroc(-s, y) == pytest.approx(1 - auroc(s, y), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=50)
        y = np.where(rng.random(50) < 0.3, 1, -1)
        base = auroc(s, y)
        assert auroc(2.0 * s + 3.0, y) == base
        assert auroc(np.exp(s), y) == base

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for case in range(200):
            n = int(rng.integers(2, 80))
            y = np.where(rng.random(n) < 0.5, 1, -1)
            if len(set(y.tolist())) < 2:
                continue
            if case % 3 == 0:
                s = rng.integers(0, 3, size=n).astype(float)
            else:
                s = rng.normal(size=n)
            assert abs(auroc(s, y) - pairwise_auroc(s, y)) <= 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_curve(np.zeros(3), np.array([1, 1, 1]))


class TestPr:
    def test_perfect_separation(self):
        s = np.array([0.9, 0.8, 0.2, 0.1])
        y = np.array([1, 1, -1, -1])
        assert aupr(s, y) == 1.0

    def test_identical_scores_prevalence(self):
        s = np.full(10, 1.0)
        y = np.r_[np.ones(3, dtype=int), -np.ones(7, dtype=int)]
        assert aupr(s, y) == pytest.approx(0.3)

    def test_matches_naive_threshold_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = 30
            y = np.where(rng.random(n) < 0.4, 1, -1)
            if (y == 1).sum() == 0:
                continue
            s = np.round(rng.normal(size=n), 1)  # rounding creates ties
            assert aupr(s, y) == pytest.approx(naive_aupr(s, y), abs=1e-12)

    def test_points_start_at_full_precision(self):
        s = np.array([0.9, 0.5, 0.1])
        y = np.array([1, -1, -1])
        curve = pr_curve(s, y)
        assert curve.points[0] == (0.0, 1.0)
        assert curve.points[-1][0] == 1.0  # recall reaches 1

    def test_no_positive_rejected(self):
        with pytest.raises(ValueError):
            pr_curve(np.zeros(3), np.array([-1, -1, -1]))
