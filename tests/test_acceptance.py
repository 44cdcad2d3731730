"""Acceptance suite: one test (and one printed verdict line) per criterion.

Criteria whose published targets are arithmetically unreachable from the
published (rounded) inputs are implemented faithfully and marked strict
xfail so they fail honestly rather than being weakened.
"""
import time

import numpy as np
import pytest
from conftest import make_clusters

from liuboost import ensemble
from liuboost.bench import ExperimentConfig, emit_report, run_experiment
from liuboost.data import Dataset, parse_keel, stratified_folds
from liuboost.ensemble import train_liuboost
from liuboost.locality import assign_weights
from liuboost.metrics import auroc
from liuboost.resample import random_undersample
from liuboost.stats import wilcoxon_signed_rank
from liuboost.synth import BENCHMARK_CATALOG, write_benchmark_suite
from liuboost.tree import fit_tree

# published per-dataset (baseline, proposed) mean AUROC pairs
TABLE_AUROC_PAIRS = [
    (0.977, 0.987), (0.984, 0.988), (0.916, 0.921), (0.987, 0.981),
    (0.784, 0.801), (0.701, 0.780), (0.697, 0.794), (0.988, 0.988),
    (0.961, 0.966), (0.785, 0.794), (0.791, 0.792), (0.599, 0.647),
    (0.708, 0.727), (0.943, 0.953), (0.858, 0.869), (0.646, 0.725),
    (0.941, 0.938), (0.689, 0.704),
]
# published per-dataset (baseline, proposed) mean AUPR pairs
TABLE_AUPR_PAIRS = [
    (0.766, 0.835), (0.690, 0.742), (0.457, 0.548), (0.930, 0.915),
    (0.998, 0.998), (0.209, 0.258), (0.257, 0.263), (0.905, 0.907),
    (0.893, 0.923), (0.403, 0.344), (0.188, 0.249), (0.344, 0.392),
    (0.192, 0.242), (0.648, 0.759), (0.708, 0.753), (0.220, 0.263),
    (0.835, 0.824), (0.529, 0.544),
]

# published dataset shapes: (instances, features, imbalance ratio)
TABLE_SHAPES = {
    "pima": (768, 8, 1.87), "glass5": (214, 9, 22.78),
    "yeast5": (1484, 8, 38.73), "yeast6": (1484, 8, 41.4),
    "ecoli-0-3-4_vs_5": (200, 7, 9.0), "abalone19": (4174, 8, 129.44),
    "pageblocks": (548, 10, 164.0),
    "led7digit-0-2-4-5-6-7-8-9_vs_1": (443, 7, 10.97),
    "glass-0-1-4-6_vs_2": (205, 9, 11.06), "glass2": (214, 9, 11.59),
    "glass6": (214, 9, 6.38), "yeast-1_vs_7": (459, 7, 14.3),
    "poker-8-9_vs_6": (1485, 10, 58.4), "haberman": (306, 3, 2.78),
    "winequality-red-8_vs_6": (656, 11, 35.44), "glass0": (214, 9, 2.06),
    "glass-0-1-5_vs_2": (172, 9, 9.12),
    "yeast-0-2-5-7-9_vs_3-6-8": (1004, 8, 9.14),
}
# no integer class split of (1484, IR 38.73) or (548, IR 164) lands within
# +/-0.01 of the published ratio, so these two rows cannot satisfy the
# fidelity tolerance no matter how the stand-ins are built
IR_INFEASIBLE = ("yeast5", "pageblocks")


@pytest.fixture(scope="session")
def suite_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("benchmark_suite")
    write_benchmark_suite(d)
    return d


def acceptance_config(suite_dir, **overrides):
    base = dict(
        dataset_paths=tuple(str(p) for p in sorted(suite_dir.glob("*.dat"))),
        repeats=5, folds=10, rounds=10, knn_k=5, delta=1.0, max_depth=1,
        master_seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="session")
def benchmark_report(suite_dir):
    """The full 18-dataset comparison at the pinned protocol scale."""
    cfg = acceptance_config(suite_dir)
    started = time.perf_counter()
    report = run_experiment(cfg, jobs=4)
    return report, time.perf_counter() - started


def win_counts(report, metric):
    strict, geq = 0, 0
    for entry in report["datasets"].values():
        liu = entry["algorithms"]["liuboost"][f"{metric}_mean"]
        rus = entry["algorithms"]["rusboost"][f"{metric}_mean"]
        strict += liu > rus
        geq += liu >= rus
    return strict, geq


class TestCriterion1Directional:
    def test_1a_auroc_majority_and_runtime(self, benchmark_report,
                                           record_criterion):
        report, elapsed = benchmark_report
        _, geq = win_counts(report, "auroc")
        record_criterion(
            "1a", geq >= 12 and elapsed <= 600,
            f"AUROC wins(>=) {geq}/18 (need >=12), "
            f"runtime {elapsed:.0f}s (budget 600s)")

    def test_1b_aupr_majority(self, benchmark_report, record_criterion):
        report, _ = benchmark_report
        strict, _ = win_counts(report, "aupr")
        record_criterion("1b", strict >= 11,
                         f"AUPR wins {strict}/18 (need >=11)")

    def test_1c_significance(self, benchmark_report, record_criterion):
        report, _ = benchmark_report
        ok, details = True, []
        for metric in ("auroc", "aupr"):
            w = report["summary"]["wilcoxon"][metric]
            assert w["zeros"] == "drop"
            good = w["p_two_sided"] < 0.05 and w["favors"] == "liuboost"
            ok = ok and good
            details.append(f"{metric} p={w['p_two_sided']:.5f} "
                           f"favors {w['favors']}")
        record_criterion("1c", ok, "; ".join(details) + " (alpha=0.05)")


class TestCriterion2WilcoxonOracle:
    def test_2_aupr_rank_sums_and_p(self, record_criterion):
        r = wilcoxon_signed_rank(TABLE_AUPR_PAIRS, zeros="pratt")
        ok = (r.w_minus, r.w_plus) == (23.5, 146.5) \
            and abs(r.p_one_sided_normal - 0.0037) <= 0.0005
        record_criterion(
            "2 (AUPR table)", ok,
            f"rank sums ({r.w_minus}, {r.w_plus}) vs (23.5, 146.5), "
            f"one-sided normal p={r.p_one_sided_normal:.5f} vs "
            f"0.0037±0.0005")

    def test_2_auroc_p(self, record_criterion):
        r = wilcoxon_signed_rank(TABLE_AUROC_PAIRS, zeros="pratt")
        ok = abs(r.p_one_sided_normal - 0.00068) <= 0.0002
        record_criterion(
            "2 (AUROC p)", ok,
            f"one-sided normal p={r.p_one_sided_normal:.6f} vs "
            f"0.00068±0.0002")

    @pytest.mark.xfail(
        strict=True,
        reason="unattainable from the published inputs: ranking the rounded "
               "table pairs under the all-pairs (pratt) convention yields "
               "(10.0, 160.0); the published (11.5, 159.5) needs one "
               "baseline-favoring difference tied at rank 1.5, which only "
               "unrounded source values could produce")
    def test_2_auroc_rank_sums(self, record_criterion):
        r = wilcoxon_signed_rank(TABLE_AUROC_PAIRS, zeros="pratt")
        record_criterion(
            "2 (AUROC rank sums)",
            (r.w_minus, r.w_plus) == (11.5, 159.5),
            f"rank sums ({r.w_minus}, {r.w_plus}) vs published "
            f"(11.5, 159.5)")


class TestCriterion3AdaBoostReduction:
    @staticmethod
    def textbook_adaboost(X, y, T, max_depth):
        """Independently written classical AdaBoost on the same weak
        learner, for the unit-cost/no-undersampling reduction oracle."""
        m = len(y)
        D = np.full(m, 1.0 / m)
        out = []
        for _ in range(T):
            tree = fit_tree(X, y, D, max_depth)
            pred = tree.predict_many(X)
            eps = float(D[pred != y].sum())
            alpha = 0.5 * np.log((1.0 - eps) / eps)
            D = D * np.exp(-alpha * y * pred)
            D = D / D.sum()
            out.append((eps, alpha, D.copy()))
        return out

    def test_3_reduction(self, record_criterion, monkeypatch):
        # train on the full sample: every round keeps every row
        monkeypatch.setattr(ensemble, "random_undersample",
                            lambda labels, rng: np.arange(len(labels)))
        worst = 0.0
        for seed in range(5):
            ds = make_clusters(25, 55, d=3, sep=2.5, seed=100 + seed,
                               noise=1.4, flip_fraction=0.15)
            model = train_liuboost(ds, T=20, k=1, delta=1.0, rng=0,
                                   max_depth=2)
            assert model.trained_iterations == 20
            oracle = self.textbook_adaboost(ds.features, ds.labels, 20, 2)
            for rec, alpha, (eps_o, alpha_o, D_o) in zip(
                    model.history, model.alphas, oracle):
                worst = max(worst,
                            abs(rec.epsilon - eps_o),
                            abs(alpha - alpha_o),
                            float(np.abs(rec.distribution - D_o).max()))
        record_criterion(
            "3", worst <= 1e-9,
            f"max |difference| over 5 datasets x 20 rounds of "
            f"(eps, alpha, D): {worst:.2e} (tolerance 1e-9)")


class TestCriterion4AurocOracle:
    def test_4_pairwise_equivalence(self, record_criterion):
        rng = np.random.default_rng(404)
        worst, cases = 0.0, 0
        while cases < 1000:
            n = int(rng.integers(2, 501))
            y = np.where(rng.random(n) < rng.uniform(0.05, 0.95), 1, -1)
            if len(set(y.tolist())) < 2:
                continue
            if cases % 3 == 0:  # heavy ties: scores from a tiny alphabet
                s = rng.integers(0, int(rng.integers(2, 6)),
                                 size=n).astype(float)
            else:
                s = rng.normal(size=n)
            sp, sn = s[y == 1], s[y == -1]
            greater = int((sp[:, None] > sn[None, :]).sum())
            ties = int((sp[:, None] == sn[None, :]).sum())
            oracle = (2 * greater + ties) / (2.0 * len(sp) * len(sn))
            worst = max(worst, abs(auroc(s, y) - oracle))
            cases += 1
        record_criterion(
            "4", worst <= 1e-12,
            f"max |trapezoid - pairwise| over 1000 sets: {worst:.2e} "
            f"(tolerance 1e-12)")


class TestCriterion5LocalityOracle:
    def test_5_brute_force_knn(self, record_criterion):
        rng = np.random.default_rng(505)
        branches = {"same_zero": 0, "opposite_zero": 0, "mixed": 0}
        exact, cases = True, 0
        while cases < 100:
            m = int(rng.integers(12, 201))
            d = int(rng.integers(1, 11))
            if cases % 4 == 0:  # integer grid: heavy distance ties
                X = rng.integers(0, 3, size=(m, d)).astype(float)
            elif cases % 4 == 1:  # tight single-class clusters
                X = np.vstack([rng.normal(0, 0.05, size=(m // 2, d)),
                               rng.normal(5, 0.05, size=(m - m // 2, d))])
            else:
                X = rng.normal(size=(m, d))
            y = np.where(rng.random(m) < rng.uniform(0.1, 0.5), 1, -1)
            if cases % 4 == 1:
                y = np.r_[np.ones(m // 2, dtype=np.int64),
                          -np.ones(m - m // 2, dtype=np.int64)]
            n_pos = int((y == 1).sum())
            if n_pos == 0 or n_pos > m - n_pos:
                continue
            ds = Dataset(features=X, labels=y,
                         feature_names=tuple(f"f{j}" for j in range(d)))
            k = int(rng.integers(1, min(8, m - 1) + 1))
            delta = float(rng.choice([1.0, 0.5, 0.07]))
            cv = assign_weights(ds, k=k, delta=delta)

            dist = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
            for i in range(m):
                order = sorted((j for j in range(m) if j != i),
                               key=lambda j: (dist[i, j], j))[:k]
                n_s = int(sum(y[j] == y[i] for j in order))
                n_o = k - n_s
                wp = delta if n_s == 0 else 1.0 / n_s
                wm = delta if n_o == 0 else 1.0 / n_o
                if n_s == 0:
                    branches["same_zero"] += 1
                elif n_o == 0:
                    branches["opposite_zero"] += 1
                else:
                    branches["mixed"] += 1
                exact = exact and cv.weight_plus[i] == wp \
                    and cv.weight_minus[i] == wm \
                    and cv.n_same[i] == n_s
            cases += 1
        all_branches = all(v > 0 for v in branches.values())
        record_criterion(
            "5", exact and all_branches,
            f"100 datasets exact match; branch coverage {branches}")


class TestCriterion6ParserFidelity:
    def test_6_shapes_and_feasible_ratios(self, suite_dir, record_criterion):
        shape_ok, ir_ok, worst_ir = True, True, 0.0
        for entry in BENCHMARK_CATALOG:
            m, d, ir = TABLE_SHAPES[entry.name]
            ds = parse_keel((suite_dir / f"{entry.name}.dat").read_text(),
                            name=entry.name)
            shape_ok = shape_ok and ds.n_instances == m \
                and ds.n_features == d
            if entry.name not in IR_INFEASIBLE:
                err = abs(ds.majority_count / ds.minority_count - ir)
                worst_ir = max(worst_ir, err)
                ir_ok = ir_ok and err <= 0.01
        record_criterion(
            "6 (16 feasible rows)", shape_ok and ir_ok,
            f"all 18 (m, d) exact; worst feasible IR error "
            f"{worst_ir:.4f} (tolerance 0.01)")

    @pytest.mark.xfail(
        strict=True,
        reason="unattainable: no integer minority count gives IR within "
               "0.01 of the published 38.73 for m=1484 (closest split "
               "37/1447 -> 39.11) or 164 for m=548 (closest 3/545 -> "
               "181.67); the published rows are internally inconsistent")
    def test_6_infeasible_rows(self, suite_dir, record_criterion):
        worst = 0.0
        for name in IR_INFEASIBLE:
            _, _, ir = TABLE_SHAPES[name]
            ds = parse_keel((suite_dir / f"{name}.dat").read_text(),
                            name=name)
            worst = max(worst,
                        abs(ds.majority_count / ds.minority_count - ir))
        record_criterion(
            "6 (2 inconsistent rows)", worst <= 0.01,
            f"worst IR error {worst:.2f} vs tolerance 0.01")


class TestCriterion7Invariants:
    def test_7_invariant_bundle(self, record_criterion):
        ok = True
        # boosting distribution invariants and positive stage coefficients
        ds = make_clusters(25, 55, d=3, sep=2.0, seed=700, noise=1.5)
        model = train_liuboost(ds, T=10, rng=0, max_depth=2)
        ok = ok and all(abs(r.distribution.sum() - 1.0) <= 1e-9
                        and np.all(r.distribution >= 0)
                        for r in model.history)
        ok = ok and all(a > 0 for a in model.alphas)
        # undersample balance and uniqueness
        rng = np.random.default_rng(701)
        labels = np.r_[np.ones(12, dtype=np.int64),
                       -np.ones(80, dtype=np.int64)]
        for _ in range(300):
            idx = random_undersample(labels, rng)
            ok = ok and len(set(idx.tolist())) == len(idx) == 24 \
                and set(range(12)) <= set(idx.tolist())
        # fold partition and stratification
        for seed in range(3):
            ds2 = make_clusters(20, 60, seed=710 + seed)
            plan = stratified_folds(ds2, 5, seed)
            ok = ok and np.array_equal(
                np.sort(np.concatenate(plan.folds)), np.arange(80))
            ok = ok and all((ds2.labels[f] == 1).sum() == 4 for f in plan.folds)
        # AUROC monotone-transform invariance
        for seed in range(50):
            r = np.random.default_rng(720 + seed)
            s = r.normal(size=60)
            y = np.where(r.random(60) < 0.4, 1, -1)
            if len(set(y.tolist())) < 2:
                continue
            base = auroc(s, y)
            ok = ok and auroc(3.0 * s + 1.0, y) == base \
                and auroc(np.tanh(s), y) == base
        # signed-rank symmetry
        for seed in range(50):
            r = np.random.default_rng(770 + seed)
            pairs = r.normal(size=(10, 2))
            a = wilcoxon_signed_rank(pairs)
            b = wilcoxon_signed_rank(pairs[:, ::-1])
            ok = ok and (a.w_plus, a.w_minus) == (b.w_minus, b.w_plus) \
                and a.p_two_sided == b.p_two_sided
        record_criterion(
            "7", ok,
            "distribution/alpha, undersample, folds, AUROC-transform and "
            "signed-rank invariants all hold")


class TestCriterion8Determinism:
    def test_8_byte_identical_reports(self, suite_dir, benchmark_report,
                                      record_criterion, tmp_path):
        report, _ = benchmark_report  # produced with jobs=4
        second = run_experiment(acceptance_config(suite_dir), jobs=2)
        out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
        emit_report(report, "json", out1)
        emit_report(second, "json", out2)
        identical = out1.read_bytes() == out2.read_bytes()
        record_criterion(
            "8", identical,
            "full-suite reports byte-identical across runs with different "
            "parallelism (jobs=4 vs jobs=2)")
