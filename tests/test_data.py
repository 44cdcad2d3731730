import warnings

import numpy as np
import pytest
from conftest import make_clusters
from hypothesis import given, settings
from hypothesis import strategies as st

from liuboost.data import (Dataset, KeelFormatError, apply_min_max,
                           as_labels, fit_min_max, imbalance_ratio,
                           parse_keel, serialize_keel, stratified_folds)

SAMPLE = """\
@relation toy
@attribute a real [0.0, 10.0]
@attribute b real [0.0, 10.0]
@attribute Class {negative, positive}
@inputs a, b
@outputs Class
@data
1.0, 2.0, negative
3.0, 4.0, negative
5.0, 6.0, negative
7.0, 8.0, positive
"""


class TestParseKeel:
    def test_basic(self):
        ds = parse_keel(SAMPLE)
        assert ds.n_instances == 4 and ds.n_features == 2
        assert ds.feature_names == ("a", "b")
        assert ds.labels.tolist() == [-1, -1, -1, 1]
        np.testing.assert_array_equal(ds.features[3], [7.0, 8.0])
        assert ds.name == "toy"

    def test_minority_is_positive_regardless_of_class_names(self):
        # three "positive" rows, one "negative": negative is the minority
        text = SAMPLE.replace("negative", "X").replace("positive", "negative")
        text = text.replace("X", "positive")
        ds = parse_keel(text)
        assert ds.minority_count == 1
        assert ds.labels.tolist() == [-1, -1, -1, 1]

    def test_tie_broken_lexicographically(self):
        text = SAMPLE.replace("3.0, 4.0, negative", "3.0, 4.0, positive")
        # the lexicographically smaller name becomes +1
        assert parse_keel(text).labels.tolist() == [1, -1, 1, -1]

    def test_outputs_column_not_last(self):
        text = ("@relation t\n"
                "@attribute Class {n, p}\n"
                "@attribute a real [0, 1]\n"
                "@outputs Class\n@data\n"
                "n, 0.5\nn, 0.6\np, 0.7\n")
        ds = parse_keel(text)
        assert ds.feature_names == ("a",)
        assert ds.labels.tolist() == [-1, -1, 1]

    def test_name_override(self):
        assert parse_keel(SAMPLE, name="other").name == "other"

    @pytest.mark.parametrize("mutate, message", [
        (lambda t: t.split("@data")[0], "missing @data"),
        (lambda t: t.replace("@relation toy\n", ""), "missing @relation"),
        (lambda t: t.replace("1.0", "?"), "missing value"),
        (lambda t: t.replace("1.0", "<null>"), "missing value"),
        (lambda t: t.replace("1.0", "abc"), "non-numeric"),
        (lambda t: t.replace("1.0, 2.0, negative", "1.0, negative"), "fields"),
        (lambda t: t.replace("real [0.0, 10.0]", "string"), "unsupported"),
        (lambda t: t.replace("@inputs", "@bogus"), "unknown header"),
        (lambda t: "1.0, 2.0, negative\n" + t, "before @data"),
        (lambda t: t.replace("5.0, 6.0", "5.0, inf"),
         "non-finite value 'inf' in row 2, attribute 'b'"),
        (lambda t: t.replace("3.0, 4.0", "nan, 4.0"),
         "non-finite value 'nan' in row 1, attribute 'a'"),
        (lambda t: t.replace("7.0, 8.0", "7.0, 1e999"),
         "non-finite value '1e999' in row 3, attribute 'b'"),
        (lambda t: "@relation toy\n@attribute Class {n, p}\n@data\nn\nn\np\n",
         "no input attribute"),
        (lambda t: "", "missing @data section"),
    ])
    def test_format_errors(self, mutate, message):
        with pytest.raises(KeelFormatError, match=message):
            parse_keel(mutate(SAMPLE))

    def test_header_keywords_ignore_case_and_tabs(self):
        text = (SAMPLE.replace("@data", "@DATA")
                .replace("@attribute a", "@attribute\ta")
                .replace("@relation toy", "@RELATION\ttoy"))
        ds = parse_keel(text)
        assert ds.name == "toy" and ds.feature_names == ("a", "b")
        assert ds.labels.tolist() == [-1, -1, -1, 1]

    def test_at_line_after_data_is_a_row(self):
        # only the header reads keywords: past @data every line is a row
        text = SAMPLE.replace("@data\n", "@data\n@relation, 1.0, x\n")
        with pytest.raises(KeelFormatError,
                           match="non-numeric value '@relation' in attribute 'a'"):
            parse_keel(text)

    def test_empty_data_section(self):
        text = SAMPLE.split("@data")[0] + "@data\n"
        with pytest.raises(KeelFormatError, match="empty @data"):
            parse_keel(text)

    def test_three_classes_rejected(self):
        text = SAMPLE.replace("{negative, positive}",
                              "{negative, positive, other}")
        text = text.replace("3.0, 4.0, negative", "3.0, 4.0, other")
        with pytest.raises(KeelFormatError, match="expected 2 classes"):
            parse_keel(text)

    def test_nominal_input_rejected(self):
        text = SAMPLE.replace("@attribute a real [0.0, 10.0]",
                              "@attribute a {x, y}")
        text = text.replace("1.0, 2.0", "x, 2.0")
        with pytest.raises(KeelFormatError, match="nominal input"):
            parse_keel(text)

    def test_round_trip_exact(self):
        ds = make_clusters(7, 13, d=4, seed=5)
        back = parse_keel(serialize_keel(ds), name=ds.name)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError, match="minority"):
            Dataset(features=np.zeros((3, 1)), labels=np.array([1, 1, -1]),
                    feature_names=("a",))
        with pytest.raises(ValueError, match="-1 or \\+1"):
            Dataset(features=np.zeros((2, 1)), labels=np.array([0, 1]),
                    feature_names=("a",))
        # a fraction used to be truncated toward zero: [1, -1, -1, -1]
        for labels in ([1.5, -1.9, -1, -1], [True, False, False, False]):
            with pytest.raises(ValueError, match="-1 or \\+1"):
                Dataset(features=np.zeros((4, 1)), labels=labels,
                        feature_names=("a",))
        with pytest.raises(ValueError, match="both classes"):
            Dataset(features=np.zeros((2, 1)), labels=np.array([-1, -1]),
                    feature_names=("a",))
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(features=np.array([[np.nan], [0.0]]),
                    labels=np.array([1, -1]), feature_names=("a",))

    def test_int64_labels_are_not_copied(self):
        # fit_tree checks the labels of every tree it grows
        y = np.array([1, -1, -1], dtype=np.int64)
        assert as_labels(y) is y
        assert as_labels([1.0, -1.0]).dtype == np.int64

    def test_imbalance_ratio(self):
        ds = make_clusters(5, 15, seed=0)
        assert imbalance_ratio(ds) == 3.0


class TestStratifiedFolds:
    def test_balanced_partition(self):
        ds = make_clusters(10, 10, seed=3)
        plan = stratified_folds(ds, 10, seed=42)
        assert plan.k == 10
        all_idx = np.concatenate(plan.folds)
        np.testing.assert_array_equal(np.sort(all_idx), np.arange(20))
        for f in plan.folds:  # exactly one instance of each class per fold
            assert len(f) == 2 and set(ds.labels[f]) == {-1, 1}

    def test_split_disjoint_and_complete(self):
        ds = make_clusters(8, 22, seed=4)
        plan = stratified_folds(ds, 5, seed=0)
        for fold in range(5):
            train, test = plan.split(fold)
            assert set(train) & set(test) == set()
            assert len(train) + len(test) == 30

    def test_deterministic(self):
        ds = make_clusters(9, 21, seed=4)
        a = stratified_folds(ds, 3, seed=7)
        b = stratified_folds(ds, 3, seed=7)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa, fb)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 60), st.integers(2, 6), st.integers(0, 10 ** 6))
    def test_matches_bucket_construction(self, m, k, seed):
        # oracle: each shuffled class dealt into per-fold buckets, idx[j::k]
        # to fold j, with the same generator draws
        n_pos = int(np.random.default_rng(seed).integers(1, m // 2 + 1))
        ds = make_clusters(n_pos, m - n_pos, seed=seed % 997)
        k = min(k, m)
        rng = np.random.default_rng(seed)
        buckets = [[] for _ in range(k)]
        for cls in (1, -1):
            idx = np.flatnonzero(ds.labels == cls)
            rng.shuffle(idx)
            for j in range(k):
                buckets[j].extend(idx[j::k])
        plan = stratified_folds(ds, k, seed)
        for j, bucket in enumerate(buckets):
            test = np.sort(bucket)
            train = np.sort(np.concatenate(buckets[:j] + buckets[j + 1:]))
            np.testing.assert_array_equal(plan.folds[j], test)
            got_train, got_test = plan.split(j)
            np.testing.assert_array_equal(got_test, test)
            np.testing.assert_array_equal(got_train, train)

    def test_small_class_leaves_folds_without_it(self):
        ds = make_clusters(3, 27, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = stratified_folds(ds, 10, seed=0)
        assert plan.k == 10
        assert sum(bool((ds.labels[f] == 1).any()) for f in plan.folds) == 3

    def test_k_bounds(self):
        ds = make_clusters(3, 3, seed=0)
        with pytest.raises(ValueError):
            stratified_folds(ds, 1, seed=0)
        with pytest.raises(ValueError):
            stratified_folds(ds, 7, seed=0)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3"])
    def test_k_must_be_an_integer(self, k):
        ds = make_clusters(3, 3, seed=0)
        with pytest.raises(ValueError, match="k must be"):
            stratified_folds(ds, k, seed=0)
        assert stratified_folds(ds, np.int64(3), seed=0).k == 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 60), st.integers(2, 6), st.integers(0, 10 ** 6))
    def test_partition_and_stratification_property(self, m, k, seed):
        rng = np.random.default_rng(seed)
        n_pos = int(rng.integers(1, m // 2 + 1))
        ds = make_clusters(n_pos, m - n_pos, seed=seed % 997)
        plan = stratified_folds(ds, min(k, m), seed)
        all_idx = np.concatenate(plan.folds)
        np.testing.assert_array_equal(np.sort(all_idx), np.arange(m))
        for cls in (1, -1):
            n_cls = int((ds.labels == cls).sum())
            per_fold = [int((ds.labels[f] == cls).sum()) for f in plan.folds]
            lo, hi = n_cls // plan.k, -(-n_cls // plan.k)
            assert all(lo <= c <= hi for c in per_fold)


class TestMinMax:
    def test_example(self):
        mins, ranges = fit_min_max(np.array([[2.0], [4.0], [6.0]]))
        out = apply_min_max(np.array([[2.0], [4.0], [6.0]]), mins, ranges)
        np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        X = np.array([[3.0, 1.0], [3.0, 2.0]])
        out = apply_min_max(X, *fit_min_max(X))
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])
        np.testing.assert_array_equal(out[:, 1], [0.0, 1.0])

    def test_idempotent(self):
        X = make_clusters(5, 9, d=3, seed=6).features
        once = apply_min_max(X, *fit_min_max(X))
        twice = apply_min_max(once, *fit_min_max(once))
        np.testing.assert_allclose(twice, once, atol=1e-15)
        assert once.min() >= 0.0 and once.max() <= 1.0
