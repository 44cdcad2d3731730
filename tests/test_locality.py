import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from liuboost import locality
from liuboost.data import Dataset
from liuboost.locality import _neighbor_matrix, _query_workers, assign_weights

ROOT = Path(__file__).resolve().parent.parent


def one_d_dataset(positions, labels):
    return Dataset(features=np.asarray(positions, dtype=float)[:, None],
                   labels=np.asarray(labels, dtype=np.int64),
                   feature_names=("x",))


def brute_force_neighbors(X, i, k):
    """Reference: full sort by (distance, index), self excluded."""
    d = ((X - X[i]) ** 2).sum(axis=1)
    order = sorted((j for j in range(len(X)) if j != i),
                   key=lambda j: (d[j], j))
    return np.asarray(order[:k])


def tie_grid():
    """50 points on an integer grid: many exact distance ties."""
    rng = np.random.default_rng(11)
    return rng.integers(0, 4, size=(50, 3)).astype(float)


def neighbor_sets(X, k):
    """Rows of _neighbor_matrix, each sorted: the rows are sets."""
    return np.sort(_neighbor_matrix(X, k), axis=1)


def brute_force_sets(X, k):
    return np.array([np.sort(brute_force_neighbors(X, i, k))
                     for i in range(len(X))])


def assert_brute_force(X, k):
    np.testing.assert_array_equal(neighbor_sets(X, k), brute_force_sets(X, k))


def tied_neighbors_everywhere(X, k):
    """_tied_neighbors called on every row, sorted rows: the tied-row path
    without the settle test, with each row's k-th distance from the tree
    (self is one of the k + 1 nearest distances, at 0)."""
    tree = cKDTree(X)
    kth = tree.query(X, k=k + 1)[0][:, k]
    return np.sort(locality._tied_neighbors(tree, X, np.arange(len(X)), kth,
                                            k), axis=1)


@pytest.fixture
def fallback_rows(monkeypatch):
    """Query rows of every call to the tied-row fallback, in call order."""
    calls = []
    tied = locality._tied_neighbors

    def spy(tree, features, rows, kth, k):
        calls.append(np.array(rows))
        return tied(tree, features, rows, kth, k)

    monkeypatch.setattr(locality, "_tied_neighbors", spy)
    return calls


@st.composite
def point_sets(draw):
    """(X, k): dyadic floats, small integers, or rows drawn with repeats.

    Dyadic values keep every squared distance exact, so the reference
    and the searches see the same ties.
    """
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["float", "int", "dup"]))
    grid = st.integers(0, 3) if kind == "int" else st.integers(-2**10, 2**10)
    scale = 1 if kind == "int" else 2**-6
    base = draw(arrays(np.int64, (draw(st.integers(2, 25)), d), elements=grid))
    X = base * scale
    if kind == "dup":
        X = X[draw(st.lists(st.integers(0, len(X) - 1),
                            min_size=2, max_size=30))]
    return X, draw(st.integers(1, len(X) - 1))


class TestKnnIndices:
    def test_three_collinear_points(self):
        X = np.array([[0.0], [1.0], [3.0]])
        assert neighbor_sets(X, 1).tolist() == [[1], [0], [1]]

    def test_duplicate_points_tie_break_by_index(self):
        X = np.array([[0.0], [0.0], [0.0], [5.0]])
        assert neighbor_sets(X, 2)[2].tolist() == [0, 1]
        assert neighbor_sets(X, 3)[0].tolist() == [1, 2, 3]

    def test_k_bounds(self):
        # the neighbor search is reached through assign_weights, which
        # owns the k check: k must lie in [1, m-1]
        ds = one_d_dataset([0, 1, 2, 3], [1, 1, -1, -1])
        with pytest.raises(ValueError, match="k="):
            assign_weights(ds, k=0)
        with pytest.raises(ValueError, match="k="):
            assign_weights(ds, k=4)
        assert assign_weights(ds, k=3).n_same.tolist() == [1, 1, 1, 1]

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
    def test_k_must_be_an_integer(self, k):
        ds = one_d_dataset([0, 1, 2, 3], [1, 1, -1, -1])
        with pytest.raises(ValueError, match="k="):
            assign_weights(ds, k=k)
        assert assign_weights(ds, k=np.int64(3)).n_same.tolist() == [1] * 4

    def test_matches_brute_force_with_ties(self):
        X = tie_grid()
        d = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d, np.inf)
        for k in (1, 3, 7):
            # ties straddle the k-th distance on some rows, so the
            # tied-row fallback runs
            kth = np.sort(d, axis=1)[:, k - 1:k]
            assert ((d <= kth).sum(axis=1) > k).any()
            assert_brute_force(X, k)

    def test_more_duplicates_than_candidates(self):
        # eight copies of one point: the k-d tree may list k+2 of the
        # copies before the row itself, so a row's own index can be
        # missing from its candidates
        rng = np.random.default_rng(13)
        X = np.vstack([np.tile([0.5, 0.5], (8, 1)), rng.random((12, 2))])
        for k in (1, 3, 5):
            idx = cKDTree(X).query(X, k=k + 2)[1]
            assert not (idx == np.arange(len(X))[:, None]).any(axis=1).all()
            assert_brute_force(X, k)

    def test_k_is_m_minus_one(self):
        # the k-d tree pads the (k+2)-th candidate with inf and index m
        rng = np.random.default_rng(14)
        for X in (rng.random((6, 3)), np.zeros((4, 2)), tie_grid()[:9]):
            m = len(X)
            assert cKDTree(X).query(X, k=m + 1)[1].max() == m
            assert_brute_force(X, m - 1)

    def test_k_one(self):
        rng = np.random.default_rng(15)
        assert_brute_force(rng.random((40, 2)), 1)
        assert_brute_force(tie_grid(), 1)

    @settings(max_examples=200, deadline=None)
    @given(point_sets())
    def test_matches_brute_force_property(self, case):
        assert_brute_force(*case)

    @settings(max_examples=200, deadline=None)
    @given(point_sets())
    def test_matches_brute_force_property_parallel(self, case):
        # one query thread per row, up to the cores: small inputs too
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(locality, "_ROWS_PER_WORKER", 1)
            assert_brute_force(*case)

    @settings(max_examples=200, deadline=None)
    @given(point_sets())
    def test_matches_brute_force_property_small_leaves(self, case):
        # point_sets() fits in one 64-row leaf: one-row leaves make the
        # search descend and prune the tree
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(locality, "_LEAF_ROWS", 1)
            assert_brute_force(*case)

    @pytest.mark.parametrize("m", [63, 64, 65, 129])
    @pytest.mark.parametrize("kind", ["int", "float"])
    def test_matches_brute_force_around_leaf_size(self, m, kind):
        # one leaf, one leaf plus one row, and two full leaves plus one
        rng = np.random.default_rng(m)
        X = (rng.integers(0, 4, size=(m, 3)).astype(float) if kind == "int"
             else rng.random((m, 3)))
        for k in (1, 5):
            assert_brute_force(X, k)

    @settings(max_examples=200, deadline=None)
    @given(point_sets())
    def test_matches_brute_force_property_fallback(self, case):
        # the tied-row path on every row, k = m - 1 included
        X, k = case
        np.testing.assert_array_equal(tied_neighbors_everywhere(X, k),
                                      brute_force_sets(X, k))


def usable_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TestQueryWorkers:
    def test_rule(self, monkeypatch):
        per = locality._ROWS_PER_WORKER
        sizes = (2, per - 1, per, 2 * per - 1, 2 * per, 3 * per, 50 * per)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert [_query_workers(m) for m in sizes] == [1, 1, 1, 1, 2, 3, 3]
        # without sched_getaffinity: the CPU count, or one when unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _query_workers(50 * per) == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _query_workers(50 * per) == 1

    @pytest.mark.parametrize("name", ["random", "tie_grid"])
    def test_result_does_not_depend_on_workers(self, monkeypatch, name):
        X = (np.random.default_rng(17).random((300, 4)) if name == "random"
             else tie_grid())
        m = len(X)
        workers = []

        class SpyTree(cKDTree):
            def query(self, *args, **kwargs):
                workers.append(kwargs["workers"])
                return super().query(*args, **kwargs)

        monkeypatch.setattr(locality, "cKDTree", SpyTree)
        for k in (1, 3, 7):
            monkeypatch.setattr(locality, "_ROWS_PER_WORKER", m + 1)
            serial = _neighbor_matrix(X, k)
            monkeypatch.setattr(locality, "_ROWS_PER_WORKER", 1)
            parallel = _neighbor_matrix(X, k)
            np.testing.assert_array_equal(parallel, serial)
            assert_brute_force(X, k)
        parallel_workers = min(m, usable_cores())
        assert workers == [1, parallel_workers, parallel_workers] * 3


class TestTiedFallback:
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_fallback_on_tie_grid(self, fallback_rows, k):
        X = tie_grid()
        m = len(X)
        d = np.sort(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
                    + np.diag(np.full(m, np.inf)), axis=1)
        tied = np.flatnonzero(d[:, k - 1] == d[:, k])
        assert 0 < len(tied) < m
        # distinct integer squared distances are at least 1 apart, so
        # distinct distances differ far beyond the margin, which sends
        # exactly the rows tied at the k-th distance
        assert_brute_force(X, k)
        assert len(fallback_rows) == 1
        np.testing.assert_array_equal(fallback_rows[0], tied)
        # the tied-row path alone, on every row, gives the same sets
        np.testing.assert_array_equal(tied_neighbors_everywhere(X, k),
                                      brute_force_sets(X, k))

    def test_continuous_rows_settle(self, fallback_rows):
        rng = np.random.default_rng(16)
        assert_brute_force(rng.normal(size=(300, 4)), 5)
        assert fallback_rows == []

    def _traced_peak(self, call, m, bound):
        """call()'s result; its tracemalloc peak must stay below bound,
        far below one dense m x m matrix (275 MiB at m = 6000)."""
        assert m * m * 8 > 4 * bound
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak / 2**20:.1f} MiB"
        return result

    def _traced_costs(self, X, y, bound):
        ds = Dataset(features=X, labels=y,
                     feature_names=tuple(f"x{j}" for j in range(X.shape[1])))
        cv = self._traced_peak(lambda: assign_weights(ds, k=5), len(X), bound)
        np.testing.assert_array_equal(cv.n_same + cv.n_opposite, 5)

    def _normal_rows(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(6000, 10))
        return X, np.where(rng.random(6000) < 0.1, 1, -1)

    def test_memory_bounded(self):
        self._traced_costs(*self._normal_rows(), 64 * 2**20)

    def test_memory_bounded_on_fallback_path(self):
        # all 6000 rows through _tied_neighbors; the tree is built and
        # queried inside the trace too
        X = self._normal_rows()[0]
        got = self._traced_peak(lambda: tied_neighbors_everywhere(X, 5),
                                len(X), 64 * 2**20)
        np.testing.assert_array_equal(got, neighbor_sets(X, 5))

    def test_natural_ties_at_scale(self, fallback_rows):
        # 6000 rows drawn from at most 40 distinct points, 150 copies each
        # on average: every row's k-th and (k+1)-th distances are both 0,
        # so every row is tied and resolved by the fallback
        rng = np.random.default_rng(18)
        points = rng.integers(0, 4, size=(40, 4)).astype(float)
        X = points[rng.integers(0, len(points), size=6000)]
        y = np.where(rng.random(6000) < 0.1, 1, -1)
        self._traced_costs(X, y, 16 * 2**20)
        np.testing.assert_array_equal(fallback_rows[0], np.arange(6000))


class TestRssBound:
    def test_rss_growth_bounded(self):
        # the k-d tree's node buffer and its query threads live outside
        # tracemalloc's view; the peak RSS of a fresh process sees them.
        # Uniform rows have no ties, so this measures the tree path alone.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "locality_scale.py"),
             "--m", "20000", "--d", "10", "--k", "5"],
            env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        line = json.loads(result.stdout.splitlines()[-1])
        assert line["workers"] == _query_workers(20000)
        assert line["tied_rows"] == 0, line
        assert 0 <= line["rss_growth_mib"] < 64, line


class TestAssignWeights:
    def test_all_same_class_neighborhood(self):
        # two well-separated single-class clusters of six: every instance
        # has N_s = 5, N_o = 0
        ds = one_d_dataset(list(range(6)) + [100 + j for j in range(6)],
                           [-1] * 6 + [1] * 6)
        cv = assign_weights(ds, k=5, delta=0.7)
        np.testing.assert_allclose(cv.weight_plus, 0.2)
        np.testing.assert_allclose(cv.weight_minus, 0.7)
        assert cv.n_same.tolist() == [5] * 12
        assert cv.n_opposite.tolist() == [0] * 12

    def test_all_opposite_class_neighborhood(self):
        # index 0 (+1) is surrounded by five -1 instances
        ds = one_d_dataset([0, 1, 2, 3, 4, 5, 1000, 1001, 2000, 2001, 2002],
                           [1, -1, -1, -1, -1, -1, 1, 1, -1, -1, -1])
        cv = assign_weights(ds, k=5, delta=0.9)
        assert cv.n_same[0] == 0 and cv.n_opposite[0] == 5
        assert cv.weight_plus[0] == 0.9      # delta fallback
        assert cv.weight_minus[0] == 1.0 / 5

    def test_mixed_neighborhood(self):
        # index 0 (+1): neighbors at 1,2 are +1 and at 3,4,5 are -1
        ds = one_d_dataset([0, 1, 2, 3, 4, 5, 1000, 2000, 2001, 2002, 2003],
                           [1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1])
        cv = assign_weights(ds, k=5, delta=1.0)
        assert cv.n_same[0] == 2 and cv.n_opposite[0] == 3
        assert cv.weight_plus[0] == 0.5
        assert cv.weight_minus[0] == pytest.approx(1.0 / 3)

    def test_parameter_validation(self):
        ds = one_d_dataset([0, 1, 2, 3], [1, 1, -1, -1])
        with pytest.raises(ValueError, match="k="):
            assign_weights(ds, k=4)
        with pytest.raises(ValueError, match="delta"):
            assign_weights(ds, k=2, delta=0.0)
        with pytest.raises(ValueError, match="delta"):
            assign_weights(ds, k=2, delta=1.5)

    def test_counts_partition_k_and_weights_in_range(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            m = int(rng.integers(20, 80))
            X = rng.normal(size=(m, 3))
            y = np.where(rng.random(m) < 0.3, 1, -1)
            if (y == 1).sum() == 0 or (y == 1).sum() > (y == -1).sum():
                continue
            ds = Dataset(features=X, labels=y, feature_names=("a", "b", "c"))
            for k in (1, 5):
                cv = assign_weights(ds, k=k, delta=0.5)
                np.testing.assert_array_equal(cv.n_same + cv.n_opposite, k)
                for w in (cv.weight_plus, cv.weight_minus):
                    assert np.all(w > 0) and np.all(w <= 1)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 4))  # continuous: no distance ties
        y = np.r_[np.ones(15, dtype=np.int64), -np.ones(25, dtype=np.int64)]
        ds = Dataset(features=X, labels=y, feature_names=tuple("abcd"))
        perm = rng.permutation(40)
        ds_p = Dataset(features=X[perm], labels=y[perm],
                       feature_names=tuple("abcd"))
        cv, cv_p = assign_weights(ds, 5), assign_weights(ds_p, 5)
        np.testing.assert_allclose(cv_p.weight_plus, cv.weight_plus[perm])
        np.testing.assert_allclose(cv_p.weight_minus, cv.weight_minus[perm])

    def test_translation_invariance(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 3))
        y = np.r_[np.ones(10, dtype=np.int64), -np.ones(20, dtype=np.int64)]
        ds = Dataset(features=X, labels=y, feature_names=tuple("abc"))
        ds_t = Dataset(features=X + np.array([5.0, -2.0, 100.0]), labels=y,
                       feature_names=tuple("abc"))
        cv, cv_t = assign_weights(ds, 4), assign_weights(ds_t, 4)
        np.testing.assert_allclose(cv_t.weight_plus, cv.weight_plus)
        np.testing.assert_allclose(cv_t.weight_minus, cv.weight_minus)
