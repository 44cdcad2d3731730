import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import make_clusters

from liuboost import bench, data
from liuboost.bench import (ExperimentConfig, derive_seed, emit_report, main,
                            run_experiment)
from liuboost.data import Dataset, serialize_keel
from liuboost.stats import wilcoxon_signed_rank
from liuboost.synth import BENCHMARK_CATALOG, generate_catalog_dataset

ROOT = Path(__file__).resolve().parent.parent

# a well-formed KEEL file but for one infinite feature value
SAMPLE_INF = """\
@relation inf
@attribute a real [0.0, 10.0]
@attribute Class {negative, positive}
@outputs Class
@data
1.0, negative
inf, negative
3.0, positive
"""


def write_dataset(tmp_path, ds):
    path = tmp_path / f"{ds.name}.dat"
    path.write_text(serialize_keel(ds))
    return path


@pytest.fixture
def small_suite(tmp_path):
    paths = [
        write_dataset(tmp_path, make_clusters(12, 28, d=2, sep=3.0, seed=21,
                                              noise=1.2)),
        write_dataset(tmp_path, make_clusters(10, 30, d=3, sep=2.0, seed=22,
                                              noise=1.5)),
    ]
    return tmp_path, paths


def small_config(paths, **overrides):
    base = dict(dataset_paths=tuple(str(p) for p in paths), repeats=2,
                folds=4, rounds=3, knn_k=3, max_depth=2, master_seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    # a fraction, a float or a bool used to pass the range checks, and to
    # fail later: repeats=1.5 in range(), folds=2.5 as "k must be >= 2"
    @pytest.mark.parametrize("field, value", [
        ("repeats", 0), ("folds", 1), ("max_depth", 0), ("knn_k", 0),
        ("delta", 0.0), ("delta", 2.0), ("repeats", 1.5), ("folds", 2.5),
        ("rounds", 2.0), ("knn_k", True), ("max_depth", "8")])
    def test_field_validation(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            ExperimentConfig(dataset_paths=(), **{field: value})

    def test_numpy_settings_stored_as_python_numbers(self):
        # the report's config would not serialize them
        cfg = ExperimentConfig(dataset_paths=(), repeats=np.int64(2),
                               folds=np.int32(3), delta=np.float32(0.5))
        assert (cfg.repeats, cfg.folds, cfg.delta) == (2, 3, 0.5)
        assert [type(v) for v in (cfg.repeats, cfg.folds, cfg.delta)] \
            == [int, int, float]

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown algorithms"):
            ExperimentConfig(dataset_paths=(), algorithms=("xgboost",))
        with pytest.raises(ValueError, match="algorithms must not be empty"):
            ExperimentConfig(dataset_paths=(), algorithms=())
        # one model per algorithm and fold: never two value lists in one
        with pytest.raises(ValueError, match="repeated: \\['liuboost'\\]"):
            ExperimentConfig(dataset_paths=(),
                             algorithms=("liuboost", "liuboost", "rusboost"))
        # one stem, one report entry and one seed stream: never two files
        with pytest.raises(ValueError, match="repeated: \\['x'\\]"):
            ExperimentConfig(dataset_paths=("a/x.dat", "b/x.dat", "c/y.dat"))

    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(0, "pima", 1, 2, "liuboost")
        assert a == derive_seed(0, "pima", 1, 2, "liuboost")
        assert a != derive_seed(0, "pima", 1, 2, "rusboost")
        assert a != derive_seed(1, "pima", 1, 2, "liuboost")


class TestRunExperiment:
    def test_separable_dataset_perfect_auroc(self, tmp_path):
        path = write_dataset(tmp_path,
                             make_clusters(15, 15, sep=12.0, seed=30,
                                           noise=0.3))
        cfg = ExperimentConfig(dataset_paths=(str(path),), repeats=1,
                               folds=2, rounds=3, knn_k=3, master_seed=0)
        report = run_experiment(cfg)
        for algo in ("liuboost", "rusboost"):
            stats = report["datasets"][path.stem]["algorithms"][algo]
            assert stats["auroc_mean"] == 1.0
            assert stats["aupr_mean"] == 1.0

    def test_values_in_unit_interval_and_wins_sum(self, small_suite):
        _, paths = small_suite
        report = run_experiment(small_config(paths))
        n_datasets = len(report["datasets"])
        assert n_datasets == 2
        for entry in report["datasets"].values():
            for algo_stats in entry["algorithms"].values():
                for metric in ("auroc", "aupr"):
                    vals = algo_stats[f"{metric}_values"]
                    assert len(vals) + entry["skipped_folds"] \
                        <= 2 * 4  # repeats * folds
                    assert all(0.0 <= v <= 1.0 for v in vals)
        for wins in report["summary"]["wins"].values():
            assert sum(wins.values()) == n_datasets

    def test_deterministic_reports(self, small_suite, tmp_path):
        _, paths = small_suite
        cfg = small_config(paths)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        emit_report(run_experiment(cfg), "json", out1)
        emit_report(run_experiment(cfg), "json", out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallelism_does_not_change_report(self, small_suite, tmp_path):
        _, paths = small_suite
        cfg = small_config(paths)
        out1, out2 = tmp_path / "serial.json", tmp_path / "parallel.json"
        emit_report(run_experiment(cfg, jobs=1), "json", out1)
        emit_report(run_experiment(cfg, jobs=2), "json", out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_column_spanning_the_float_range_is_scored(self, tmp_path):
        # each training split holds both -1e308 and 1e308: its min-max
        # range, taken directly, overflows to inf and scales to NaN
        ds = make_clusters(12, 28, d=2, sep=3.0, seed=21, noise=1.2)
        X = ds.features.copy()
        X[:, 1] = np.where(np.arange(len(X)) % 2, 1e308, -1e308)
        path = write_dataset(tmp_path, dataclasses.replace(ds, features=X))
        out = tmp_path / "report.json"
        assert main(["run", "--data-dir", str(tmp_path), "--out", str(out),
                     "--repeats", "1", "--folds", "3", "--rounds", "2",
                     "--knn", "3", "--max-depth", "2", "--seed", "4"]) == 0
        entry = json.loads(out.read_text())["datasets"][path.stem]
        assert entry["skipped_folds"] == 0
        for algo in ("liuboost", "rusboost"):
            assert len(entry["algorithms"][algo]["auroc_values"]) == 3

    def test_a_test_row_past_the_float_range_is_scored(self, tmp_path):
        # column f1 is 0 or 1e-300 but for one row at 1e10: the folds that
        # train without that row fit a range of 1e-300, where it scales
        # past the float range, to inf unless it saturates, and
        # decision_score rejects an inf feature
        ds = make_clusters(12, 28, d=2, sep=3.0, seed=21, noise=1.2)
        X = ds.features.copy()
        X[:, 1] = np.where(np.arange(len(X)) % 2, 1e-300, 0.0)
        X[7, 1] = 1e10
        path = write_dataset(tmp_path, dataclasses.replace(ds, features=X))
        out = tmp_path / "report.json"
        assert main(["run", "--data-dir", str(tmp_path), "--out", str(out),
                     "--repeats", "1", "--folds", "5", "--rounds", "3",
                     "--knn", "3"]) == 0
        entry = json.loads(out.read_text())["datasets"][path.stem]
        assert entry["skipped_folds"] == 0
        for algo in ("liuboost", "rusboost"):
            assert len(entry["algorithms"][algo]["auroc_values"]) == 5

    def test_load_holds_no_text(self, tmp_path):
        # the file is parsed a piece at a time from disk: the peak is the
        # parse's (1.3 x the array with its codes, as Dataset's label
        # check copies the codes) and the reader's, with no term for the
        # text; a load that read the whole text first peaked at 4.2 x
        m, d = 200_000, 3
        rng = np.random.default_rng(0)
        path = write_dataset(tmp_path, Dataset(
            features=rng.random((m, d)),
            labels=np.where(np.arange(m) % 10 == 0, 1, -1),
            feature_names=tuple(f"x{j}" for j in range(d)), name="big"))
        cfg = ExperimentConfig(dataset_paths=(str(path),))
        tracemalloc.start()
        try:
            ds, reason = bench._load(path, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reason is None and ds.n_instances == m
        array = ds.features.nbytes + ds.labels.nbytes
        block = 16 * data._BLOCK_CHARS
        # one read's bytes and the buffered reader's own buffer
        reader = data._BLOCK_CHARS + io.DEFAULT_BUFFER_SIZE
        assert peak < 1.5 * array + block + reader, \
            f"peak {peak / array:.2f} x array"

    def test_traced_peak_holds_one_file_and_one_copy_of_the_rows(
            self, tmp_path):
        # integer values make a short text, so the copies of the rows, not
        # the read of the text, set the peak: the file's Dataset, the
        # gather of a fold's training rows and its scaled copy.  It is
        # 2 x text + 2.1 x features; a Dataset kept from the check parse
        # and a second gather with two temporaries gave 4.1
        ds = make_clusters(200, 19800, d=10, sep=1.0, seed=0)
        path = write_dataset(tmp_path, dataclasses.replace(
            ds, features=np.rint(ds.features * 10)))
        text = path.stat().st_size
        cfg = ExperimentConfig(dataset_paths=(str(path),),
                               algorithms=("rusboost",), repeats=1,
                               folds=10, rounds=2, max_depth=1)
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["datasets"][path.stem]["skipped_folds"] < cfg.folds
        rows = ds.features.nbytes
        assert peak <= 2 * text + 3 * rows, \
            f"peak 2 x text + {(peak - 2 * text) / rows:.2f} x features"

    def test_a_fold_trains_with_no_earlier_fold_model_alive(
            self, tmp_path, monkeypatch):
        # LIUBoost trains first in each fold: when it starts, every model
        # of the folds before must be gone, with their scores and test rows
        entry, = [e for e in BENCHMARK_CATALOG if e.name == "glass0"]
        path = write_dataset(tmp_path, generate_catalog_dataset(entry))
        cfg = ExperimentConfig(dataset_paths=(str(path),), repeats=1,
                               folds=5, rounds=3, max_depth=1)
        trained, alive = [], []

        def keep_a_weakref(train):
            def wrapper(*args, **kwargs):
                if train is liuboost_trainer:
                    alive.append(sum(ref() is not None for ref in trained))
                model = train(*args, **kwargs)
                trained.append(weakref.ref(model))
                return model
            return wrapper

        liuboost_trainer = bench.train_liuboost
        for name in ("train_liuboost", "train_rusboost"):
            monkeypatch.setattr(bench, name,
                                keep_a_weakref(getattr(bench, name)))
        report = run_experiment(cfg)
        assert report["datasets"][path.stem]["skipped_folds"] == 0
        assert alive == [0] * cfg.folds

    @pytest.mark.parametrize("n, folds, algorithms, reasons", [
        (2, 3, ("liuboost", "rusboost"), [None, None, "no_minority_in_test"]),
        (1, 2, ("rusboost",), ["no_minority_in_train", "no_minority_in_test"]),
    ], ids=["2+2-at-3-folds", "1+1-at-2-folds"])
    def test_empty_splits_are_skipped_by_name(self, tmp_path, n, folds,
                                              algorithms, reasons):
        # the plan deals each class round-robin, so small files leave a
        # split with no row at all: fold 2's test split at 2+2 rows, and
        # at 1+1 rows (RUSBoost only, as LIUBoost needs knn_k training
        # rows) fold 0's training split and fold 1's test split.  An empty
        # split has no minimum, so the class check must not take one
        ds = make_clusters(n, n, sep=12.0, noise=0.3, seed=31)
        path = write_dataset(tmp_path, ds)
        cfg = ExperimentConfig(dataset_paths=(str(path),),
                               algorithms=algorithms, repeats=1, folds=folds,
                               rounds=3, knn_k=1, max_depth=1)
        assert [r for r, _ in bench._folds(ds, cfg, 0)] == reasons
        entry = run_experiment(cfg)["datasets"][path.stem]
        assert entry["skipped_folds"] == sum(r is not None for r in reasons)
        assert len(entry["algorithms"]["rusboost"]["auroc_values"]) \
            == reasons.count(None)

    def test_summary_tests_the_reports_own_means(self, tmp_path):
        # six scored datasets, and one whose single +1 row leaves every
        # fold's training or test split without a class: no fold is scored
        # and both of its means are None
        paths = [write_dataset(tmp_path, make_clusters(10, 30, sep=1.5,
                                                       seed=seed, noise=1.5))
                 for seed in range(40, 46)]
        lone = write_dataset(tmp_path, make_clusters(1, 19, seed=46))
        report = run_experiment(small_config(paths + [lone], repeats=1,
                                             folds=3))
        lone_algos = report["datasets"][lone.stem]["algorithms"]
        for metric in ("auroc", "aupr"):
            assert lone_algos["liuboost"][f"{metric}_mean"] is None
            assert lone_algos["rusboost"][f"{metric}_mean"] is None
            pairs = [(entry["algorithms"]["rusboost"][f"{metric}_mean"],
                      entry["algorithms"]["liuboost"][f"{metric}_mean"])
                     for name, entry in sorted(report["datasets"].items())
                     if name != lone.stem]
            assert sum(report["summary"]["wins"][metric].values()) == 6
            r = wilcoxon_signed_rank(pairs, zeros="drop")
            assert report["summary"]["wilcoxon"][metric] == {
                "w_minus": r.w_minus, "w_plus": r.w_plus,
                "n_effective": r.n_effective, "p_two_sided": r.p_two_sided,
                "method": r.method, "zeros": "drop",
                "favors": "liuboost" if r.w_plus > r.w_minus else "rusboost"}

    @pytest.mark.parametrize("jobs", [0, True, 2.0, "2", None])
    def test_jobs_must_be_a_count(self, small_suite, monkeypatch, jobs):
        # checked like every other count, before any file is parsed
        _, paths = small_suite
        read = []
        monkeypatch.setattr(bench, "parse_keel",
                            lambda *a, **k: read.append(a))
        with pytest.raises(ValueError, match="jobs must be"):
            run_experiment(small_config(paths), jobs=jobs)
        assert read == []

    @pytest.mark.parametrize("text", ["not a keel file\n", SAMPLE_INF],
                             ids=["garbage", "inf"])
    def test_unparseable_dataset_skipped_with_entry(self, small_suite, text):
        tmp_path, paths = small_suite
        bad = tmp_path / "bad.dat"
        bad.write_text(text)
        report = run_experiment(small_config(paths + [bad], repeats=1))
        assert str(bad) in report["skipped_datasets"]
        assert len(report["datasets"]) == 2

    def test_undecodable_dataset_skipped_with_entry(self, small_suite):
        # a Latin-1 byte is no UTF-8: the file is skipped with the
        # decoder's message, like any unreadable file, and the run goes on
        tmp_path, paths = small_suite
        bad = tmp_path / "latin1.dat"
        bad.write_bytes(b"@relation caf\xe9\n" + SAMPLE_INF.encode())
        report = run_experiment(small_config(paths + [bad], repeats=1))
        assert report["skipped_datasets"][str(bad)].startswith(
            "'utf-8' codec can't decode byte 0xe9")
        assert len(report["datasets"]) == 2


class TestEmitReport:
    def test_json_round_trip(self, small_suite, tmp_path):
        _, paths = small_suite
        report = run_experiment(small_config(paths, repeats=1))
        out = tmp_path / "report.json"
        emit_report(report, "json", out)
        loaded = json.loads(out.read_text())
        expected = {k: v for k, v in report.items() if k != "timings"}
        assert loaded == json.loads(json.dumps(expected))
        assert loaded["schema_version"] == 1

    def test_timings_excluded_by_default(self, small_suite, tmp_path):
        _, paths = small_suite
        report = run_experiment(small_config(paths, repeats=1))
        out = tmp_path / "report.json"
        emit_report(report, "json", out)
        assert "timings" not in json.loads(out.read_text())
        emit_report(report, "json", out, include_timings=True)
        assert "timings" in json.loads(out.read_text())

    def test_empty_report_keeps_skip_reason(self, tmp_path):
        # every file skipped: the report is still written, with no dataset
        # and the reason
        bad = tmp_path / "bad.dat"
        bad.write_text("nope\n")
        report = run_experiment(ExperimentConfig(dataset_paths=(str(bad),)))
        out = tmp_path / "empty.json"
        emit_report(report, "json", out)
        loaded = json.loads(out.read_text())
        assert loaded["datasets"] == {}
        assert list(loaded["skipped_datasets"]) == [str(bad)]
        assert loaded["skipped_datasets"][str(bad)]

    def test_bad_format_rejected(self, tmp_path):
        for format in ("csv", "xml"):
            out = tmp_path / f"out.{format}"
            with pytest.raises(ValueError, match="format"):
                emit_report({}, format, out)
            assert not out.exists()


class TestCli:
    def test_synth_writes_suite(self, tmp_path):
        out = tmp_path / "suite"
        assert main(["synth", "--out-dir", str(out)]) == 0
        assert len(list(out.glob("*.dat"))) == 18

    def test_run_and_curves(self, small_suite, tmp_path):
        data_dir, _ = small_suite
        out = tmp_path / "report.json"
        rc = main(["run", "--data-dir", str(data_dir), "--out", str(out),
                   "--repeats", "1", "--folds", "3", "--rounds", "2",
                   "--knn", "3", "--max-depth", "2", "--seed", "4"])
        assert rc == 0 and out.exists()
        assert "datasets" in json.loads(out.read_text())

        curves = tmp_path / "curves.csv"
        dat = next(data_dir.glob("*.dat"))
        rc = main(["curves", "--dataset", str(dat), "--out", str(curves),
                   "--rounds", "2", "--folds", "3", "--knn", "3",
                   "--max-depth", "2"])
        assert rc == 0
        rows = list(csv.reader(curves.read_text().splitlines()))
        assert rows[0] == ["algorithm", "metric", "x", "y"]
        assert {r[1] for r in rows[1:]} == {"roc", "pr"}
        assert {r[0] for r in rows[1:]} == {"liuboost", "rusboost"}

    def test_error_paths_return_nonzero(self, tmp_path, capsys):
        assert main(["run", "--data-dir", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o.json")]) == 1
        assert "error" in capsys.readouterr().err
        # the signed-rank test lives in `bench run`'s summary only
        with pytest.raises(SystemExit) as exc:
            main(["wilcoxon", "--report", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    @pytest.fixture
    def glass5_and_pima(self, tmp_path):
        """A 214-row and a 768-row stand-in, alone in one directory."""
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for entry in BENCHMARK_CATALOG:
            if entry.name in ("glass5", "pima"):
                write_dataset(data_dir, generate_catalog_dataset(entry))
        return data_dir

    # glass5 has 9 minority and 205 majority rows: at 2 folds its smallest
    # training split is 214 - 5 - 103 = 106 rows
    @pytest.mark.parametrize("flags, reason", [
        (["--knn", "150", "--folds", "2"],
         "knn_k=150 must be below the smallest training split, 106 of "
         "m=214 rows at folds=2"),
        (["--folds", "300", "--algos", "rusboost"],
         "folds=300 exceeds instance count m=214"),
    ], ids=["knn", "folds"])
    def test_file_too_small_is_skipped(self, glass5_and_pima, tmp_path,
                                       capsys, flags, reason):
        out = tmp_path / "report.json"
        assert main(["run", "--data-dir", str(glass5_and_pima),
                     "--out", str(out), "--repeats", "1", "--rounds", "1",
                     "--max-depth", "1", *flags]) == 0
        report = json.loads(out.read_text())
        assert list(report["datasets"]) == ["pima"]
        glass5 = str(glass5_and_pima / "glass5.dat")
        assert report["skipped_datasets"] == {glass5: reason}
        assert capsys.readouterr().err == f"skipped {glass5}: {reason}\n"

    def test_curves_draw_the_first_scored_fold(self, glass5_and_pima,
                                               tmp_path, capsys):
        # at these flags folds of pima are skipped for zero-stage models;
        # curves draws the first fold that `bench run` scores in repeat 0
        flags = ["--folds", "10", "--max-depth", "1"]
        out = tmp_path / "report.json"
        assert main(["run", "--data-dir", str(glass5_and_pima),
                     "--out", str(out), "--repeats", "1", *flags]) == 0
        entry = json.loads(out.read_text())["datasets"]["pima"]
        curves = tmp_path / "curves.csv"
        capsys.readouterr()
        assert main(["curves", "--dataset",
                     str(glass5_and_pima / "pima.dat"), "--out", str(curves),
                     *flags]) == 0
        rows = list(csv.reader(curves.read_text().splitlines()))
        assert {r[0] for r in rows[1:]} == {"liuboost", "rusboost"}
        printed = capsys.readouterr().out.splitlines()
        for algo in ("liuboost", "rusboost"):
            s = entry["algorithms"][algo]
            assert (f"{algo}: auroc={s['auroc_values'][0]:.4f} "
                    f"aupr={s['aupr_values'][0]:.4f}") in printed

    def test_curves_without_a_scored_fold_fail(self, tmp_path, capsys):
        # identical features: no stump beats chance, so every model of
        # either fold has zero stages
        dat = tmp_path / "flat.dat"
        dat.write_text("@relation flat\n@attribute a real [0.0, 1.0]\n"
                       "@attribute Class {negative, positive}\n"
                       "@outputs Class\n@data\n"
                       + "0.5, negative\n0.5, positive\n" * 2)
        out = tmp_path / "curves.csv"
        assert main(["curves", "--dataset", str(dat), "--out", str(out),
                     "--folds", "2", "--knn", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {dat}: no fold of repeat 0 can be scored: "
            "zero_stage_model, zero_stage_model\n")
        assert not out.exists()

    def test_curves_rejects_file_too_small(self, glass5_and_pima, tmp_path,
                                          capsys):
        glass5 = glass5_and_pima / "glass5.dat"
        out = tmp_path / "curves.csv"
        assert main(["curves", "--dataset", str(glass5), "--out", str(out),
                     "--folds", "2", "--knn", "150"]) == 1
        assert capsys.readouterr().err == (
            f"error: {glass5}: knn_k=150 must be below the smallest training "
            "split, 106 of m=214 rows at folds=2\n")
        assert not out.exists()

    @pytest.mark.parametrize("content, reason", [
        (b"not a keel file\n",
         "data line before @data section: 'not a keel file'"),
        (b"@relation r\n@attribute a real [0.0, 1.0]\n@data\n",
         "empty @data section"),
        (b"\xff" + SAMPLE_INF.encode(),
         "'utf-8' codec can't decode byte 0xff in position 0: invalid "
         "start byte"),
    ], ids=["garbage", "no-data", "undecodable"])
    def test_curves_names_the_file_it_cannot_read(self, tmp_path, capsys,
                                                  content, reason):
        # every file error names the file, as `bench run`'s skip line does
        dat = tmp_path / "bad.dat"
        dat.write_bytes(content)
        out = tmp_path / "curves.csv"
        assert main(["curves", "--dataset", str(dat), "--out",
                     str(out)]) == 1
        assert capsys.readouterr().err == f"error: {dat}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "curves"])
    def test_prints_nothing_to_stderr_under_w_error(self, glass5_and_pima,
                                                    tmp_path, command):
        # glass5 has 9 minority rows for 12 folds, so some folds lack the
        # minority class, which neither subcommand warns about.  A fresh
        # interpreter under -W error, since pytest itself captures warnings.
        out = tmp_path / "out"
        source = (["--data-dir", str(glass5_and_pima), "--repeats", "1"]
                  if command == "run" else
                  ["--dataset", str(glass5_and_pima / "glass5.dat")])
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "liuboost.bench", command,
             *source, "--out", str(out), "--folds", "12", "--rounds", "2",
             "--max-depth", "1"],
            env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert out.exists()

    def test_curves_rejects_repeats(self, small_suite, tmp_path, capsys):
        # curves scores fold 0 of one plan, so a repeat count would be
        # ignored: the flag is refused instead
        _, paths = small_suite
        out = tmp_path / "curves.csv"
        with pytest.raises(SystemExit) as exc:
            main(["curves", "--dataset", str(paths[0]), "--out", str(out),
                  "--repeats", "5"])
        assert exc.value.code != 0
        assert "--repeats" in capsys.readouterr().err
        assert not out.exists()

    def test_run_rejects_format(self, small_suite, tmp_path, capsys):
        # reports are JSON only: the CSV writer and its flag are gone
        data_dir, _ = small_suite
        out = tmp_path / "report.csv"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--data-dir", str(data_dir), "--out", str(out),
                  "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--max-depth", "0"], ["--knn", "0"],
                                       ["--delta", "2"], ["--jobs", "0"]],
                             ids=["max-depth", "knn", "delta", "jobs"])
    def test_out_of_range_rejected_before_reading(self, small_suite, tmp_path,
                                                  monkeypatch, capsys, flags):
        data_dir, _ = small_suite
        read = []
        monkeypatch.setattr(bench, "parse_keel",
                            lambda *a, **k: read.append(a))
        out = tmp_path / "report.json"
        assert main(["run", "--data-dir", str(data_dir), "--out", str(out),
                     "--algos", "rusboost", *flags]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert read == [] and not out.exists()

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Stop `main` at `_config_from_args`; record each parsed
        namespace and the config built from it."""
        seen = []
        real = bench._config_from_args

        def capture(args, paths):
            seen.append((set(vars(args)), real(args, paths)))
            raise ValueError("config captured")

        monkeypatch.setattr(bench, "_config_from_args", capture)
        return seen

    def test_flags_reach_config_fields(self, small_suite, parsed):
        data_dir, paths = small_suite
        for command in (["run", "--data-dir", str(data_dir), "--out", "o"],
                        ["curves", "--dataset", str(paths[0]), "--out", "o"]):
            parsed.clear()
            assert main(command) == 1
            assert main(command + ["--knn", "3", "--delta", "0.5",
                                   "--seed", "9"]) == 1
            (_, defaults), (_, tuned) = parsed
            assert defaults == ExperimentConfig(
                dataset_paths=defaults.dataset_paths)
            assert (tuned.knn_k, tuned.delta,
                    tuned.master_seed) == (3, 0.5, 9)

    def test_flags_match_config_fields(self, small_suite, parsed):
        # one flag per ExperimentConfig field (curves has no --repeats),
        # and no other flag but each subcommand's own
        data_dir, paths = small_suite
        assert main(["run", "--data-dir", str(data_dir), "--out", "o"]) == 1
        assert main(["curves", "--dataset", str(paths[0]), "--out", "o"]) == 1
        (run_keys, _), (curves_keys, _) = parsed
        config = {f.name for f in fields(ExperimentConfig)} - {"dataset_paths"}
        assert run_keys == config | {"data_dir", "out", "jobs", "timings",
                                     "command", "func"}
        assert curves_keys == (config - {"repeats"}) | {"dataset", "out",
                                                         "command", "func"}
