"""The benchmark in perfbench/ reaches the program through fixed names and
call counts; these tests fail when a change to src/ breaks that contract,
before a benchmark run would."""
import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from conftest import make_clusters

from liuboost import bench
from liuboost.bench import ExperimentConfig, emit_report, run_experiment
from liuboost.data import serialize_keel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402
import spans  # noqa: E402


def test_entry_points_resolve():
    for owner, attr, _ in spans.ENTRY_POINTS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


# five files: the fewest on which run_experiment reaches the signed-rank
# test.  At depth 8 a split settles children at every level, not only at
# the one above the leaves; at depth 1 (the protocol's stumps) the root
# settles both children and prediction labels every row by one np.where
@pytest.mark.parametrize("algorithms, max_depth", [
    (("liuboost", "rusboost"), 1),
    (("liuboost", "rusboost"), 2), (("liuboost",), 2),
    (("liuboost", "rusboost"), 8), (("liuboost",), 8),
], ids=["both-depth1", "both", "liu", "both-depth8", "liu-depth8"])
def test_traced_run_matches_report(tmp_path, algorithms, max_depth):
    paths = []
    for i in range(5):
        ds = make_clusters(8, 16 + 2 * i, d=2, sep=2.5, seed=40 + i)
        paths.append(tmp_path / f"{ds.name}.dat")
        paths[-1].write_text(serialize_keel(ds))
    cfg = ExperimentConfig(dataset_paths=tuple(map(str, paths)),
                           algorithms=algorithms, repeats=1, folds=3,
                           rounds=3, knn_k=3, max_depth=max_depth,
                           master_seed=5)
    started = time.perf_counter()
    with spans.LayerTrace() as trace:
        report = run_experiment(cfg)
    wall = time.perf_counter() - started
    assert trace.unrestored() == []
    assert trace.problems(cfg, report, trace.layer_metrics(wall)) == []
    # the check that sets `failed` on every untraced benchmark run
    assert run.output_problems(cfg, report, len(trace.models)) == []


def test_fold_reasons_match_the_trace(tmp_path, monkeypatch):
    # a lone +1 row is in fold 0's test split and leaves its training split
    # without the minority, and every other test split without it; on
    # identical features no stump beats chance, so every model is empty
    flat = tmp_path / "flat.dat"
    flat.write_text("@relation flat\n@attribute a real [0.0, 1.0]\n"
                    "@attribute Class {negative, positive}\n"
                    "@outputs Class\n@data\n"
                    + "0.5, negative\n0.5, positive\n" * 3)
    datasets = [make_clusters(1, 19, seed=46),
                make_clusters(8, 16, d=2, sep=2.5, seed=40)]
    paths = [flat]
    for ds in datasets:
        paths.append(tmp_path / f"{ds.name}.dat")
        paths[-1].write_text(serialize_keel(ds))
    cfg = ExperimentConfig(dataset_paths=tuple(map(str, paths)), repeats=2,
                           folds=3, rounds=3, knn_k=1, max_depth=1,
                           master_seed=5)
    reasons = Counter()
    runner = bench._folds

    def counted(*args):
        for reason, scored in runner(*args):
            reasons[reason] += 1
            yield reason, scored

    monkeypatch.setattr(bench, "_folds", counted)
    with spans.LayerTrace() as trace:
        report = run_experiment(cfg)
    assert all(reasons[r] for r in ("no_minority_in_test",
                                    "no_minority_in_train",
                                    "zero_stage_model"))
    assert reasons["no_minority_in_test"] + reasons["no_minority_in_train"] \
        == trace.folds_no_class
    assert reasons["zero_stage_model"] == trace.zero_stage_folds()
    assert sum(reasons.values()) - reasons[None] == sum(
        e["skipped_folds"] for e in report["datasets"].values())


def test_report_digest_hashes_the_emitted_json(tmp_path):
    # perfbench compares reports by this digest, made through emit_report
    report = {"schema_version": 1, "datasets": {}, "summary": {},
              "config": {"dataset_paths": ["/in/a.dat"], "repeats": 1},
              "skipped_datasets": {"/in/b.dat": "unreadable"},
              "timings": {"total": 1.5}}
    digest = run.report_digest(report, tmp_path / "digest.json")
    expected = tmp_path / "expected.json"
    emit_report(dict(report, config={"dataset_paths": ["a.dat"],
                                     "repeats": 1},
                     skipped_datasets={"b.dat": "unreadable"}),
                "json", expected)
    assert digest == hashlib.sha256(expected.read_bytes()).hexdigest()
    assert "timings" not in expected.read_text()
