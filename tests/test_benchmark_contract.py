"""The benchmark in perfbench/ reaches the program through fixed names and
call counts; these tests fail when a change to src/ breaks that contract,
before a benchmark run would."""
import hashlib
import sys
import time
from pathlib import Path

import pytest
from conftest import make_clusters

from liuboost.bench import ExperimentConfig, emit_report, run_experiment
from liuboost.data import serialize_keel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402
import spans  # noqa: E402


def test_entry_points_resolve():
    for owner, attr, _ in spans.ENTRY_POINTS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


# five files: the fewest on which run_experiment reaches the signed-rank test
@pytest.mark.parametrize("algorithms", [("liuboost", "rusboost"),
                                        ("liuboost",)], ids=["both", "liu"])
def test_traced_run_matches_report(tmp_path, algorithms):
    paths = []
    for i in range(5):
        ds = make_clusters(8, 16 + 2 * i, d=2, sep=2.5, seed=40 + i)
        paths.append(tmp_path / f"{ds.name}.dat")
        paths[-1].write_text(serialize_keel(ds))
    cfg = ExperimentConfig(dataset_paths=tuple(map(str, paths)),
                           algorithms=algorithms, repeats=1, folds=3,
                           rounds=3, knn_k=3, max_depth=2, master_seed=5)
    started = time.perf_counter()
    with spans.LayerTrace() as trace:
        report = run_experiment(cfg)
    wall = time.perf_counter() - started
    assert trace.unrestored() == []
    assert trace.problems(cfg, report, trace.layer_metrics(wall)) == []
    # the check that sets `failed` on every untraced benchmark run
    assert run.output_problems(cfg, report, len(trace.models)) == []


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
