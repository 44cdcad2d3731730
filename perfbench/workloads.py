"""Workloads of the benchmark: their experiment configs and their inputs.

Run as a script, ``python3 perfbench/workloads.py <workload> <out_dir>``
imports liuboost from this checkout's ``src/`` and writes the input files
of one workload. That is the set-up step ``run.py`` times as ``setup_s``.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Shared by every workload: the acceptance protocol's boosting settings.
ROUNDS = 10
KNN_K = 5
DELTA = 1.0

# knn_scale's single synthetic file; fixed so that --seed moves only the
# folds and the boosting draws, never the data size or its clusters.
KNN_M, KNN_D, KNN_MINORITY, KNN_DATA_SEED = 8000, 10, 80, 0

# The run length, in seconds, that Workload.repeats_per_run is sized for.
RUN_SECONDS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    algorithms: tuple[str, ...]
    folds: int
    max_depth: int
    # Repeats in a run of RUN_SECONDS; --seconds scales it to a whole
    # number, so the work of a run depends on the arguments only, never on
    # how fast the machine happens to be.
    repeats_per_run: int
    # The reference kernel its timings are paired with (reference.py).
    reference: str

    def repeats(self, seconds: float) -> int:
        return max(1, round(self.repeats_per_run * seconds / RUN_SECONDS))


WORKLOADS = {w.name: w for w in (
    # The acceptance protocol: 18 stand-ins, both algorithms, stumps.
    # One repeat (344 models) takes 10-20 s on a 2-core Xeon at jobs=1.
    Workload("protocol", ("liuboost", "rusboost"), folds=10, max_depth=1,
             repeats_per_run=1, reference="small"),
    # What `bench run` does without --max-depth: depth-8 trees. One repeat
    # (176 models) takes 17-33 s. A second would steady train_p90_ms only
    # a little (IQR 13 % -> 10 %) and would not fit the time limit for all
    # runs on a slow day.
    Workload("deep_trees", ("liuboost", "rusboost"), folds=5, max_depth=8,
             repeats_per_run=1, reference="small"),
    # One large file, LIUBoost only: the dense k-NN dominates. One repeat
    # (10 models) takes 9-14 s; two give train_p90_ms 20 samples.
    Workload("knn_scale", ("liuboost",), folds=10, max_depth=1,
             repeats_per_run=2, reference="large"),
)}


def import_liuboost():
    """Import liuboost from this checkout's src/, never from elsewhere."""
    if not (SRC / "liuboost" / "__init__.py").is_file():
        raise SystemExit(f"error: no liuboost sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import liuboost
    if SRC not in Path(liuboost.__file__).resolve().parents:
        raise SystemExit(f"error: liuboost imported from {liuboost.__file__}")


def write_inputs(workload: Workload, out_dir: Path) -> list[Path]:
    """Generate and write the workload's KEEL files; returns their paths."""
    from liuboost import synth
    from liuboost.data import serialize_keel

    if workload.name != "knn_scale":
        return synth.write_benchmark_suite(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ds = synth.generate_dataset(f"knn_m{KNN_M}", KNN_M, KNN_D, KNN_MINORITY,
                                seed=KNN_DATA_SEED)
    path = out_dir / f"{ds.name}.dat"
    path.write_text(serialize_keel(ds))
    return [path]


def experiment_config(workload: Workload, paths, seed: int, seconds: float):
    from liuboost.bench import ExperimentConfig

    return ExperimentConfig(
        dataset_paths=tuple(str(p) for p in paths),
        algorithms=workload.algorithms,
        repeats=workload.repeats(seconds),
        folds=workload.folds,
        rounds=ROUNDS,
        knn_k=KNN_K,
        delta=DELTA,
        max_depth=workload.max_depth,
        master_seed=seed,
    )


if __name__ == "__main__":
    name, out_dir = sys.argv[1], Path(sys.argv[2])
    import_liuboost()
    write_inputs(WORKLOADS[name], out_dir)
