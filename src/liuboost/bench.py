"""Benchmark harness: repeated stratified cross-validation of the two
boosters over a directory of KEEL datasets, with AUROC/AUPR aggregation,
signed-rank comparison and machine-readable reports.

Every (dataset, repeat, fold, algorithm) cell derives its own seed from
the master seed, so results are independent of scheduling order and the
degree of parallelism.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import metrics
from .data import (Dataset, KeelFormatError, apply_min_max, fit_min_max,
                   imbalance_ratio, is_count, parse_keel, stratified_folds)
from .ensemble import decision_score, train_liuboost, train_rusboost
from .stats import wilcoxon_signed_rank
from .synth import write_benchmark_suite

SCHEMA_VERSION = 1
ALGORITHMS = ("liuboost", "rusboost")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_paths: tuple[str, ...]
    algorithms: tuple[str, ...] = ALGORITHMS
    repeats: int = 5
    folds: int = 10
    rounds: int = 10
    knn_k: int = 5
    delta: float = 1.0
    max_depth: int = 8
    master_seed: int = 0

    def __post_init__(self):
        for name, least in (("repeats", 1), ("folds", 2), ("rounds", 1),
                            ("knn_k", 1), ("max_depth", 1)):
            value = getattr(self, name)
            if not is_count(value) or value < least:
                raise ValueError(f"{name} must be >= {least}")
            # int(): the report would not serialize a NumPy integer
            object.__setattr__(self, name, int(value))
        if not 0 < self.delta <= 1:
            raise ValueError("delta must be in (0, 1]")
        object.__setattr__(self, "delta", float(self.delta))
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if not self.algorithms:
            raise ValueError("algorithms must not be empty")
        # an algorithm is trained once per fold, and a file's stem names
        # its report entry and enters its seeds: neither may repeat
        stems = tuple(Path(p).stem for p in self.dataset_paths)
        for what, items in (("algorithms", self.algorithms),
                            ("dataset file stems", stems)):
            repeated = sorted({s for s in items if items.count(s) > 1})
            if repeated:
                raise ValueError(
                    f"{what} must be unique; repeated: {repeated}")


def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-cell seed from the master seed and cell coordinates."""
    key = "|".join([str(master_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _too_small(ds: Dataset, cfg: ExperimentConfig) -> str | None:
    """Why a parsed file is too small for the config, or None: it needs a
    row per fold and, for LIUBoost, more than knn_k rows in every training
    split; the smallest is beside fold 0, with ceil(n/folds) of each class."""
    m = ds.n_instances
    if cfg.folds > m:
        return f"folds={cfg.folds} exceeds instance count m={m}"
    if "liuboost" in cfg.algorithms:
        smallest = (m - math.ceil(ds.minority_count / cfg.folds)
                    - math.ceil(ds.majority_count / cfg.folds))
        if cfg.knn_k >= smallest:
            return (f"knn_k={cfg.knn_k} must be below the smallest training "
                    f"split, {smallest} of m={m} rows at folds={cfg.folds}")
    return None


def _fold_plan(ds: Dataset, cfg: ExperimentConfig, repeat: int):
    """The stratified fold plan of one repeat on one dataset."""
    return stratified_folds(ds, cfg.folds, derive_seed(
        cfg.master_seed, ds.name, "folds", repeat))


def _fold_models(ds: Dataset, plan, cfg: ExperimentConfig, repeat: int,
                 fold: int):
    """(models by algorithm, test features, test labels) of one fold, both
    splits min-max scaled by the training rows, or None when a split lacks
    a class or a model has no stage (cells stay paired across algorithms)."""
    train_idx, test_idx = plan.split(fold)
    y_train, y_test = ds.labels[train_idx], ds.labels[test_idx]
    if len(set(y_test.tolist())) < 2 or len(set(y_train.tolist())) < 2:
        return None
    mins, ranges = fit_min_max(ds.features[train_idx])
    train_ds = Dataset(
        features=apply_min_max(ds.features[train_idx], mins, ranges),
        labels=y_train, feature_names=ds.feature_names, name=ds.name)
    X_test = apply_min_max(ds.features[test_idx], mins, ranges)
    models = {}
    for algo in cfg.algorithms:
        seed = derive_seed(cfg.master_seed, ds.name, repeat, fold, algo)
        if algo == "liuboost":
            models[algo] = train_liuboost(
                train_ds, T=cfg.rounds, k=cfg.knn_k, delta=cfg.delta,
                rng=seed, max_depth=cfg.max_depth)
        else:
            models[algo] = train_rusboost(train_ds, T=cfg.rounds, rng=seed,
                                          max_depth=cfg.max_depth)
    if any(m.trained_iterations == 0 for m in models.values()):
        return None
    return models, X_test, y_test


def _run_repeat(path: str, repeat: int, cfg: ExperimentConfig):
    """All folds of one repeat on one dataset: (name, entry, seconds), where
    entry has the report's per-dataset shape and this repeat's results."""
    started = time.perf_counter()
    name = Path(path).stem
    ds = parse_keel(Path(path).read_text(), name=name)
    entry = {"algorithms": {a: {"auroc_values": [], "aupr_values": []}
                            for a in cfg.algorithms},
             "skipped_folds": 0, "n_instances": ds.n_instances,
             "n_features": ds.n_features, "imbalance_ratio": imbalance_ratio(ds)}
    plan = _fold_plan(ds, cfg, repeat)
    for fold in range(cfg.folds):
        scored = _fold_models(ds, plan, cfg, repeat, fold)
        if scored is None:
            entry["skipped_folds"] += 1
            continue
        models, X_test, y_test = scored
        for algo, model in models.items():
            scores = decision_score(model, X_test)
            values = entry["algorithms"][algo]
            values["auroc_values"].append(metrics.auroc(scores, y_test))
            values["aupr_values"].append(metrics.aupr(scores, y_test))
    return name, entry, time.perf_counter() - started


def _mean_pairs(datasets: dict, metric: str) -> list[tuple[float, float]]:
    """(rusboost, liuboost) means of one metric per dataset, in name order;
    datasets where either mean is missing are left out.  A mean that is
    neither a number nor None raises TypeError."""
    pairs = []
    for name in sorted(datasets):
        algos = datasets[name]["algorithms"]
        for algo in ALGORITHMS:
            if algo not in algos:
                raise ValueError(f"dataset {name!r} has no {algo} results")
        rus = algos["rusboost"][f"{metric}_mean"]
        liu = algos["liuboost"][f"{metric}_mean"]
        for mean in (rus, liu):
            if isinstance(mean, bool) or not isinstance(
                    mean, (int, float, type(None))):
                raise TypeError(f"dataset {name!r}: {metric} mean "
                                f"{mean!r} is not a number")
        if rus is not None and liu is not None:
            pairs.append((rus, liu))
    return pairs


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> dict:
    """Full protocol: repeats x stratified folds per dataset, both
    algorithms, aggregated metrics, win counts and signed-rank tests."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    started = time.perf_counter()
    skipped_datasets = {}
    paths = []
    for p in cfg.dataset_paths:
        try:
            ds = parse_keel(Path(p).read_text(), name=Path(p).stem)
        except (OSError, KeelFormatError) as exc:
            skipped_datasets[str(p)] = str(exc)
            continue
        if reason := _too_small(ds, cfg):
            skipped_datasets[str(p)] = reason
        else:
            paths.append(p)

    cells = [(p, r, cfg) for p in sorted(paths) for r in range(cfg.repeats)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            values = list(pool.map(_run_repeat, *zip(*cells)))
    else:
        values = [_run_repeat(*args) for args in cells]

    datasets: dict[str, dict] = {}
    timings: dict[str, float] = {}
    for name, entry, seconds in values:  # in (path, repeat) order
        timings[name] = timings.get(name, 0.0) + seconds
        first = datasets.setdefault(name, entry)  # repeat 0's entry
        if first is not entry:
            first["skipped_folds"] += entry["skipped_folds"]
            for algo, stats in entry["algorithms"].items():
                for key, vals in stats.items():
                    first["algorithms"][algo][key].extend(vals)

    for entry in datasets.values():
        for algo_stats in entry["algorithms"].values():
            for metric in ("auroc", "aupr"):
                vals = np.asarray(algo_stats[f"{metric}_values"])
                algo_stats[f"{metric}_mean"] = float(vals.mean()) if vals.size else None
                algo_stats[f"{metric}_std"] = float(vals.std()) if vals.size else None

    summary = {"wins": {}, "wilcoxon": {}}
    if set(cfg.algorithms) == set(ALGORITHMS):
        for metric in ("auroc", "aupr"):
            pairs = _mean_pairs(datasets, metric)
            summary["wins"][metric] = {
                "liuboost": sum(liu > rus for rus, liu in pairs),
                "rusboost": sum(rus > liu for rus, liu in pairs),
                "tie": sum(rus == liu for rus, liu in pairs),
            }
            if len(pairs) >= 5:
                try:
                    r = wilcoxon_signed_rank(pairs, zeros="drop")
                    summary["wilcoxon"][metric] = {
                        "w_minus": r.w_minus, "w_plus": r.w_plus,
                        "n_effective": r.n_effective,
                        "p_two_sided": r.p_two_sided, "method": r.method,
                        "zeros": r.zeros,
                        "favors": ("liuboost" if r.w_plus > r.w_minus
                                   else "rusboost"),
                    }
                except ValueError as exc:
                    summary["wilcoxon"][metric] = {"error": str(exc)}

    timings["total"] = time.perf_counter() - started
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg) | {"dataset_paths": sorted(map(str, cfg.dataset_paths))},
        "datasets": datasets,
        "skipped_datasets": skipped_datasets,
        "summary": summary,
        "timings": timings,
    }


def emit_report(report: dict, format: str, path,
                include_timings: bool = False) -> None:
    """Write a report as JSON, the one report format.

    ``format`` must be "json".  It remains a parameter because callers
    written for the removed CSV writer, such as perfbench's report digest,
    pass it positionally.  Timings are excluded by default so that emitted
    files are byte-reproducible for identical configs and seeds.
    """
    if format != "json":
        raise ValueError("format must be 'json'")
    body = dict(report)
    if not include_timings:
        body.pop("timings", None)
    Path(path).write_text(json.dumps(body, sort_keys=True, indent=2) + "\n")


def _config_from_args(args, paths) -> ExperimentConfig:
    """Fields without a flag on the subcommand keep their defaults."""
    given = vars(args)
    return ExperimentConfig(
        dataset_paths=tuple(str(p) for p in paths),
        **{f.name: given[f.name] for f in fields(ExperimentConfig)
           if f.name in given})


def _add_shared_options(p, repeats=True):
    """One flag per ExperimentConfig field except dataset_paths (and
    repeats, for a subcommand that scores a single fold); each flag's
    dest is its field name and its default the field's default."""
    c = ExperimentConfig
    p.add_argument("--algos", dest="algorithms", metavar="ALGOS",
                   default=c.algorithms, type=lambda s: tuple(s.split(",")))
    if repeats:
        p.add_argument("--repeats", type=int, default=c.repeats)
    p.add_argument("--folds", type=int, default=c.folds)
    p.add_argument("--rounds", type=int, default=c.rounds,
                   help="boosting rounds T")
    p.add_argument("--knn", dest="knn_k", metavar="KNN", type=int,
                   default=c.knn_k, help="neighborhood size k")
    p.add_argument("--delta", type=float, default=c.delta,
                   help="fallback cost for one-sided neighborhoods")
    p.add_argument("--max-depth", type=int, default=c.max_depth)
    p.add_argument("--seed", dest="master_seed", metavar="SEED", type=int,
                   default=c.master_seed, help="master seed")


def _cmd_run(args) -> int:
    data_dir = Path(args.data_dir)
    paths = sorted(data_dir.glob("*.dat"))
    if not paths:
        print(f"error: no .dat files in {data_dir}", file=sys.stderr)
        return 1
    cfg = _config_from_args(args, paths)
    report = run_experiment(cfg, jobs=args.jobs)
    for path, reason in report["skipped_datasets"].items():
        print(f"skipped {path}: {reason}", file=sys.stderr)
    emit_report(report, "json", args.out, include_timings=args.timings)
    for metric, w in report["summary"]["wilcoxon"].items():
        if "error" not in w:
            print(f"{metric}: w-={w['w_minus']} w+={w['w_plus']} "
                  f"p={w['p_two_sided']:.5g} favors {w['favors']}")
    print(f"report written to {args.out}")
    return 0


def _cmd_wilcoxon(args) -> int:
    # every error that comes from the file's content names the file
    try:
        report = json.loads(Path(args.report).read_text())
        pairs = _mean_pairs(report["datasets"], args.metric)
        r = wilcoxon_signed_rank(pairs, zeros=args.zeros)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{args.report}: not a bench run report ({exc!r})")
    except ValueError as exc:
        raise ValueError(f"{args.report}: {exc}") from exc
    print(f"n_pairs={len(pairs)} n_effective={r.n_effective} "
          f"w-={r.w_minus} w+={r.w_plus} p={r.p_two_sided:.6g} "
          f"method={r.method} zeros={r.zeros}")
    return 0


def _cmd_curves(args) -> int:
    path = Path(args.dataset)
    cfg = _config_from_args(args, [path])
    ds = parse_keel(path.read_text(), name=path.stem)
    if reason := _too_small(ds, cfg):
        raise ValueError(f"{path}: {reason}")
    # the first fold that `bench run` scores in repeat 0, with its models
    plan = _fold_plan(ds, cfg, 0)
    for fold in range(cfg.folds):
        if scored := _fold_models(ds, plan, cfg, 0, fold):
            break
    else:
        raise ValueError(f"{path}: no fold of repeat 0 can be scored")
    models, X_test, y_test = scored
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "metric", "x", "y"])
        for algo, model in models.items():
            scores = decision_score(model, X_test)
            roc = metrics.roc_curve(scores, y_test)
            pr = metrics.pr_curve(scores, y_test)
            for x, y in roc.points:
                writer.writerow([algo, "roc", repr(x), repr(y)])
            for x, y in pr.points:
                writer.writerow([algo, "pr", repr(x), repr(y)])
            print(f"{algo}: auroc={roc.area:.4f} aupr={pr.area:.4f}")
    print(f"curve points written to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    paths = write_benchmark_suite(args.out_dir)
    print(f"wrote {len(paths)} datasets to {args.out_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark locality-informed undersampled boosting "
                    "against the RUSBoost baseline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the cross-validated comparison")
    p_run.add_argument("--data-dir", required=True)
    _add_shared_options(p_run)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report")
    p_run.set_defaults(func=_cmd_run)

    p_w = sub.add_parser("wilcoxon", help="signed-rank test on a report")
    p_w.add_argument("--report", required=True)
    p_w.add_argument("--metric", choices=("auroc", "aupr"), default="auroc")
    p_w.add_argument("--zeros", choices=("drop", "pratt"), default="drop")
    p_w.set_defaults(func=_cmd_wilcoxon)

    p_c = sub.add_parser("curves", help="emit ROC/PR points for one dataset")
    p_c.add_argument("--dataset", required=True)
    _add_shared_options(p_c, repeats=False)  # draws one fold of repeat 0
    p_c.add_argument("--out", required=True)
    p_c.set_defaults(func=_cmd_curves)

    p_s = sub.add_parser("synth", help="write the stand-in benchmark suite")
    p_s.add_argument("--out-dir", required=True)
    p_s.set_defaults(func=_cmd_synth)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
