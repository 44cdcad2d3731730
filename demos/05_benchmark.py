"""Small end-to-end benchmark: cross-validated comparison plus the
signed-rank test.

Runs the same protocol as the `bench run` CLI at a desk-friendly scale
(6 datasets, 2 repeats of 5-fold cross-validation, 10 rounds) and then
reads the Wilcoxon signed-rank test of the per-dataset mean pairs from
the report's summary, which drops zero differences. The same pairs are
then tested under Pratt's convention, which ranks the zeros before
discarding them, by calling the library directly.
The full 18-dataset protocol is one command away:

    bench synth --out-dir data/
    bench run --data-dir data/ --max-depth 1 --out report.json --jobs 4
"""
import tempfile
from pathlib import Path

from liuboost.bench import ExperimentConfig, emit_report, run_experiment
from liuboost.stats import wilcoxon_signed_rank
from liuboost.synth import BENCHMARK_CATALOG, generate_catalog_dataset
from liuboost.data import serialize_keel

NAMES = ("glass0", "glass2", "glass6", "ecoli-0-3-4_vs_5",
         "glass-0-1-5_vs_2", "glass-0-1-4-6_vs_2")

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    for entry in BENCHMARK_CATALOG:
        if entry.name in NAMES:
            ds = generate_catalog_dataset(entry)
            (tmp / f"{entry.name}.dat").write_text(serialize_keel(ds))

    cfg = ExperimentConfig(
        dataset_paths=tuple(str(p) for p in sorted(tmp.glob("*.dat"))),
        repeats=2, folds=5, rounds=10, knn_k=5, delta=1.0,
        max_depth=1, master_seed=0)
    report = run_experiment(cfg, jobs=2)

    def cell(value):
        # a mean is absent when every fold was skipped (e.g. the retry
        # budget ran out on a hard dataset); show that honestly
        return f"{value:11.3f}" if value is not None else f"{'-':>11s}"

    print(f"{'dataset':25s} {'base AUROC':>11s} {'cost AUROC':>11s} "
          f"{'base AUPR':>11s} {'cost AUPR':>11s}")
    for name in sorted(report["datasets"]):
        a = report["datasets"][name]["algorithms"]
        print(f"{name:25s} {cell(a['rusboost']['auroc_mean'])} "
              f"{cell(a['liuboost']['auroc_mean'])} "
              f"{cell(a['rusboost']['aupr_mean'])} "
              f"{cell(a['liuboost']['aupr_mean'])}")

    print()
    for metric in ("auroc", "aupr"):
        wins = report["summary"]["wins"][metric]
        w = report["summary"]["wilcoxon"][metric]
        # the pairs the summary tested: (baseline, cost-sensitive) means in
        # dataset-name order, where both are present
        means = ((e["algorithms"]["rusboost"][f"{metric}_mean"],
                  e["algorithms"]["liuboost"][f"{metric}_mean"])
                 for _, e in sorted(report["datasets"].items()))
        pratt = wilcoxon_signed_rank([p for p in means if None not in p],
                                     zeros="pratt")
        print(f"{metric}: cost-sensitive wins {wins['liuboost']}, "
              f"baseline wins {wins['rusboost']}, ties {wins['tie']}; "
              f"signed-rank p={w['p_two_sided']:.4f} ({w['method']}, "
              f"favors {w['favors']}; pratt p={pratt.p_two_sided:.4f})")

    out = tmp / "report.json"
    emit_report(report, "json", out)
    print(f"\nreport written ({out.stat().st_size} bytes); "
          "identical config + seed reproduces it byte for byte")
