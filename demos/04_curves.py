"""ROC and precision-recall curves from ensemble decision scores.

Trains the booster on a train split, computes curve points on the
held-out split, then writes the curve points of both boosters as one CSV
file any plotting tool can read, through the `bench curves` command.
"""
import tempfile
from pathlib import Path

from liuboost import bench, stratified_folds, train_liuboost
from liuboost.data import Dataset, apply_min_max, fit_min_max, serialize_keel
from liuboost.ensemble import decision_score
from liuboost.metrics import pr_curve, roc_curve
from liuboost.synth import BENCHMARK_CATALOG, generate_catalog_dataset

entry = next(e for e in BENCHMARK_CATALOG if e.name == "glass0")
ds = generate_catalog_dataset(entry)
train_idx, test_idx = stratified_folds(ds, k=3, seed=1).split(0)
# scale both splits with the training rows' min-max statistics
mins, ranges = fit_min_max(ds.features[train_idx])
train_ds = Dataset(
    features=apply_min_max(ds.features[train_idx], mins, ranges),
    labels=ds.labels[train_idx], feature_names=ds.feature_names, name=ds.name)
X_test = apply_min_max(ds.features[test_idx], mins, ranges)
y_test = ds.labels[test_idx]

model = train_liuboost(train_ds, T=10, rng=0, max_depth=2)
scores = decision_score(model, X_test)

roc = roc_curve(scores, y_test)
pr = pr_curve(scores, y_test)
print(f"dataset {ds.name}: AUROC={roc.area:.4f}  AUPR={pr.area:.4f}")
print(f"(hard sign votes give coarse curves: {len(roc.points)} ROC points "
      f"from {model.trained_iterations} stages)\n")

print("ROC points (fpr, tpr):")
for x, y in roc.points:
    print(f"  ({x:.3f}, {y:.3f})")

with tempfile.TemporaryDirectory() as tmp:
    dat_path = Path(tmp) / f"{ds.name}.dat"
    csv_path = Path(tmp) / "curves.csv"
    dat_path.write_text(serialize_keel(ds))
    print(f"\nbench curves --dataset {dat_path.name} --folds 3 "
          f"--max-depth 2 --out {csv_path.name}")
    rc = bench.main(["curves", "--dataset", str(dat_path), "--folds", "3",
                     "--max-depth", "2", "--out", str(csv_path)])
    if rc != 0:
        raise SystemExit(rc)
    print(f"first lines of {csv_path.name}:")
    print("\n".join(csv_path.read_text().splitlines()[:4]))
