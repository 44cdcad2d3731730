"""Train the cost-sensitive booster and the baseline on one dataset.

Shows the per-round training trace (cost-weighted correct/incorrect
mass, stage coefficient alpha) and compares held-out AUROC/AUPR between
the cost-sensitive ensemble and plain undersampled boosting.
"""
import numpy as np

from liuboost import (aupr, auroc, classify, decision_score,
                      stratified_folds, train_liuboost, train_rusboost)
from liuboost.data import Dataset, apply_min_max, fit_min_max
from liuboost.synth import BENCHMARK_CATALOG, generate_catalog_dataset

entry = next(e for e in BENCHMARK_CATALOG if e.name == "glass2")
ds = generate_catalog_dataset(entry)
plan = stratified_folds(ds, k=5, seed=0)
train_idx, test_idx = plan.split(0)

# min-max statistics come from the training rows only and are applied to
# both splits, as the benchmark harness does per fold
mins, ranges = fit_min_max(ds.features[train_idx])
train_ds = Dataset(
    features=apply_min_max(ds.features[train_idx], mins, ranges),
    labels=ds.labels[train_idx], feature_names=ds.feature_names, name=ds.name)
X_test = apply_min_max(ds.features[test_idx], mins, ranges)
y_test = ds.labels[test_idx]

model = train_liuboost(train_ds, T=10, k=5, delta=1.0, rng=0, max_depth=1)
baseline = train_rusboost(train_ds, T=10, rng=0, max_depth=1)

print(f"dataset {ds.name}: train={train_ds.n_instances}, "
      f"test={len(y_test)}, IR="
      f"{ds.majority_count / ds.minority_count:.1f}\n")

print("cost-sensitive training trace (depth-1 weak learners):")
print("round  mis_sum  cor_sum   alpha  weighted_err")
for t, rec in enumerate(model.history, start=1):
    print(f"{t:5d}  {rec.mis_sum:.4f}   {rec.cor_sum:.4f}  "
          f"{model.alphas[t - 1]:.4f}  {rec.epsilon:.4f}")

print("\nheld-out fold 0:")
for name, m in (("cost-sensitive", model), ("baseline", baseline)):
    scores = decision_score(m, X_test)
    pred = classify(m, X_test)
    recall = float((pred[y_test == 1] == 1).mean())
    print(f"  {name:15s} AUROC={auroc(scores, y_test):.3f}  "
          f"AUPR={aupr(scores, y_test):.3f}  "
          f"minority recall={recall:.2f}")

blob = model.to_json()
print(f"\nserialized model: {len(blob)} bytes of JSON "
      f"({model.trained_iterations} stages)")
