"""Locality-derived instance costs.

Every training instance gets a cost pair from the class composition of
its k nearest neighbors: weight_plus amplifies the boosting-weight
increase when the instance is misclassified, weight_minus accelerates
the decrease when it is correct.  Safe instances (pure same-class
neighborhood) are cheap to get wrong; rare/outlier instances (pure
opposite-class neighborhood) are expensive.
"""
import numpy as np

from liuboost import Dataset, assign_weights
from liuboost.data import apply_min_max, fit_min_max
from liuboost.synth import BENCHMARK_CATALOG, generate_catalog_dataset

entry = next(e for e in BENCHMARK_CATALOG if e.name == "haberman")
raw = generate_catalog_dataset(entry)
mins, ranges = fit_min_max(raw.features)
ds = Dataset(features=apply_min_max(raw.features, mins, ranges),
             labels=raw.labels, feature_names=raw.feature_names, name=raw.name)
cv = assign_weights(ds, k=5, delta=1.0)

print(f"dataset {ds.name}: {ds.n_instances} instances, "
      f"{ds.minority_count} minority")
print(f"k={cv.k}, delta={cv.delta}\n")

print("neighborhood purity (same-class neighbors out of k=5):")
for n_s in range(6):
    mask = cv.n_same == n_s
    n_min = int((ds.labels[mask] == 1).sum())
    kind = {0: "outlier", 1: "rare", 2: "borderline", 3: "borderline",
            4: "safe", 5: "safe"}[n_s]
    print(f"  N_s={n_s} ({kind:10s}): {int(mask.sum()):4d} instances "
          f"({n_min} minority)  weight+={cv.weight_plus[mask][0] if mask.any() else '-'}")

print("\ncost summary by class:")
for cls, name in ((1, "minority"), (-1, "majority")):
    mask = ds.labels == cls
    print(f"  {name}: mean weight+ = {cv.weight_plus[mask].mean():.3f}, "
          f"mean weight- = {cv.weight_minus[mask].mean():.3f}")

hardest = np.argsort(-cv.weight_plus)[:5]
print("\nfive most expensive-to-misclassify instances:")
for i in hardest:
    print(f"  idx {i:4d} label {ds.labels[i]:+d} "
          f"N_s={cv.n_same[i]} N_o={cv.n_opposite[i]} "
          f"weight+={cv.weight_plus[i]:.3f} weight-={cv.weight_minus[i]:.3f}")
