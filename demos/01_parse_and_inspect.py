"""Parse a KEEL .dat file and inspect the dataset.

Generates one synthetic stand-in benchmark file, parses it back, and
walks through the quantities the rest of the library builds on: class
encoding (minority is always +1), imbalance ratio, and a stratified
cross-validation plan.
"""
import tempfile
from pathlib import Path

from liuboost import imbalance_ratio, parse_keel, stratified_folds
from liuboost.synth import BENCHMARK_CATALOG, generate_catalog_dataset
from liuboost.data import serialize_keel

entry = next(e for e in BENCHMARK_CATALOG if e.name == "glass5")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / f"{entry.name}.dat"
    path.write_text(serialize_keel(generate_catalog_dataset(entry)))
    print(f"wrote {path.name} ({path.stat().st_size} bytes)")
    print("--- first lines of the file ---")
    print("\n".join(path.read_text().splitlines()[:14]))
    # parsed from the path, a piece at a time: the text is never held whole
    ds = parse_keel(path, name=entry.name)

print("\n--- parsed dataset ---")
print(f"name:            {ds.name}")
print(f"instances:       {ds.n_instances}")
print(f"features:        {ds.n_features} {ds.feature_names}")
print(f"minority (+1):   {ds.minority_count}")
print(f"majority (-1):   {ds.majority_count}")
print(f"imbalance ratio: {imbalance_ratio(ds):.2f}")

print("\n--- stratified 5-fold plan (seed 0) ---")
plan = stratified_folds(ds, k=5, seed=0)
for j, fold in enumerate(plan.folds):
    n_pos = int((ds.labels[fold] == 1).sum())
    print(f"fold {j}: {len(fold):3d} instances, {n_pos} minority")
train, test = plan.split(0)
print(f"holding out fold 0: train={len(train)}, test={len(test)}")
