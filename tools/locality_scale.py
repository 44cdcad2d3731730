"""Time and memory of the locality layer at a given size.

    PYTHONPATH=src python3 tools/locality_scale.py --m 100000 --d 10 --k 5

Runs ``assign_weights`` once on m rows of d features and prints one JSON
line.  ``--data uniform`` (the default) draws uniform random rows with
10% minority labels (seed 0); ``--data synth`` takes
``synth.generate_dataset(m, d, n_min=m // 100, seed=0)``, min-max scaled
as ``bench`` scales a training split.  The line holds:

- ``seconds``: wall time of that call;
- ``workers``: the k-d tree query threads for a query of all m rows
  (each query runs on the threads of its own row count);
- ``pass_rows``: the rows that entered each pass of the certificate, in
  order: every majority row enters the leaf pass (counted when
  ``_leaf_bounds`` is called, by rebinding it for the call), and the rows
  it left enter the candidate query, the one with an ``eps`` (counted by
  rebinding ``cKDTree`` for the call); the leaf pass certified the
  difference;
- ``searched_rows``: the rows of that call that took the exact search,
  the rows the certificate did not settle (counted by rebinding
  ``_exact_neighbors`` for the call);
- ``tied_rows``: the rows of that call too close to a tie at the k-th
  distance for the tree query alone, resolved by ``_tied_neighbors``
  (counted by rebinding it for the call);
- ``rss_growth_mib``: how far the call raised the process's peak resident
  set size (``ru_maxrss``), which counts native buffers, such as the k-d
  tree's nodes and its query threads' stacks, that tracemalloc misses;
- ``traced_peak_mib``: the tracemalloc peak of a second, traced call,
  which sees the NumPy arrays only.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc

import numpy as np

from liuboost import locality, synth
from liuboost.data import Dataset, apply_min_max, fit_min_max


def max_rss_bytes() -> int:
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--m", type=int, required=True, help="rows")
    parser.add_argument("--d", type=int, required=True, help="features")
    parser.add_argument("--k", type=int, default=5, help="neighbours")
    parser.add_argument("--data", choices=("uniform", "synth"),
                        default="uniform", help="input rows")
    args = parser.parse_args(argv)

    if args.data == "uniform":
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.random((args.m, args.d)),
                     labels=np.where(rng.random(args.m) < 0.1, 1, -1),
                     feature_names=tuple(f"x{j}" for j in range(args.d)))
    else:
        raw = synth.generate_dataset("scale", args.m, args.d,
                                     n_min=args.m // 100, seed=0)
        ds = Dataset(features=apply_min_max(raw.features,
                                            *fit_min_max(raw.features)),
                     labels=raw.labels, feature_names=raw.feature_names)
    searched_rows = tied_rows = 0
    pass_rows = []
    exact, tied = locality._exact_neighbors, locality._tied_neighbors
    leaf_bounds = locality._leaf_bounds
    tree_class = locality.cKDTree

    class CountedTree(tree_class):
        def query(self, x, *args, **kwargs):
            if "eps" in kwargs:
                pass_rows.append(len(x))
            return super().query(x, *args, **kwargs)

    def bounded(tree, features, k):
        pass_rows.append(int((ds.labels == -1).sum()))
        return leaf_bounds(tree, features, k)

    def searched(tree, features, rows, k):
        nonlocal searched_rows
        searched_rows += len(rows)
        return exact(tree, features, rows, k)

    def counted(tree, features, rows, kth, k):
        nonlocal tied_rows
        tied_rows += len(rows)
        return tied(tree, features, rows, kth, k)

    locality._exact_neighbors = searched
    locality._tied_neighbors = counted
    locality._leaf_bounds = bounded
    locality.cKDTree = CountedTree
    try:
        before = max_rss_bytes()
        started = time.perf_counter()
        locality.assign_weights(ds, k=args.k)
        seconds = time.perf_counter() - started
        rss_growth = max_rss_bytes() - before
    finally:
        locality._exact_neighbors = exact
        locality._tied_neighbors = tied
        locality._leaf_bounds = leaf_bounds
        locality.cKDTree = tree_class

    tracemalloc.start()
    try:
        locality.assign_weights(ds, k=args.k)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    print(json.dumps({
        "m": args.m, "d": args.d, "k": args.k, "data": args.data,
        "seconds": round(seconds, 3),
        "workers": locality._query_workers(args.m),
        "pass_rows": pass_rows,
        "searched_rows": searched_rows,
        "tied_rows": tied_rows,
        "rss_growth_mib": round(rss_growth / 2**20, 2),
        "traced_peak_mib": round(traced_peak / 2**20, 2),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
