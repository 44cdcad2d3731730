"""Time and memory of the locality layer at a given size.

    PYTHONPATH=src python3 tools/locality_scale.py --m 100000 --d 10 --k 5

Runs ``assign_weights`` once on m uniform random rows of d features (10%
minority labels, seed 0) and prints one JSON line:

- ``seconds``: wall time of that call;
- ``workers``: the k-d tree query threads for a query of all m rows
  (each query runs on the threads of its own row count);
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

from liuboost import locality
from liuboost.data import Dataset


def max_rss_bytes() -> int:
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--m", type=int, required=True, help="rows")
    parser.add_argument("--d", type=int, required=True, help="features")
    parser.add_argument("--k", type=int, default=5, help="neighbours")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    ds = Dataset(features=rng.random((args.m, args.d)),
                 labels=np.where(rng.random(args.m) < 0.1, 1, -1),
                 feature_names=tuple(f"x{j}" for j in range(args.d)))
    searched_rows = tied_rows = 0
    exact, tied = locality._exact_neighbors, locality._tied_neighbors

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
    try:
        before = max_rss_bytes()
        started = time.perf_counter()
        locality.assign_weights(ds, k=args.k)
        seconds = time.perf_counter() - started
        rss_growth = max_rss_bytes() - before
    finally:
        locality._exact_neighbors = exact
        locality._tied_neighbors = tied

    tracemalloc.start()
    try:
        locality.assign_weights(ds, k=args.k)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    print(json.dumps({
        "m": args.m, "d": args.d, "k": args.k,
        "seconds": round(seconds, 3),
        "workers": locality._query_workers(args.m),
        "searched_rows": searched_rows,
        "tied_rows": tied_rows,
        "rss_growth_mib": round(rss_growth / 2**20, 2),
        "traced_peak_mib": round(traced_peak / 2**20, 2),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
