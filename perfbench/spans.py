"""Layer tracing from outside the program.

``LayerTrace`` rebinds the public names through which ``liuboost.bench``
reaches each layer to timed wrappers, records one parent-linked span per
call plus the counts the layer metrics need, and puts every original
back on exit. Nothing inside ``src/`` is changed.
"""
from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from liuboost import bench, ensemble, metrics
from liuboost.tree import DecisionTree

# (owner, attribute, span name): every entry point the trace rebinds.
ENTRY_POINTS = (
    (bench, "parse_keel", "data.parse"),
    (bench, "stratified_folds", "data.split"),
    (bench, "fit_min_max", "data.scale"),
    (bench, "apply_min_max", "data.scale"),
    (bench, "train_liuboost", "train.liuboost"),
    (bench, "train_rusboost", "train.rusboost"),
    (bench, "decision_score", "score"),
    (bench, "wilcoxon_signed_rank", "stats"),
    (metrics, "auroc", "metrics"),
    (metrics, "aupr", "metrics"),
    (ensemble, "assign_weights", "locality"),
    (ensemble, "random_undersample", "resample"),
    (ensemble, "fit_tree", "tree.fit"),
    (DecisionTree, "predict_many", "tree.predict"),
)


class LayerTrace:
    """Context manager: traced entry points inside, originals outside."""

    def __init__(self):
        self.names = []     # span name, per span
        self.parents = []   # index of the enclosing span, -1 at top level
        self.durations = []
        self.rows = defaultdict(int)           # span name -> rows handled
        self.calls = defaultdict(int)          # (owner, attribute) -> calls
        self.models = []          # (algorithm, BoostModel), in call order
        self.fold_models = []     # models trained per non-skipped fold
        self.folds_attempted = 0
        self.folds_no_class = 0
        self.tree_nodes = 0
        self.locality_peak_bytes = 0
        self.auroc_mismatches = 0
        self._stack = []
        self._originals = []

    # -- rebinding --------------------------------------------------------

    def __enter__(self):
        for owner, attr, name in ENTRY_POINTS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(owner, attr, name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        return False

    def unrestored(self) -> list[str]:
        """Entry points whose original binding is not back in place."""
        return [f"{owner.__name__}.{attr}"
                for owner, attr, original in self._originals
                if getattr(owner, attr) is not original]

    def _wrap(self, owner, attr, name, original):
        after = getattr(self, f"_after_{attr}", None)
        key = (owner, attr)
        memory = name == "locality"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.durations.append(0.0)
            self.calls[key] += 1
            self._stack.append(index)
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.durations[index] = time.perf_counter() - start
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.locality_peak_bytes = max(self.locality_peak_bytes,
                                                   peak)
                self._stack.pop()
            if after is not None:
                after(index, args, kwargs, result)
            return result

        return traced

    # -- per-layer counts, taken from the arguments and results ------------

    def _after_stratified_folds(self, index, args, kwargs, plan):
        labels = args[0].labels
        for fold in range(plan.k):
            train_idx, test_idx = plan.split(fold)
            self.folds_attempted += 1
            if (np.unique(labels[test_idx]).size < 2
                    or np.unique(labels[train_idx]).size < 2):
                self.folds_no_class += 1

    def _after_fit_min_max(self, index, args, kwargs, result):
        self.fold_models.append([])  # bench scales once per kept fold

    def _after_train_liuboost(self, index, args, kwargs, model):
        self.models.append(("liuboost", model))
        self.fold_models[-1].append(model)

    def _after_train_rusboost(self, index, args, kwargs, model):
        self.models.append(("rusboost", model))
        self.fold_models[-1].append(model)

    def _after_auroc(self, index, args, kwargs, area):
        # Oracle: AUROC is the Mann-Whitney pair statistic, exactly.
        scores, labels = np.asarray(args[0], dtype=float), np.asarray(args[1])
        pos, neg = scores[labels == 1], scores[labels == -1]
        twice = (2 * (pos[:, None] > neg).sum()
                 + (pos[:, None] == neg).sum())
        if twice / (2.0 * pos.size * neg.size) != area:
            self.auroc_mismatches += 1

    def _after_assign_weights(self, index, args, kwargs, result):
        self.rows["locality"] += args[0].n_instances

    def _after_fit_tree(self, index, args, kwargs, tree):
        self.rows["tree.fit"] += len(args[1])
        self.tree_nodes += tree.n_nodes

    def _after_predict_many(self, index, args, kwargs, result):
        self.rows[f"tree.predict.{self._parent_name(index)}"] += len(result)

    def _parent_name(self, index) -> str:
        parent = self.parents[index]
        return self.names[parent] if parent >= 0 else "top"

    # -- summaries --------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers of the traced run, by metric name."""
        busy = defaultdict(float)
        count = defaultdict(int)
        child_s = [0.0] * len(self.names)
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            key = name
            if name == "tree.predict":
                key = f"tree.predict.{self._parent_name(i)}"
            busy[key] += self.durations[i]
            count[key] += 1
            if parent >= 0:
                child_s[parent] += self.durations[i]
        top_s = sum(d for d, p in zip(self.durations, self.parents) if p < 0)
        train_self_s = sum(d - c for n, d, c in
                           zip(self.names, self.durations, child_s)
                           if n.startswith("train."))

        out = {
            "locality.calls": count["locality"],
            "locality.rows": self.rows["locality"],
            "locality.busy_s": busy["locality"],
            "locality.peak_mb": self.locality_peak_bytes / 2**20,
            "locality.share": busy["locality"] / wall_s,
            "tree.fit_calls": count["tree.fit"],
            "tree.fit_rows": self.rows["tree.fit"],
            "tree.nodes": self.tree_nodes,
            "tree.fit_busy_s": busy["tree.fit"],
            "tree.fit_share": busy["tree.fit"] / wall_s,
        }
        for parent, label in (("train.", "train"), ("score", "score")):
            keys = [k for k in count
                    if k.startswith(f"tree.predict.{parent}")]
            out[f"tree.predict_{label}_calls"] = sum(count[k] for k in keys)
            out[f"tree.predict_{label}_rows"] = sum(self.rows[k] for k in keys)
            out[f"tree.predict_{label}_busy_s"] = sum(busy[k] for k in keys)
        for suffix in ("calls", "rows", "busy_s"):
            out[f"tree.predict_{suffix}"] = sum(
                out[f"tree.predict_{label}_{suffix}"]
                for label in ("train", "score"))
        stages = sum(m.trained_iterations for _, m in self.models)
        out |= {
            "resample.calls": count["resample"],
            "resample.busy_s": busy["resample"],
            "ensemble.models": len(self.models),
            "ensemble.stages_kept": stages,
            "ensemble.kept_ratio": stages / max(1, count["tree.fit"]),
            "ensemble.retries_exhausted": sum(m.retries_exhausted
                                              for _, m in self.models),
            "ensemble.zero_stage_models": sum(m.trained_iterations == 0
                                              for _, m in self.models),
            "ensemble.self_s": train_self_s,
            "ensemble.score_s": busy["score"],
        }
        for algo in ("liuboost", "rusboost"):
            mine = [m for a, m in self.models if a == algo]
            out |= {
                f"ensemble.{algo}.models": len(mine),
                f"ensemble.{algo}.stages_kept": sum(m.trained_iterations
                                                    for m in mine),
                f"ensemble.{algo}.retries_exhausted": sum(m.retries_exhausted
                                                          for m in mine),
                f"ensemble.{algo}.zero_stage_models": sum(
                    m.trained_iterations == 0 for m in mine),
                f"ensemble.{algo}.train_s": busy[f"train.{algo}"],
            }
        out |= {
            "data.parse_calls": count["data.parse"],
            "data.parse_s": busy["data.parse"],
            "data.split_s": busy["data.split"],
            "data.scale_s": busy["data.scale"],
            "metrics.calls": count["metrics"],
            "metrics.busy_s": busy["metrics"],
            "stats.calls": count["stats"],
            "stats.busy_s": busy["stats"],
            "bench.self_s": wall_s - top_s,
            "bench.folds_attempted": self.folds_attempted,
            "bench.folds_skipped_no_class": self.folds_no_class,
            "bench.folds_skipped_zero_stage": self.zero_stage_folds(),
        }
        return out

    def zero_stage_folds(self) -> int:
        return sum(any(m.trained_iterations == 0 for m in fold)
                   for fold in self.fold_models)

    def problems(self, cfg, report, layer) -> list[str]:
        """Entry points missed or hit by mistake, counts that disagree with
        what the report implies, and AUROC values the pairwise oracle
        contradicts. Empty when the trace and the outputs are sound."""
        problems = []
        if self.auroc_mismatches:
            problems.append(f"{self.auroc_mismatches} AUROC values differ "
                            "from the pairwise statistic")
        optional = set()
        if "rusboost" not in cfg.algorithms:
            optional = {"train_rusboost", "wilcoxon_signed_rank"}
        for owner, attr, _ in ENTRY_POINTS:
            n = self.calls[(owner, attr)]
            if attr in optional and n:
                problems.append(f"{attr} called {n} times on a one-algorithm "
                                "workload")
            elif attr not in optional and not n:
                problems.append(f"{attr} never called")

        def calls(owner, attr):
            return self.calls[(owner, attr)]

        n_algos, n_files = len(cfg.algorithms), len(cfg.dataset_paths)
        entries = report["datasets"].values()
        scored = sum(len(e["algorithms"][cfg.algorithms[0]]["auroc_values"])
                     for e in entries)
        skipped = sum(e["skipped_folds"] for e in entries)
        kept = self.folds_attempted - self.folds_no_class
        scored_models = [m for fold in self.fold_models
                         if all(m.trained_iterations for m in fold)
                         for m in fold]
        expected = {
            "parse calls": (calls(bench, "parse_keel"),
                            n_files * (1 + cfg.repeats)),
            "fold plans": (calls(bench, "stratified_folds"),
                           n_files * cfg.repeats),
            "folds attempted": (self.folds_attempted,
                                n_files * cfg.repeats * cfg.folds),
            "folds skipped": (skipped,
                              self.folds_no_class + self.zero_stage_folds()),
            "folds scored": (scored, self.folds_attempted - skipped),
            "models trained": (len(self.models), n_algos * kept),
            "models scored": (len(scored_models), n_algos * scored),
            "min-max fits": (calls(bench, "fit_min_max"), kept),
            "min-max applications": (calls(bench, "apply_min_max"), 2 * kept),
            "locality calls": (layer["locality.calls"],
                               layer["ensemble.liuboost.models"]),
            "undersample calls": (layer["resample.calls"],
                                  layer["tree.fit_calls"]),
            "training predictions": (layer["tree.predict_train_calls"],
                                     layer["tree.fit_calls"]),
            "scoring calls": (calls(bench, "decision_score"),
                              n_algos * scored),
            "scoring predictions": (layer["tree.predict_score_calls"],
                                    sum(m.trained_iterations
                                        for m in scored_models)),
            "metric calls": (layer["metrics.calls"], 2 * n_algos * scored),
            "predictions in training or scoring": (
                layer["tree.predict_calls"],
                calls(DecisionTree, "predict_many")),
        }
        problems += [f"{what}: traced {got}, expected {want}"
                     for what, (got, want) in expected.items() if got != want]
        return problems

