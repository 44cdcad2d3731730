"""Fixed-work benchmark of liuboost's cross-validated comparison protocol.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 30

One invocation runs one workload (see ``workloads.py``) in this process at
jobs=1:

1. set-up: ``workloads.py`` is started SETUP_SAMPLES times as a fresh
   interpreter that imports liuboost and writes the workload's inputs;
   ``setup_s`` is the median wall time of those processes;
2. the untraced run: one ``liuboost.bench.run_experiment`` call over a
   fixed set of cells, with only the two ``train_*`` names timed, gives
   the end-to-end metrics. Each train call is paired with the workload's
   reference kernel (``reference.py``) and its times are reported at the
   reference speed, which takes out most of the shared host's drift; the
   raw times are printed beside them;
3. with ``--trace 1``, a second, traced run of the same cells
   (``spans.LayerTrace``), paired the same way, gives the per-layer
   metrics; ``trace.overhead_s`` compares the two at the reference speed.

``--seconds`` fixes the number of repeats, never a time budget, so the work
of a run depends only on its arguments. Output checks: every AUROC/AUPR
is finite and in [0, 1], the report accounts for every fold, and with
``--trace 1`` the traced report has the same sha256 as the untraced one,
every AUROC matches the pairwise statistic, every entry point was hit and
restored, and the traced counts agree with the report. Each failed check
counts as one failed operation.

Human-readable lines go first; the last line of stdout is one JSON object
with the metrics ``BENCHMARK.json`` lists for the chosen ``--trace``.
``--all`` runs every workload with ``--trace 1``, each in its own process.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from workloads import ROOT, WORKLOADS, experiment_config, import_liuboost

if TYPE_CHECKING:  # imported for real after cap_threads(), as it loads numpy
    from reference import PairedClock

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRAIN_NAMES = ("train_liuboost", "train_rusboost")


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at one thread, for this process and the ones
    it starts, before numpy is imported: each workload runs at jobs=1, and
    numpy's OpenBLAS would otherwise size its pool to the machine (up to 64
    threads)."""
    os.environ.update({var: "1" for var in THREAD_VARS})


def machine_record() -> str:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    import scipy
    return (f"nproc={os.cpu_count()} usable={len(os.sched_getaffinity(0))} "
            f"cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            + " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS))


def time_setup(workload, data_dir: Path) -> list[float]:
    """Wall seconds of SETUP_SAMPLES fresh processes that each import
    liuboost and write the workload's inputs to data_dir. Not paired with
    a reference: tried, neither kernel tracked process start-up and the
    spread got wider."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "workloads.py"),
                        workload.name, str(data_dir)],
                       check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


@contextlib.contextmanager
def timed_training(clock: PairedClock):
    """Time every train_* call bench makes against the clock's reference;
    restore the names afterwards."""
    from liuboost import bench

    originals = {name: getattr(bench, name) for name in TRAIN_NAMES}

    for name, original in originals.items():
        setattr(bench, name, functools.partial(clock.call, original))
    clock.start()
    try:
        yield
    finally:
        clock.stop()
        for name, original in originals.items():
            setattr(bench, name, original)


def report_digest(report: dict, path: Path) -> str:
    """sha256 of the report as `emit_report` writes it without timings,
    with the input paths cut to their file names."""
    from liuboost.bench import emit_report

    config = dict(report["config"], dataset_paths=[
        Path(p).name for p in report["config"]["dataset_paths"]])
    skipped = {Path(p).name: why
               for p, why in report["skipped_datasets"].items()}
    emit_report(dict(report, config=config, skipped_datasets=skipped),
                "json", path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def folds_attempted(cfg) -> int:
    return len(cfg.dataset_paths) * cfg.repeats * cfg.folds


def output_problems(cfg, report: dict, n_models: int) -> list[str]:
    """Checks of one report against its config; empty when all hold."""
    problems = []
    if report["skipped_datasets"]:
        problems.append(f"datasets skipped: {report['skipped_datasets']}")
    if len(report["datasets"]) != len(cfg.dataset_paths):
        problems.append(f"{len(report['datasets'])} datasets reported, "
                        f"{len(cfg.dataset_paths)} given")
    scored = 0
    for name, entry in sorted(report["datasets"].items()):
        cells = cfg.repeats * cfg.folds - entry["skipped_folds"]
        for algo in cfg.algorithms:
            stats = entry["algorithms"][algo]
            for metric in ("auroc", "aupr"):
                values = stats[f"{metric}_values"]
                if len(values) != cells:
                    problems.append(f"{name}/{algo}: {len(values)} {metric} "
                                    f"values for {cells} scored folds")
                if stats[f"{metric}_mean"] is not None:
                    values = values + [stats[f"{metric}_mean"]]
                bad = [v for v in values
                       if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
                if bad:
                    problems.append(f"{name}/{algo}: {metric} outside [0, 1]:"
                                    f" {bad[:3]}")
        scored += cells
    attempted = folds_attempted(cfg)
    n_algos = len(cfg.algorithms)
    if n_models % n_algos or not (n_algos * scored <= n_models
                                  <= n_algos * attempted):
        problems.append(f"{n_models} models trained for {scored} scored of "
                        f"{attempted} folds")
    return problems


def mean_over_datasets(report: dict, algo: str, metric: str) -> float:
    means = [e["algorithms"][algo][f"{metric}_mean"]
             for e in report["datasets"].values()]
    return statistics.fmean(v for v in means if v is not None)


def end_to_end(cfg, report, clock: PairedClock, setup_samples):
    """{metric: (value, sample count)} of the untraced run. Train times
    are at the reference speed (reference.py); setup_s is raw."""
    attempted = folds_attempted(cfg)
    skipped = sum(e["skipped_folds"] for e in report["datasets"].values())
    ms = sorted(1000.0 * s for s in clock.scaled)
    n, n_sets = len(ms), len(report["datasets"])
    return {
        "models_per_s": (n / clock.scaled_wall(), n),
        "train_p50_ms": (statistics.median(ms), n),
        "train_p90_ms": (statistics.quantiles(ms, n=10)[8], n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "scored_share": ((attempted - skipped) / attempted, attempted),
        "liuboost_auroc": (mean_over_datasets(report, "liuboost", "auroc"),
                           n_sets),
        "liuboost_aupr": (mean_over_datasets(report, "liuboost", "aupr"),
                          n_sets),
    }


def raw_summary(clock: PairedClock) -> str:
    """The untraced run's times as measured, before scaling."""
    ms = sorted(1000.0 * s for s in clock.latencies)
    refs = statistics.quantiles(clock.references, n=4)
    return (f"# raw: {len(ms) / clock.raw_wall():.4f} models/s, train p50 "
            f"{statistics.median(ms):.3f} ms, p90 "
            f"{statistics.quantiles(ms, n=10)[8]:.3f} ms; reference "
            f"{clock.nominal * 1000:.3f} ms nominal, quartiles "
            + "/".join(f"{1000 * r:.3f}" for r in refs)
            + f" ms over {len(clock.references)} samples")


def run_workload(args, spec: dict) -> int:
    workload = WORKLOADS[args.workload]
    work_dir = WORK / workload.name
    data_dir = work_dir / "inputs"
    setup_samples = time_setup(workload, data_dir)
    import_liuboost()
    from liuboost import bench
    from reference import PairedClock

    paths = sorted(data_dir.glob("*.dat"))
    cfg = experiment_config(workload, paths, args.seed, args.seconds)
    print(f"# machine: {machine_record()}")
    print(f"# workload {workload.name}: {len(paths)} files, algorithms "
          f"{','.join(cfg.algorithms)}, repeats {cfg.repeats}, folds "
          f"{cfg.folds}, T={cfg.rounds}, k={cfg.knn_k}, delta={cfg.delta}, "
          f"max_depth={cfg.max_depth}, master_seed={cfg.master_seed}")

    clock = PairedClock(workload.reference)
    with timed_training(clock):
        report = bench.run_experiment(cfg, jobs=1)
    wall_s = clock.raw_wall()
    problems = output_problems(cfg, report, len(clock.latencies))
    digest = report_digest(report, work_dir / "report.json")
    e2e = end_to_end(cfg, report, clock, setup_samples)
    print(f"# untraced: {wall_s:.3f} s wall without the reference kernel, "
          f"report sha256 {digest}")
    print(raw_summary(clock))
    for name, (value, n) in e2e.items():
        print(f"{name:<40} {value:>14.6f} {spec[name]['unit']:<6} n={n}")
    values = {name: value for name, (value, _) in e2e.items()}

    if args.trace:
        from spans import LayerTrace

        # Paired like the untraced run, so that trace.overhead_s compares
        # both at the reference speed; the kernel runs outside every span.
        traced_clock = PairedClock(workload.reference)
        with LayerTrace() as trace, timed_training(traced_clock):
            traced = bench.run_experiment(cfg, jobs=1)
        traced_s = traced_clock.raw_wall()
        problems += [f"not restored: {n}" for n in trace.unrestored()]
        problems += output_problems(cfg, traced, len(trace.models))
        traced_digest = report_digest(traced, work_dir / "report.json")
        if traced_digest != digest:
            problems.append(f"traced report sha256 {traced_digest} differs")
        values = trace.layer_metrics(traced_s)
        values["trace.wall_s"] = traced_s
        values["trace.overhead_s"] = (traced_clock.scaled_wall()
                                      - clock.scaled_wall())
        problems += trace.problems(cfg, traced, values)
        counts = {k: values[k] for k in sorted(values)
                  if spec[k]["unit"] == "count"}
        print(f"# traced: {traced_s:.3f} s wall, report sha256 "
              f"{traced_digest}, counts sha256 "
              f"{hashlib.sha256(json.dumps(counts).encode()).hexdigest()}")
        for name in sorted(values):
            print(f"{name:<40} {values[name]:>14.6f} {spec[name]['unit']}")

    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    wanted = [m for m in spec.values()
              if (m["kind"] == "per_layer") == bool(args.trace)]
    print(json.dumps({
        "correct": not problems,
        "attempted": folds_attempted(cfg),
        "failed": len(problems),
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(args) -> int:
    failed = []
    for name in WORKLOADS:
        print(f"## {name}", flush=True)
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", "1"],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode or not json.loads(lines[-1])["correct"]:
            failed.append(name)
    if failed:
        print(f"## FAILED: {', '.join(failed)}")
        return 1
    print("## all workloads passed their checks")
    return 0


def load_spec() -> dict:
    """Metric name -> {name, unit, kind} from BENCHMARK.json."""
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m | {"kind": kind}
            for kind in ("end_to_end", "per_layer") for m in bench_json[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, traced, in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "liuboost").is_dir():
        print(f"error: no liuboost sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    cap_threads()
    if args.all:
        return run_all(args)
    return run_workload(args, load_spec())


if __name__ == "__main__":
    sys.exit(main())
