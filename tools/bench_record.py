"""Record the benchmark of one commit against another as BENCH_<n>.json.

    python3 tools/bench_record.py --parent HEAD~1 --change HEAD \
        --out BENCH_18.json

Both commits are extracted with ``git archive <rev> | tar -x`` into a
temporary directory, so only committed files are measured and both sides
run the benchmark code of their own commit. For each workload of
``BENCHMARK.json`` it runs:

1. ``PAIRS`` untraced pairs of ``perfbench/run.py --trace 0``, pair i
   at seed i (1, 2, ..., 10) on both sides, alternating which side runs
   first, each run as long as ``run_seconds`` of the change's
   ``BENCHMARK.json``;
2. one traced run per side at seed 0, ``--trace 1``, for the per-layer
   metrics and the report and counts sha256 values.

The file holds both commits, the machine line, every end-to-end metric per
seed with each side's median and interquartile range, the pairs each side
won (ties count for neither) and its ``verdict`` against the bound of the
change's ``BENCHMARK.json`` (see ``verdict``), the traced per-layer
metrics, both sha256 values and ``failed``: the failed checks that run.py
reported, plus one for every run that exited non-zero or printed no
result.  A pair counts only when both of its runs gave a result; the
seeds of the other pairs are listed as ``dropped_seeds``.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
# ten pairs: the fewest on which a gain can win nine of ten
PAIRS = 10
SIDES = ("parent", "change")


def extract(rev: str, into: Path) -> str:
    """git archive rev | tar -x into a new directory; the full sha of rev."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                          f"{rev}^{{commit}}"], check=True,
                         capture_output=True, text=True).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


def parse_run_output(stdout: str) -> dict:
    """The facts of one run.py output: its machine line, its sha256 values
    and its final JSON object."""
    out = {"machine": None, "report_sha256": None, "counts_sha256": None}
    for line in stdout.splitlines():
        if line.startswith("# machine: "):
            out["machine"] = line.removeprefix("# machine: ")
        elif found := re.match(r"# (untraced|traced):.*report sha256 "
                               r"([0-9a-f]{64})", line):
            out["report_sha256"] = found[2]
            counts = re.search(r"counts sha256 ([0-9a-f]{64})", line)
            out["counts_sha256"] = counts and counts[1]
    lines = stdout.strip().splitlines()
    try:
        out["result"] = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        out["result"] = None
    return out


def run(checkout: Path, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    """One run.py run in checkout; a run that fails or prints no result
    comes back with result None."""
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=checkout, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"# {workload} seed {seed} timed out in {checkout.name}",
              file=sys.stderr)
        return parse_run_output("")
    parsed = parse_run_output(done.stdout)
    if done.returncode:
        sys.stderr.write(done.stderr)
        parsed["result"] = None
    return parsed


def failed(parsed: dict) -> int:
    result = parsed["result"]
    return 1 if result is None else result["failed"]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Per-seed values of one metric on both sides, their medians and
    IQRs, and the pairs each side won by the metric's 'better' sense."""
    sign = 1 if spec["better"] == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "parent": parent,
        "change": change,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_iqr": iqr(parent),
        "change_iqr": iqr(change),
        "change_wins": sum(d > 0 for d in diffs),
        "parent_wins": sum(d < 0 for d in diffs),
    }


def verdict(s: dict, bound: float) -> str:
    """The verdict on one summarized metric, by the first rule that fits,
    with the parent's IQR and the metric's bound as a share of the
    parent's median:

    - unresolved: the parent's IQR exceeds the bound, and not every change
      run beats every parent run;
    - worse: the change's median is worse by more than the bound;
    - gain: the change wins at least 9 of 10 pairs, and the medians differ
      by more than the parent's IQR;
    - within_bound: none of these.
    """
    sign = 1 if s["better"] == "higher" else -1
    allowed = bound * abs(s["parent_median"])
    # whether the change's worst run beats the parent's best
    separated = (min(sign * c for c in s["change"])
                 > max(sign * p for p in s["parent"]))
    moved = sign * (s["change_median"] - s["parent_median"])
    if s["parent_iqr"] > allowed and not separated:
        return "unresolved"
    if moved < -allowed:
        return "worse"
    if 10 * s["change_wins"] >= 9 * len(s["parent"]) \
            and moved > s["parent_iqr"]:
        return "gain"
    return "within_bound"


def metrics(parsed: dict) -> dict:
    return {name: m["value"]
            for name, m in parsed["result"]["metrics"].items()}


def pair_up(bench: dict, runs: dict) -> dict:
    """The seeds of the pairs whose two runs both gave a result, the seeds
    of the other pairs, and every end-to-end metric over the kept pairs.
    runs[side][i] is the parsed run of seed i + 1."""
    kept, dropped = [], []
    for seed, p, c in zip(range(1, PAIRS + 1), runs["parent"],
                          runs["change"]):
        if p["result"] and c["result"]:
            kept.append((seed, metrics(p), metrics(c)))
        else:
            dropped.append(seed)
    return {
        "seeds": [seed for seed, _, _ in kept],
        "dropped_seeds": dropped,
        "end_to_end": {m["name"]: summarize_with_verdict(m, kept)
                       for m in bench["end_to_end"]} if kept else {},
    }


def summarize_with_verdict(spec: dict, kept: list) -> dict:
    s = summarize(spec, [p[spec["name"]] for _, p, _ in kept],
                  [c[spec["name"]] for _, _, c in kept])
    return s | {"verdict": verdict(s, spec["bound"])}


def record_workload(checkouts: dict, bench: dict, workload: str,
                    seconds: float) -> dict:
    """The workload's entry of the file."""
    runs = {side: [] for side in SIDES}
    for seed in range(1, PAIRS + 1):
        for side in SIDES if seed % 2 else SIDES[::-1]:
            parsed = run(checkouts[side], workload, seed, seconds, 0)
            runs[side].append(parsed)
            print(f"{workload} seed {seed} {side}: "
                  f"{parsed['result'] and metrics(parsed)}", flush=True)
    traced = {side: run(checkouts[side], workload, 0, seconds, 1)
              for side in SIDES}
    return {
        "machine": next((p["machine"] for side in SIDES
                         for p in runs[side] if p["machine"]), None),
        **pair_up(bench, runs),
        "per_layer": {side: traced[side]["result"] and metrics(traced[side])
                      for side in SIDES},
        "sha256": {side: {"report": traced[side]["report_sha256"],
                          "counts": traced[side]["counts_sha256"]}
                   for side in SIDES},
        "failed": {side: sum(failed(p) for p in runs[side])
                   + failed(traced[side]) for side in SIDES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="parent commit")
    parser.add_argument("--change", default="HEAD", help="changed commit")
    parser.add_argument("--out", type=Path, required=True,
                        help="the BENCH_<n>.json file to write")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        commits = {side: extract(getattr(args, side), checkouts[side])
                   for side in SIDES}
        bench = json.loads((checkouts["change"] / "BENCHMARK.json")
                           .read_text())
        workloads = {w["name"]: record_workload(checkouts, bench, w["name"],
                                                bench["run_seconds"])
                     for w in bench["workloads"]}
    record = {
        "commits": commits,
        "machine": next(filter(None, [e.pop("machine")
                                      for e in workloads.values()]), None),
        "pairs": PAIRS,
        "seconds": bench["run_seconds"],
        "traced_seed": 0,
        "workloads": workloads,
        "failed": sum(sum(e["failed"].values()) for e in workloads.values()),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}: failed {record['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
