import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

REPORT = "a4a03e29913b104a43eb217d9d4cc1721404d92814437a3a563bd065e841f40c"
COUNTS = "99a22524eb4bafd7f62fc1764a53c8cdcc804e4b0fdc0870c156e3d911568dd4"
MACHINE = ("nproc=2 usable=2 cpu='Intel(R) Xeon(R) Processor' python=3.11.7 "
           "numpy=2.4.6 scipy=1.17.1 OPENBLAS_NUM_THREADS=1 "
           "OMP_NUM_THREADS=1 MKL_NUM_THREADS=1")

# perfbench/run.py output of a traced protocol run, its metric lines cut
TRACED = f"""\
# machine: {MACHINE}
# workload protocol: 18 files, algorithms liuboost,rusboost, repeats 1, \
folds 10, T=10, k=5, delta=1.0, max_depth=1, master_seed=0
# untraced: 3.382 s wall without the reference kernel, report sha256 {REPORT}
# raw: 101.7217 models/s, train p50 5.204 ms, p90 14.694 ms; reference \
0.700 ms nominal, quartiles 0.674/0.720/0.950 ms over 690 samples
models_per_s                               120.512345 1/s    n=344
# traced: 3.557 s wall, report sha256 {REPORT}, counts sha256 {COUNTS}
locality.calls                             172.000000 count
{json.dumps({"correct": True, "attempted": 180, "failed": 0, "metrics": {
    "locality.calls": {"value": 172.0, "unit": "count"},
    "tree.fit_share": {"value": 0.41, "unit": "ratio"}}})}
"""

UNTRACED = f"""\
# machine: {MACHINE}
# untraced: 3.382 s wall without the reference kernel, report sha256 {REPORT}
models_per_s                               120.512345 1/s    n=344
# CHECK FAILED: datasets skipped: {{'a.dat': 'unreadable'}}
{json.dumps({"correct": False, "attempted": 180, "failed": 1, "metrics": {
    "models_per_s": {"value": 120.512345, "unit": "1/s"}}})}
"""


class TestParseRunOutput:
    def test_traced(self):
        parsed = bench_record.parse_run_output(TRACED)
        assert parsed["machine"] == MACHINE
        assert parsed["report_sha256"] == REPORT
        assert parsed["counts_sha256"] == COUNTS
        assert bench_record.metrics(parsed) == {"locality.calls": 172.0,
                                                "tree.fit_share": 0.41}
        assert bench_record.failed(parsed) == 0

    def test_untraced_has_no_counts_digest(self):
        parsed = bench_record.parse_run_output(UNTRACED)
        assert parsed["report_sha256"] == REPORT
        assert parsed["counts_sha256"] is None
        assert bench_record.metrics(parsed) == {"models_per_s": 120.512345}
        assert bench_record.failed(parsed) == 1

    @pytest.mark.parametrize("stdout", ["", "Traceback (most recent call "
                                        "last):\n  boom\n"])
    def test_no_result_is_one_failure(self, stdout):
        parsed = bench_record.parse_run_output(stdout)
        assert parsed["result"] is None and parsed["machine"] is None
        assert bench_record.failed(parsed) == 1


class TestSummarize:
    def test_higher_is_better(self):
        s = bench_record.summarize({"unit": "1/s", "better": "higher"},
                                   [30.0, 32.0, 31.0, 33.0],
                                   [45.0, 31.0, 44.0, 33.0])
        assert s["parent_median"] == 31.5 and s["change_median"] == 38.5
        # exclusive quartiles of 30, 31, 32, 33: 30.25 and 32.75
        assert s["parent_iqr"] == 2.5
        # the tie at 33.0 counts for neither side
        assert (s["change_wins"], s["parent_wins"]) == (2, 1)
        assert s["parent"] == [30.0, 32.0, 31.0, 33.0]

    def test_lower_is_better(self):
        s = bench_record.summarize({"unit": "ms", "better": "lower"},
                                   [26.0, 27.0], [17.0, 28.0])
        assert (s["change_wins"], s["parent_wins"]) == (1, 1)
        assert s["unit"] == "ms" and s["better"] == "lower"

    def test_one_pair_has_no_spread(self):
        s = bench_record.summarize({"unit": "s", "better": "lower"},
                                   [0.8], [0.7])
        assert s["parent_iqr"] == s["change_iqr"] == 0.0
        assert s["change_wins"] == 1
        assert s["paired_ratio_median"] == 0.7 / 0.8

    def test_paired_ratio_median(self):
        # pair by pair, not median over median: 38.5 / 31.5 would be 1.22
        s = bench_record.summarize({"unit": "1/s", "better": "higher"},
                                   [30.0, 32.0, 31.0, 33.0],
                                   [45.0, 31.0, 44.0, 33.0])
        assert s["paired_ratio_median"] == (1.0 + 44.0 / 31.0) / 2
        # the same ratios whatever the host's drift, which scales a pair
        drift = [1.0, 1.3, 0.8, 1.1]
        drifted = bench_record.summarize(
            {"unit": "1/s", "better": "higher"},
            [p * f for p, f in zip(s["parent"], drift)],
            [c * f for c, f in zip(s["change"], drift)])
        assert drifted["paired_ratio_median"] == pytest.approx(
            s["paired_ratio_median"])
        assert drifted["parent_iqr"] != pytest.approx(s["parent_iqr"])
        # the verdict does not read it
        spec = {"unit": "1/s", "better": "higher"}
        assert bench_record.verdict(s, 0.24) == bench_record.verdict(
            s | {"paired_ratio_median": None}, 0.24)
        # a parent of 0 has no ratio
        zero = bench_record.summarize(spec, [0.0, 2.0], [1.0, 3.0])
        assert zero["paired_ratio_median"] == 1.5
        assert bench_record.summarize(spec, [0.0], [1.0])[
            "paired_ratio_median"] is None


def _run(rate):
    """A parsed run.py run: None when it gave no result."""
    if rate is None:
        return bench_record.parse_run_output("")
    return {"result": {"failed": 0, "metrics": {
        "models_per_s": {"value": rate, "unit": "1/s"}}}}


class TestPairUp:
    BENCH = {"end_to_end": [{"name": "models_per_s", "unit": "1/s",
                             "better": "higher", "bound": 0.24}]}

    def test_a_pair_without_a_result_is_dropped_and_named(self):
        runs = {"parent": [_run(30.0), _run(31.0), _run(None)],
                "change": [_run(None), _run(44.0), _run(45.0)]}
        paired = bench_record.pair_up(self.BENCH, runs)
        assert paired["seeds"] == [2]
        assert paired["dropped_seeds"] == [1, 3]
        rate = paired["end_to_end"]["models_per_s"]
        assert (rate["parent"], rate["change"]) == ([31.0], [44.0])
        assert rate["verdict"] == "gain"

    def test_every_pair_dropped_leaves_no_metrics(self):
        runs = {"parent": [_run(None)], "change": [_run(30.0)]}
        paired = bench_record.pair_up(self.BENCH, runs)
        assert paired == {"seeds": [], "dropped_seeds": [1],
                          "end_to_end": {}}


def _summary(better, parent, change):
    return bench_record.summarize({"unit": "s", "better": better},
                                  parent, change)


# ten pairs each; every parent below has median 1.0 and IQR 0.1, except
# the noisy one (IQR 0.65), and the bound is 0.25
STEADY = [0.9, 0.95, 0.95, 1.0, 1.0, 1.0, 1.0, 1.05, 1.05, 1.1]
NOISY = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.4, 1.5]


class TestVerdict:
    @pytest.mark.parametrize("better, parent, change, expected", [
        # a wide parent spread and overlapping runs: nothing can be told
        ("lower", NOISY, [v - 0.1 for v in NOISY], "unresolved"),
        # the same spread, but every change run beats every parent run
        ("lower", NOISY, [0.3] * 10, "gain"),
        # 30% slower against a bound of 25%
        ("lower", STEADY, [v + 0.3 for v in STEADY], "worse"),
        ("higher", STEADY, [v - 0.3 for v in STEADY], "worse"),
        # wins all ten pairs, by more than the IQR
        ("lower", STEADY, [v * 0.5 for v in STEADY], "gain"),
        ("higher", STEADY, [v + 0.2 for v in STEADY], "gain"),
        # wins only eight pairs
        ("lower", STEADY, [v - 0.2 for v in STEADY[:8]] + STEADY[8:],
         "within_bound"),
        # wins every pair, by less than the IQR
        ("lower", STEADY, [v - 0.05 for v in STEADY], "within_bound"),
        # identical in every pair
        ("higher", STEADY, STEADY, "within_bound"),
    ])
    def test_first_rule_that_fits(self, better, parent, change, expected):
        s = _summary(better, parent, change)
        assert bench_record.verdict(s, 0.25) == expected

    def test_a_worse_median_within_the_bound(self):
        s = _summary("lower", STEADY, [v + 0.2 for v in STEADY])
        assert bench_record.verdict(s, 0.25) == "within_bound"
