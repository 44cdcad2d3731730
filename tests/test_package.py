"""The package namespace: its exports, and which modules an import loads."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liuboost

ROOT = Path(__file__).resolve().parents[1]

# every export, by the module that defines it, in the order of __all__
EXPORTS = {
    "data": ["Dataset", "FoldPlan", "KeelFormatError", "imbalance_ratio",
             "parse_keel", "serialize_keel", "stratified_folds"],
    "ensemble": ["BoostModel", "classify", "compute_alpha", "decision_score",
                 "train_liuboost", "train_rusboost"],
    "locality": ["CostVector", "assign_weights"],
    "metrics": ["aupr", "auroc", "pr_curve", "roc_curve"],
    "resample": ["random_undersample"],
    "stats": ["RankTestResult", "wilcoxon_signed_rank"],
    "tree": ["DecisionTree", "fit_tree"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


@pytest.mark.parametrize("code, claim", [
    # scipy.stats costs about as much to import as the rest of the package
    pytest.param("import liuboost, liuboost.bench",
                 "'scipy.stats' not in sys.modules",
                 id="bench-leaves-out-scipy-stats"),
    # scipy.spatial costs more than numpy and the package together, and
    # only the k-NN of the locality costs needs it
    pytest.param("import liuboost, liuboost.data, liuboost.synth, "
                 "liuboost.tree, liuboost.metrics, liuboost.stats, "
                 "liuboost.resample; from liuboost import parse_keel, "
                 "auroc, fit_tree, wilcoxon_signed_rank",
                 "not any(m.split('.')[0] == 'scipy' for m in sys.modules)",
                 id="numpy-only-modules-leave-out-scipy"),
    pytest.param("import liuboost; liuboost.assign_weights",
                 "'scipy.spatial' in sys.modules",
                 id="assign-weights-loads-scipy-spatial"),
    pytest.param("import liuboost",
                 f"all(getattr(liuboost, m) is sys.modules['liuboost.' + m] "
                 f"for m in {list(EXPORTS)}) and liuboost.__version__",
                 id="submodules-resolve-after-a-plain-import"),
])
def test_fresh_process_import(code, claim):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; {code}; print(bool({claim}))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"


def test_all_lists_every_export_in_order():
    assert liuboost.__all__ == NAMES
    assert set(NAMES) <= set(dir(liuboost))


def test_each_export_is_its_module_object():
    for module, names in EXPORTS.items():
        defined = importlib.import_module(f"liuboost.{module}")
        for name in names:
            assert getattr(liuboost, name) is getattr(defined, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fit_forest'"):
        liuboost.fit_forest
    assert not hasattr(liuboost, "synth_catalog")
