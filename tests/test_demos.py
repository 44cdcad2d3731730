"""Every demo script, and the README's library quickstart, runs to
completion against this checkout's sources."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from liuboost.data import serialize_keel
from liuboost.synth import BENCHMARK_CATALOG, generate_catalog_dataset

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(path: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    result = run_script(demo, tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    # the quickstart reads glass5.dat from the working directory, as
    # `bench synth` writes it
    entry = next(e for e in BENCHMARK_CATALOG if e.name == "glass5")
    (tmp_path / "glass5.dat").write_text(
        serialize_keel(generate_catalog_dataset(entry)))
    script = tmp_path / "quickstart.py"
    script.write_text(blocks[0])
    result = run_script(script, tmp_path)
    assert result.returncode == 0, result.stderr
    auroc, aupr = map(float, result.stdout.split())
    assert 0 <= auroc <= 1 and 0 <= aupr <= 1
