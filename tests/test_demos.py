"""Every demo script, and the README's library quickstart, runs to
completion against this checkout's sources under `python -W error`, with
nothing on stderr; every `bench` command the README shows parses."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from liuboost import bench
from liuboost.data import serialize_keel
from liuboost.synth import BENCHMARK_CATALOG, generate_catalog_dataset

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(path: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-W", "error", str(path)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    result = run_script(demo, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


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
    assert result.stderr == ""
    auroc, aupr = map(float, result.stdout.split())
    assert 0 <= auroc <= 1 and 0 <= aupr <= 1


def readme_bench_commands() -> list[list[str]]:
    """The `bench ...` lines of the README's sh blocks, continued lines
    joined, split into argument lists without the program name."""
    readme = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["bench"]:
                commands.append(argv[1:])
    return commands


def test_readme_bench_commands_parse(monkeypatch):
    # each subcommand's handler is replaced, so the real parser checks the
    # flags and the config checks their values, but nothing is run
    seen = []

    def handler(args):
        seen.append(args.command)
        if args.command in ("run", "curves"):
            bench._config_from_args(args, [])
        return 0

    for name in ("run", "wilcoxon", "curves", "synth"):
        monkeypatch.setattr(bench, f"_cmd_{name}", handler)
    commands = readme_bench_commands()
    for argv in commands:
        assert bench.main(argv) == 0, argv
    assert seen == [argv[0] for argv in commands]
    assert set(seen) == {"run", "wilcoxon", "curves", "synth"}
