"""Smoke test of tools/src_lines.py: it runs, and its counts add up."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "src_lines.py"


def test_counts_add_up_to_the_line_total():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    header, *rows, total = (line.split() for line in out)
    assert header == ["module", "lines", "code", "docstring", "comment",
                      "blank"]
    modules = sorted((ROOT / "src" / "liuboost").glob("*.py"))
    assert [row[0] for row in rows] == [p.name for p in modules]
    assert total[0] == "total"
    for row, path in zip(rows, modules):
        lines, *kinds = map(int, row[1:])
        # wc -l counts newline characters
        assert lines == path.read_bytes().count(b"\n")
        assert sum(kinds) == lines
    for j in range(1, len(header)):
        assert int(total[j]) == sum(int(row[j]) for row in rows)
