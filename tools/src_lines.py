"""Line counts of each module of src/liuboost, by kind.

    python3 tools/src_lines.py

Prints one row per module, then a total row: the module's lines, counted
as ``wc -l`` counts them (newline characters), and how many of them are
code, docstring, comment and blank lines, which add up to its lines.
A line is a docstring line when it lies within a docstring (of the
module, a class or a function, as ``ast.get_docstring`` finds them);
otherwise a code line when a token other than a comment lies on it (a
line of a string that spans lines, or of code with a trailing comment,
is code); otherwise a comment line when it holds a comment, and a blank
line when it holds only whitespace.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
# tokens that lie on a line without making it a line of code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based numbers of the lines within a docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> dict[str, int]:
    """{"lines": n} and the count of each kind of KINDS in source."""
    doc = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    n = source.count("\n")
    for number, line in enumerate(source.split("\n")[:n], start=1):
        if number in doc:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif number in comment:
            counts["comment"] += 1
        elif line.strip():
            counts["code"] += 1  # a lone line continuation
        else:
            counts["blank"] += 1
    return {"lines": n, **counts}


def main() -> int:
    columns = ("lines",) + KINDS
    print(f"{'module':<14}" + "".join(f"{c:>10}" for c in columns))
    total = dict.fromkeys(columns, 0)
    for path in sorted((ROOT / "src" / "liuboost").glob("*.py")):
        counts = count_lines(path.read_text())
        print(f"{path.name:<14}" + "".join(f"{counts[c]:>10}"
                                           for c in columns))
        for c in columns:
            total[c] += counts[c]
    print(f"{'total':<14}" + "".join(f"{total[c]:>10}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
