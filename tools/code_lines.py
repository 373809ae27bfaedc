"""Count the code lines of Python files.

A code line is a physical line that some token spans, except blank lines,
comments and docstrings; a docstring is the leading string of a module,
class or function.  A string that spans several lines counts each of them.

Usage: python3 tools/code_lines.py [PATH ...]   (default: src/ksmode)

Prints each file's count, largest first, then the total over the paths;
a directory stands for the .py files below it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstrings(tree: ast.AST) -> dict:
    """The end (line, column) of every docstring in ``tree``, keyed by its
    start."""
    ends = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                ends[first.lineno, first.col_offset] = \
                    (first.end_lineno, first.end_col_offset)
    return ends


def count_code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    docstring_end = (0, 0)   # the end of the last docstring begun
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        docstring_end = max(docstring_end, docstrings.get(tok.start, (0, 0)))
        if tok.type not in _NOT_CODE and tok.end > docstring_end:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths) -> list:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src/ksmode"]
    counts = {str(f): count_code_lines(f.read_text()) for f in python_files(paths)}
    for name, n in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{n:7,d}  {name}")
    print(f"{sum(counts.values()):7,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
