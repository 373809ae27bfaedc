"""The code-line counter of tools/ skips exactly blank lines, comments and
docstrings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SNIPPET = '''\
"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        text = """a string
        that is not a docstring"""
        "a later string statement is code"
        return (x +
                math.pi)


async def g():
    r"""Raw docstring."""
    return 1
'''


def load_counter():
    """tools/code_lines.py, imported by path (tools/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_and_skips_blank_comment_and_docstring_lines():
    counter = load_counter()
    # import, class, def f, the two lines of text, the later string, the two
    # lines of the return, async def g and its return
    assert counter.count_code_lines(SNIPPET) == 10


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    counter = load_counter()
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert counter.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["10", "1", "11"]
    assert lines[-1].split()[1] == "total"
