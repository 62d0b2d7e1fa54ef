"""`tools/code_lines.py` counts code lines without docstrings, comments or
blank lines."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                    "code_lines.py")
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''\
"""A module docstring
over two lines."""

import math  # a comment


class Pair:
    """A class docstring."""

    size = 2


def norm(x, y):
    """A function docstring."""
    # a comment line
    text = """a string
that is not a docstring"""
    return math.hypot(
        x, y), text
'''


def test_counts_code_lines_of_a_snippet():
    # import, class, size, def, the two lines of text and of the return
    assert code_lines.code_lines(SNIPPET) == 8


def test_counts_the_package(capsys):
    assert code_lines.main([]) == 0
    *modules, total = capsys.readouterr().out.splitlines()
    assert total.endswith("  total")
    assert int(total.split()[0]) == sum(int(m.split()[0]) for m in modules)
    package = os.path.join(os.path.dirname(TOOL), os.pardir, "src",
                           "splitloop")
    assert {m.split()[1] for m in modules} == {
        name for name in os.listdir(package) if name.endswith(".py")}
