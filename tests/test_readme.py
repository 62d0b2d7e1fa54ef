"""README's examples, run: the library block prints what its comment shows,
and every command of the command line block exits 0 with output."""

import contextlib
import doctest
import io
import os
import re
import shlex

import pytest
from click.testing import CliRunner

from splitloop.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def blocks(language: str) -> list[str]:
    """The bodies of README's fenced blocks in this language."""
    with open(README) as readme:
        text = readme.read()
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def command_lines() -> list[list[str]]:
    """The argv of each `splitloop` command of the command line examples,
    continuation lines joined."""
    (block,) = [b for b in blocks("sh") if "\nsplitloop " in "\n" + b]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("splitloop ")]


def test_the_library_example_prints_its_comment():
    (block,) = blocks("python")
    lines = block.splitlines()
    code = [line for line in lines if not line.startswith("#")]
    want = "".join(line[2:] + "\n" for line in lines if line.startswith("# "))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile("\n".join(code), README, "exec"), {})
    checker = doctest.OutputChecker()
    assert checker.check_output(want, out.getvalue(), doctest.ELLIPSIS), (
        want, out.getvalue())


def test_the_command_line_block_holds_eight_commands():
    assert [argv[0] for argv in command_lines()] == [
        "run", "run", "run", "paper", "compare", "compare", "sweep", "mc"]


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_each_command_line_example_exits_0_with_output(argv):
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert result.output.strip()
