"""README's examples, run: the library block prints what its comment shows,
and every command of the command line block exits 0 with output. Its
measured dynamics notes, the untied race of its claims table, its
documented limits and its flag ranges are read from README's own sentences
and checked against the engine and the command line, so an edit that
drifts from either fails."""

import contextlib
import doctest
import io
import os
import re
import shlex

import pytest
from click.testing import CliRunner

from splitloop import (InteractionMode, Scenario, Topology,
                       amplitudes_from_left_weight, analysis, cli, iterate)
from splitloop.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


NUMBER_WORDS = {"five": 5, "eleven": 11}


def read() -> str:
    with open(README) as readme:
        return readme.read()


def blocks(language: str) -> list[str]:
    """The bodies of README's fenced blocks in this language."""
    return re.findall(rf"^```{language}\n(.*?)^```$", read(), re.M | re.S)


def sentence(pattern: str) -> tuple[str, ...]:
    """The groups of the one match of pattern in README's text, its lines
    joined by single spaces."""
    (match,) = re.findall(pattern, " ".join(read().split()))
    return match if isinstance(match, tuple) else (match,)


def shown(value: float, quoted: str) -> bool:
    """Whether value, rounded to the significant digits of README's quoted
    number, reads as that number."""
    digits = len(quoted.split("e")[0].replace(".", "").lstrip("0")) - 1
    return float(f"{value:.{digits}e}") == float(quoted)


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


def test_the_quadratic_slope_note_is_the_fitted_slope():
    (slope,) = sentence(r"slope of successive distances is (\d+\.\d+)\.")
    assert shown(analysis.convergence_order(), slope)


def test_the_coherent_counts_note_is_the_engines():
    w1, eps, steps, looser, same = sentence(
        r"From left weight ([\d.]+) the system is within (\S+) of balance in "
        r"(\d+) passes, and within (\S+) in the same (\d+)\.")
    assert steps == same
    for epsilon in (eps, looser):
        result = analysis.compare_modes(float(w1), float(epsilon))
        assert result.unitary_steps == int(steps)


def test_the_measuring_counts_note_is_the_engines():
    w1, *races = sentence(
        r"The same ([\d.]+) start needs (\d+) passes to come within (\S+), "
        r"([\d.]+) times slower \(`compare_modes\(\S+, (\S+)\)`\), and "
        r"(\d+) to come within (\S+), ([\d.]+) times slower "
        r"\(`compare_modes\(\S+, (\S+)\)`\)\.")
    for steps, eps, ratio, called in (races[:4], races[4:]):
        assert called == eps
        result = analysis.compare_modes(float(w1), float(eps))
        assert result.measurement_steps == int(steps)
        assert shown(result.ratio, ratio)


def test_the_drain_note_is_the_coherent_right_half_run():
    weight, after, zero_at = sentence(
        r"From a balanced start the left weight is (\S+) after (\w+) passes "
        r"and underflows to exactly zero at pass (\w+)\.")
    series = iterate(Scenario(
        InteractionMode.FIXED_SPLITTER, Topology.RIGHT_HALF_CONNECTED, None,
        amplitudes_from_left_weight(0.5), max_steps=20)).w_left_series()
    assert shown(series[NUMBER_WORDS[after] - 1], weight)
    assert series.index(0.0) + 1 == NUMBER_WORDS[zero_at]


def test_the_claims_tables_untied_race_is_the_commands_output():
    wl1, a1sq, coherent, measuring, ratio = sentence(
        r"`compare --wl1 ([\d.]+) --a1sq ([\d.]+)` takes (\d+) coherent passes "
        r"against (\d+), ratio ([\d.]+)\.")
    result = CliRunner().invoke(main, ["compare", "--wl1", wl1, "--a1sq", a1sq])
    assert result.exit_code == 0, result.output
    assert f"unitary (fixed splitter): {coherent} steps" in result.output
    assert f"measurement (movable splitter): {measuring} steps" in (
        result.output)
    assert f"ratio measurement / unitary: {ratio}\n" in result.output


def test_the_documented_limits_are_the_command_lines():
    (cells,) = sentence(r"at most (\d+) cells \(`MAX_GRID_CELLS` in "
                        r"`splitloop\.cli`\)")
    assert int(cells) == cli.MAX_GRID_CELLS
    codes = sentence(r"Exit codes: (\d) success, (\d) numeric failure inside "
                     r"the engine, (\d) bad configuration, (\d) reference "
                     r"mismatch from `paper`\.")
    assert tuple(map(int, codes)) == (0, cli.EXIT_NUMERIC, cli.EXIT_CONFIG,
                                      cli.EXIT_REFERENCE)


# A valid command line of each command that takes a flag README bounds; a
# check changes one flag of it.
VALID = {
    "run": {"--mode": "measure", "--wl1": "0.5", "--a1sq": "0.5"},
    "compare": {"--wl1": "0.5"},
    "sweep": {"--mode": "measure", "--a1sq": "0.5"},
    "mc": {"--a1sq": "0.5", "--paths": "10", "--seed": "1"},
}


def taking(*flags: str) -> list[str]:
    """The commands that take every one of these flags."""
    return [name for name, command in main.commands.items()
            if set(flags) <= {o for param in command.params
                              for o in param.opts}]


def invoke(command: str, changes: dict[str, str]):
    argv = [command]
    for flag, value in {**VALID[command], **changes}.items():
        argv += [flag, value]
    return CliRunner().invoke(main, argv)


def refused(command: str, changes: dict[str, str]) -> str:
    """The one `error:` line with which the changed command line exits 2."""
    result = invoke(command, changes)
    assert result.exit_code == 2, (command, changes, result.output)
    (line,) = result.output.splitlines()
    assert line.startswith("error: "), (command, changes, line)
    return line


def test_the_numeric_flags_documented_finite_are_refused_otherwise():
    period, steps, times, *positive = sentence(
        r"Numeric flags must be finite: `(--\w+)` must be positive and "
        r"finite, and so must the last record's time, `(--\w+)` times "
        r"`(--\w+)`; `(--\w+)` and `(--\w+)` must be finite and positive\.")
    assert times == period
    for flag in (period, *positive):
        assert taking(flag), flag
        for command in taking(flag):
            for value in ("0", "-1", "inf"):
                refused(command, {flag: value})
    assert taking(steps, period)
    for command in taking(steps, period):
        refused(command, {steps: "3", period: "1e308"})


def test_an_out_of_range_weight_or_reflectance_names_its_flag():
    *flags, example, bad, low, high = sentence(
        r"An out-of-range `(--\w+)` or `(--\w+)` names its flag in every "
        r"command, as in `(error: --\w+: \w+ out of range: (\S+) not in "
        r"\[(\d+), (\d+)\])`\.")
    named = example.split(":")[1].strip()
    assert named in flags
    for flag in flags:
        value = bad if flag == named else "1.5"
        assert taking(flag), flag
        for command in taking(flag):
            line = refused(command, {flag: value})
            assert line.startswith(f"error: {flag}: "), line
            assert line == example or flag != named
        for end in (low, high):  # the range's ends are in it
            assert invoke("run", {flag: end}).exit_code == 0, (flag, end)
