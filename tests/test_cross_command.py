"""Commands that compute the same thing agree, each read from the bytes it
prints: `mc`'s analytic column is `run`'s, and `compare` and a one-cell
`sweep` stop at the first `run` row within epsilon of balance."""

import csv
import io

from click.testing import CliRunner
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from splitloop.cli import main

TOPOLOGIES = ["both", "right-half", "left-half"]


def printed(*argv):
    result = CliRunner().invoke(main, [str(a) for a in argv])
    assert result.exit_code == 0, result.output
    return result.stdout


def table(*argv):
    """The CSV a command prints, as a list of dicts."""
    return list(csv.DictReader(io.StringIO(printed(*argv))))


def inner_unit(low=0.0):
    return st.floats(min_value=low, max_value=1.0, exclude_min=True,
                     exclude_max=True)


@seed(26)
@settings(max_examples=60, deadline=None)
@given(a1sq=st.sampled_from([0.0, 1e-300, 0.5, 1.0]) | inner_unit(),
       topology=st.sampled_from(TOPOLOGIES), steps=st.integers(1, 60))
def test_mc_analytic_column_is_the_measure_run(a1sq, topology, steps):
    shared = ["--a1sq", repr(a1sq), "--topology", topology, "--steps", steps]
    sampled = table("mc", *shared, "--paths", 3, "--seed", 1)
    run = table("run", "--mode", "measure", *shared)
    assert [r["step"] for r in sampled] == [r["n"] for r in run]
    assert ([r["analytic_w_left"] for r in sampled]
            == [r["w_left"] for r in run])


def first_balanced(rows, eps):
    """The first row whose weights lie strictly within eps of (1/2, 1/2)."""
    for row in rows:
        if max(abs(float(row["w_left"]) - 0.5),
               abs(float(row["w_right"]) - 0.5)) < eps:
            return row
    return None


@seed(26)
@settings(max_examples=100, deadline=None)
@given(wl1=inner_unit(), eps=st.floats(min_value=1e-16, max_value=0.4),
       max_steps=st.integers(1, 200))
def test_compare_and_sweep_stop_at_the_first_balanced_run_row(wl1, eps,
                                                              max_steps):
    run = table("run", "--mode", "unitary", "--wl1", repr(wl1), "--steps",
                max_steps)
    row = first_balanced(run, eps)
    raced = printed("compare", "--wl1", repr(wl1), "--eps", repr(eps),
                    "--max-steps", max_steps).splitlines()[1]
    (cell,) = table("sweep", "--mode", "unitary",
                    "--grid", f"{wl1!r}:{wl1!r}:1", "--eps", repr(eps),
                    "--max-steps", max_steps)
    if row is None:
        final = run[-1]
        distance = max(abs(float(final["w_left"]) - 0.5),
                       abs(float(final["w_right"]) - 0.5))
        assert raced == (f"unitary (fixed splitter): no convergence in "
                         f"{max_steps} steps (final distance {distance:.3e})")
        assert (cell["converged"], cell["steps"]) == ("false", "")
    else:
        assert raced == f"unitary (fixed splitter): {row['n']} steps"
        assert (cell["converged"], cell["steps"]) == ("true", row["n"])
    last = row or run[-1]
    assert (cell["final_w_left"], cell["final_w_right"]) == (
        last["w_left"], last["w_right"])
