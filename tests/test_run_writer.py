"""The one table writer: the bytes of `run`, `sweep` and `mc` against the
csv.writer and json.dumps table code they used before it, and `run`'s
memory, which grows with computed passes only."""

import csv
import io
import json
import os
import subprocess
import sys
from unittest import mock

from click.testing import CliRunner
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from splitloop import analysis, cli, montecarlo
from splitloop.errors import SplitLoopError
from splitloop.states import InteractionMode, _state_from_left_weight
from splitloop.trajectory import Scenario, iterate

SRC = os.path.dirname(os.path.dirname(cli.__file__))
TOPOLOGIES = ["both", "right-half", "left-half"]


def _csv_cell(value):
    # csv writes None as an empty cell and floats as their repr
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def reference_table(fmt, config, key, rows, summary=None):
    """Rows as CSV (header from the dict keys) or as a JSON document."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row.values()])
        text = buf.getvalue()
    else:
        payload = {"config": config, key: rows}
        if summary is not None:
            payload["summary"] = summary
        text = json.dumps(payload, indent=2) + "\n"
    return text.encode()


def prints_as(argv, reference):
    """Assert that the command argv prints the bytes reference() returns,
    or refuses as reference() does, printing nothing; return the bytes."""
    result = CliRunner().invoke(cli.main, argv)
    try:
        expected = reference()
    except SplitLoopError as exc:
        assert result.exit_code in (1, 2)
        assert result.stderr == f"error: {exc}\n"
        assert result.stdout_bytes == b""
        return b""
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == expected
    return expected


def table_writer_bytes(mode, topology, wl1, a1sq, steps, period, switches,
                       fmt):
    """What `run` printed before it wrote from runs: a record per pass from
    `iterate`, a row dict per record and reference_table over the rows."""
    mode_obj = cli._MODES[mode]
    initial, splitter, wl1_val, a1sq_val = cli._resolve_setup(mode_obj, wl1,
                                                              a1sq)
    schedule = cli._parse_switches(switches)
    scenario = Scenario(mode_obj, cli._TOPOLOGIES[topology], splitter,
                        initial, max_steps=steps, period=period)
    trajectory = iterate(scenario, schedule)
    rows = [{
        "n": r.n,
        "time": r.time,
        "topology": r.topology.value,
        "a": r.amplitudes.a_left if r.amplitudes else None,
        "b": r.amplitudes.b_right if r.amplitudes else None,
        "w_left": r.weights.w_left,
        "w_right": r.weights.w_right,
    } for r in trajectory.records]
    final = trajectory.final
    return reference_table(fmt, {
        "mode": mode,
        "topology": topology,
        "w_left_initial": wl1_val,
        "a1_squared": a1sq_val,
        "steps": steps,
        "period": period,
        "switches": [[s, t.value] for s, t in schedule.switches],
    }, "records", rows, {
        "final_w_left": final.weights.w_left,
        "final_w_right": final.weights.w_right,
        "final_topology": final.topology.value,
    })


unit = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1 - 2 ** -53,
                                  1.0]),
                 st.floats(min_value=0.0, max_value=1.0))


@st.composite
def run_flags(draw):
    """(keyword arguments of table_writer_bytes, chunk rows) of a valid run;
    runs of a few hundred passes reach the float fixed points that make
    runs of equal passes."""
    steps = draw(st.integers(1, 400))
    switch_steps = draw(st.lists(st.integers(1, steps), max_size=4,
                                 unique=True))
    return dict(
        mode=draw(st.sampled_from(["unitary", "measure"])),
        topology=draw(st.sampled_from(TOPOLOGIES)),
        wl1=draw(unit),
        a1sq=draw(st.none() | unit),
        steps=steps,
        period=draw(st.just(1.0) | st.floats(min_value=5e-324,
                                             max_value=1e300)),
        switches=tuple(f"{s}:{draw(st.sampled_from(TOPOLOGIES))}"
                       for s in sorted(switch_steps)),
        fmt=draw(st.sampled_from(["csv", "json"])),
    ), draw(st.sampled_from([1, 2, 3, 7, cli._CHUNK_ROWS]))


def argv_of(flags):
    argv = ["run", "--mode", flags["mode"], "--topology", flags["topology"],
            "--wl1", repr(flags["wl1"]), "--steps", str(flags["steps"]),
            "--period", repr(flags["period"]), "--format", flags["fmt"]]
    if flags["a1sq"] is not None:
        argv += ["--a1sq", repr(flags["a1sq"])]
    for switch in flags["switches"]:
        argv += ["--switch", switch]
    return argv


@settings(max_examples=300, deadline=None)
@given(run_flags())
# after a few passes the coherent both-connected run sits on a float fixed
# point, so most of its rows come from one run, spread over chunks of 3
@example((dict(mode="unitary", topology="both", wl1=0.3, a1sq=None, steps=20,
               period=0.25, switches=("9:right-half",), fmt="json"), 3))
def test_run_prints_the_table_writer_bytes_over_iterate(case):
    flags, chunk_rows = case
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        prints_as(argv_of(flags), lambda: table_writer_bytes(**flags))


def sweep_bytes(mode, topology, grid, eps, max_steps, a1sq, fmt):
    """What `sweep` printed before the one table writer: a row dict per
    cell and reference_table over the rows."""
    mode_obj = cli._MODES[mode]
    grid_values = cli._parse_grid(grid)
    if mode_obj is InteractionMode.MOVABLE_SPLITTER and a1sq is None:
        raise SplitLoopError("need --a1sq for measure mode")
    splitter = cli._splitter(a1sq)
    result = analysis.sweep_initial_conditions(
        mode_obj, cli._TOPOLOGIES[topology], grid_values, eps, max_steps,
        splitter)
    rows = [{"w_initial": c.w_initial, "converged": c.converged,
             "steps": c.steps, "final_w_left": c.final_w_left,
             "final_w_right": c.final_w_right} for c in result.cells]
    return reference_table(fmt, {
        "mode": mode,
        "topology": topology,
        "grid": list(grid_values),
        "epsilon": eps,
        "max_steps": max_steps,
        "a1_squared": a1sq,
        "target_w_left": result.target.w_left,
        "target_w_right": result.target.w_right,
    }, "cells", rows)


def sweep_argv(mode, topology, grid, eps, max_steps, a1sq, fmt):
    argv = ["sweep", "--mode", mode, "--topology", topology, "--grid", grid,
            "--eps", repr(eps), "--max-steps", str(max_steps),
            "--format", fmt]
    return argv if a1sq is None else argv + ["--a1sq", repr(a1sq)]


@st.composite
def sweep_flags(draw):
    """Keyword arguments of sweep_bytes: a few cells, some of them refused
    or left unconverged by a small --max-steps."""
    start = draw(unit)
    step = draw(st.floats(min_value=1e-3, max_value=0.25))
    stop = start + draw(st.integers(0, 3)) * step
    return dict(mode=draw(st.sampled_from(["unitary", "measure"])),
                topology=draw(st.sampled_from(TOPOLOGIES)),
                grid=f"{start!r}:{stop!r}:{step!r}",
                eps=draw(st.sampled_from([1e-3, 0.3]) | st.floats(1e-12, 0.4)),
                max_steps=draw(st.integers(1, 60)),
                a1sq=draw(st.none() | unit),
                fmt=draw(st.sampled_from(["csv", "json"])))


UNCONVERGED = dict(mode="unitary", topology="right-half",
                   grid="0.1:0.9:0.2", eps=1e-3, max_steps=3, a1sq=None)


@seed(27)
@settings(max_examples=100, deadline=None)
@given(sweep_flags())
@example(dict(UNCONVERGED, fmt="csv"))
@example(dict(UNCONVERGED, fmt="json"))
def test_sweep_prints_the_reference_bytes(flags):
    prints_as(sweep_argv(**flags), lambda: sweep_bytes(**flags))


def mc_bytes(topology, a1sq, steps, paths, seed, sigma, fmt):
    """What `mc` printed before the one table writer: a row dict per step
    and reference_table over the rows."""
    mode = InteractionMode.MOVABLE_SPLITTER
    splitter = cli._splitter(a1sq)
    topo_obj = cli._TOPOLOGIES[topology]
    estimate = montecarlo.ensemble_frequencies(splitter, topo_obj, steps,
                                               paths, seed)
    analytic = iterate(Scenario(mode, topo_obj, splitter,
                                _state_from_left_weight(mode, a1sq),
                                max_steps=steps))
    report = montecarlo.agreement_report(
        estimate, [r.weights for r in analytic.records], sigma_bound=sigma)
    rows = [{"step": r.step, "empirical_w_left": r.empirical,
             "analytic_w_left": r.analytic, "stderr": r.stderr, "z": r.z,
             "passed": r.passed} for r in report]
    return reference_table(fmt, {
        "topology": topology,
        "a1_squared": a1sq,
        "steps": steps,
        "n_paths": paths,
        "base_seed": seed,
        "generator": montecarlo.GENERATOR_NAME,
        "sigma_bound": sigma,
    }, "steps", rows, {"all_within_sigma": all(r.passed for r in report)})


def mc_argv(topology, a1sq, steps, paths, seed, sigma, fmt):
    return ["mc", "--topology", topology, "--a1sq", repr(a1sq),
            "--steps", str(steps), "--paths", str(paths), "--seed", str(seed),
            "--sigma", repr(sigma), "--format", fmt]


INFINITE_Z = dict(topology="both", a1sq=0.9, steps=3, paths=2, seed=1,
                  sigma=4.0, fmt="json")


@seed(27)
@settings(max_examples=60, deadline=None)
@given(topology=st.sampled_from(TOPOLOGIES), a1sq=unit,
       steps=st.integers(1, 60), paths=st.integers(1, 40),
       seed=st.integers(0, 2 ** 64), sigma=st.sampled_from([4.0, 0.5, 1e-3]),
       fmt=st.sampled_from(["csv", "json"]))
@example(**INFINITE_Z)
@example(**dict(INFINITE_Z, fmt="csv"))
def test_mc_prints_the_reference_bytes(**flags):
    prints_as(mc_argv(**flags), lambda: mc_bytes(**flags))


def test_unconverged_sweep_cells_and_infinite_z_print_as_before():
    for fmt, cell in (("csv", b",false,,"), ("json", b'"steps": null')):
        flags = dict(UNCONVERGED, fmt=fmt)
        assert cell in prints_as(sweep_argv(**flags),
                                 lambda: sweep_bytes(**flags))
    printed = prints_as(mc_argv(**INFINITE_Z), lambda: mc_bytes(**INFINITE_Z))
    assert b'"z": Infinity' in printed


# A child process whose address space is capped at 1 GiB, as in
# test_cli's grid-cap test. Before `run` wrote from runs it held 536-1673 B
# a pass, about 1.1 GB resident for the 2000000-pass run here.
CAPPED = ("import resource, sys; "
          "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
          "from splitloop.cli import main; sys.exit(main())")


def capped_run(*flags):
    """(exit code, stderr, lines printed, the last line) of `run` with flags
    in the capped child, its stdout read a block at a time."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    with subprocess.Popen([sys.executable, "-c", CAPPED, "run", *flags],
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        lines, tail = 0, b""
        while block := proc.stdout.read(1 << 20):
            lines += block.count(b"\n")
            tail = (tail + block)[-300:]
        stderr = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    return code, stderr, lines, tail.splitlines()[-1].decode()


def test_two_million_coherent_passes_fit_under_one_gib_in_csv():
    code, stderr, lines, last = capped_run(
        "--mode", "unitary", "--wl1", "0.3", "--steps", "2000000")
    assert code == 0 and stderr == "", stderr[-500:]
    assert lines == 1 + 2_000_000
    assert last.startswith("2000000,2000000.0,both,0.7071067811865475,")


def test_two_million_coherent_passes_fit_under_one_gib_in_json():
    code, stderr, lines, last = capped_run(
        "--mode", "unitary", "--wl1", "0.3", "--steps", "2000000",
        "--format", "json")
    assert code == 0 and stderr == "", stderr[-500:]
    # nine lines a record, 18 around them: config, brackets and summary
    assert lines == 9 * 2_000_000 + 18
    assert last == "}"


def test_a_million_computed_passes_fit_under_one_gib():
    # at a1^2 = 0.99999 the right-half decay reaches no float fixed point
    # in a million passes, so every pass is computed and held
    code, stderr, lines, last = capped_run(
        "--mode", "measure", "--topology", "right-half", "--a1sq", "0.99999",
        "--wl1", "0.5", "--steps", "1000000")
    assert code == 0 and stderr == "", stderr[-500:]
    assert lines == 1 + 1_000_000
    assert last.startswith("1000000,1000000.0,right-half,,,")
