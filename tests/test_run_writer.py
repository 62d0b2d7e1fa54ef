"""`run`'s writer: the bytes of the table writer over `iterate`, from runs of
equal passes, with memory that grows with computed passes only."""

import os
import subprocess
import sys
import tempfile
from unittest import mock

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitloop import cli
from splitloop.errors import SplitLoopError
from splitloop.trajectory import Scenario, iterate

SRC = os.path.dirname(os.path.dirname(cli.__file__))
TOPOLOGIES = ["both", "right-half", "left-half"]


def table_writer_bytes(mode, topology, wl1, a1sq, steps, period, switches,
                       fmt):
    """What `run` printed before it wrote from runs: a record per pass from
    `iterate`, a row dict per record and `_write_table` over the rows."""
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
    with tempfile.TemporaryDirectory() as folder:
        out = os.path.join(folder, "table")
        cli._write_table(fmt, out, {
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
        with open(out, "rb") as written:
            return written.read()


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
        result = CliRunner().invoke(cli.main, argv_of(flags))
    try:
        expected = table_writer_bytes(**flags)
    except SplitLoopError as exc:  # the same refusal, and nothing printed
        assert result.exit_code in (1, 2)
        assert result.stderr == f"error: {exc}\n"
        assert result.stdout_bytes == b""
        return
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == expected


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
