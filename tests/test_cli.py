"""Command line contract: formats, flag inference, exit codes, determinism."""

import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from splitloop import cli, maps, montecarlo
from splitloop.cli import main
from splitloop.errors import SplitLoopError


@pytest.fixture
def runner():
    return CliRunner()


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestRun:
    def test_csv_layout(self, runner):
        result = runner.invoke(main, ["run", "--mode", "unitary",
                                      "--wl1", "0.9", "--steps", "5"])
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        assert rows[0] == ["n", "time", "topology", "a", "b",
                           "w_left", "w_right"]
        assert len(rows) == 6
        assert rows[1][0] == "1"
        assert float(rows[1][5]) == pytest.approx(0.9, abs=1e-15)
        assert float(rows[5][5]) == pytest.approx(0.5, abs=1e-3)

    def test_measure_mode_leaves_amplitude_cells_empty(self, runner):
        result = runner.invoke(main, ["run", "--mode", "measure",
                                      "--a1sq", "0.9", "--steps", "3"])
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        for row in rows[1:]:
            assert row[3] == "" and row[4] == ""
        assert float(rows[1][5]) == 0.9
        assert float(rows[2][5]) == pytest.approx(0.82, abs=1e-14)

    def test_floats_are_reprs_that_round_trip(self, runner):
        result = runner.invoke(main, ["run", "--mode", "unitary",
                                      "--wl1", "0.9", "--steps", "3"])
        rows = parse_csv(result.output)
        a = float(rows[2][3])
        b = float(rows[2][4])
        assert repr(a) == rows[2][3]
        assert a * a + b * b == pytest.approx(1.0, abs=1e-12)

    def test_json_layout(self, runner):
        result = runner.invoke(main, ["run", "--mode", "unitary",
                                      "--wl1", "0.9", "--steps", "4",
                                      "--switch", "3:right-half",
                                      "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["config"]["mode"] == "unitary"
        assert payload["config"]["switches"] == [[3, "right-half"]]
        assert [r["n"] for r in payload["records"]] == [1, 2, 3, 4]
        assert payload["records"][2]["topology"] == "right-half"
        final = payload["records"][-1]
        assert payload["summary"]["final_w_left"] == final["w_left"]

    def test_json_measure_amplitudes_are_null(self, runner):
        result = runner.invoke(main, ["run", "--mode", "measure",
                                      "--wl1", "0.7", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["records"][0]["a"] is None

    def test_tied_splitter_inference(self, runner):
        result = runner.invoke(main, ["run", "--mode", "unitary",
                                      "--wl1", "0.9", "--steps", "2",
                                      "--format", "json"])
        payload = json.loads(result.output)
        assert payload["config"]["a1_squared"] == 0.9

    def test_period_scales_the_time_column(self, runner):
        result = runner.invoke(main, ["run", "--mode", "unitary",
                                      "--wl1", "0.9", "--steps", "2",
                                      "--period", "0.5"])
        rows = parse_csv(result.output)
        assert [row[1] for row in rows[1:]] == ["0.5", "1.0"]

    @pytest.mark.parametrize("period", ["inf", "nan", "-inf"])
    def test_non_finite_period_rejected(self, runner, period):
        result = runner.invoke(main, ["run", "--mode", "unitary",
                                      "--wl1", "0.9", "--period", period])
        assert result.exit_code == 2
        assert "period must be positive and finite" in result.stderr

    def test_period_whose_last_time_overflows_rejected(self, runner):
        # the last record's time was inf, printed as JSON's invalid Infinity
        result = runner.invoke(main, ["run", "--mode", "measure",
                                      "--wl1", "0.5", "--period", "1e308",
                                      "--steps", "3", "--format", "json"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("error: max_steps * period overflows: "
                                 "3 * 1e+308\n")

    def test_out_file_matches_stdout(self, runner, tmp_path):
        args = ["run", "--mode", "unitary", "--wl1", "0.37", "--steps", "9"]
        printed = runner.invoke(main, args)
        target = tmp_path / "run.csv"
        written = runner.invoke(main, args + ["--out", str(target)])
        assert written.exit_code == 0
        assert target.read_text() == printed.output

    def test_missing_initial_condition(self, runner):
        # its exact stderr is pinned in CONFIG_ERRORS below
        result = runner.invoke(main, ["run", "--mode", "unitary"])
        assert result.exit_code == 2

    def test_out_of_range_flag_named_in_error(self, runner):
        result = runner.invoke(main, ["run", "--mode", "unitary",
                                      "--wl1", "1.5"])
        assert result.exit_code == 2
        assert "--wl1" in result.stderr

    # every command that takes --wl1 or --a1sq names the flag the same way
    @pytest.mark.parametrize("argv,message", [
        (["run", "--mode", "unitary", "--wl1", "nan"],
         "--wl1: w_left_initial out of range: nan not in [0, 1]"),
        (["run", "--mode", "measure", "--a1sq", "1.5"],
         "--a1sq: a1_squared out of range: 1.5 not in [0, 1]"),
        (["run", "--mode", "unitary", "--wl1", "0.5", "--a1sq", "7"],
         "--a1sq: a1_squared out of range: 7.0 not in [0, 1]"),
        (["compare", "--wl1", "1.5"],
         "--wl1: w_left_initial out of range: 1.5 not in [0, 1]"),
        (["compare", "--wl1", "0.5", "--a1sq", "7"],
         "--a1sq: a1_squared out of range: 7.0 not in [0, 1]"),
        (["sweep", "--mode", "unitary", "--a1sq", "7"],
         "--a1sq: a1_squared out of range: 7.0 not in [0, 1]"),
        (["sweep", "--mode", "measure", "--a1sq", "-0.5"],
         "--a1sq: a1_squared out of range: -0.5 not in [0, 1]"),
        (["mc", "--a1sq", "1.5", "--paths", "10", "--seed", "1"],
         "--a1sq: a1_squared out of range: 1.5 not in [0, 1]"),
    ], ids=["wl1-nan", "a1sq-1.5", "run-a1sq-7", "compare-wl1-1.5",
            "compare-a1sq-7", "sweep-unitary-a1sq-7",
            "sweep-measure-a1sq-neg", "mc-a1sq-1.5"])
    def test_out_of_range_flag_message(self, runner, argv, message):
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("switch", ["5", "x:both", "5:diagonal"])
    def test_malformed_switch(self, runner, switch):
        result = runner.invoke(main, ["run", "--mode", "unitary",
                                      "--wl1", "0.9", "--switch", switch])
        assert result.exit_code == 2

    def test_switch_past_the_last_step(self, runner):
        result = runner.invoke(main, ["run", "--mode", "unitary",
                                      "--wl1", "0.9", "--steps", "4",
                                      "--switch", "9:both"])
        assert result.exit_code == 2
        assert "exceeds" in result.stderr


class TestPaper:
    def test_reproduces_and_exits_zero(self, runner):
        result = runner.invoke(main, ["paper"])
        assert result.exit_code == 0
        for printed in ("0.735", "0.562", "0.504", "0.500", "0.84", "0.65",
                        "0.524", "0.5006", "0.820", "0.7552", "0.703",
                        "0.661"):
            assert printed in result.output
        assert "all reference sequences reproduced" in result.output

    def test_json_report(self, runner):
        result = runner.invoke(main, ["paper", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["all_within_tolerance"] is True
        assert len(payload["sequences"]) == 3
        assert payload["sequences"][2]["note"]


class TestCompare:
    def test_canonical_numbers(self, runner):
        result = runner.invoke(main, ["compare", "--wl1", "0.9"])
        assert result.exit_code == 0
        assert "unitary (fixed splitter): 5 steps" in result.output
        assert "measurement (movable splitter): 28 steps" in result.output
        assert "ratio measurement / unitary: 5.6" in result.output

    def test_untied_race(self, runner):
        result = runner.invoke(main, ["compare", "--wl1", "0.9",
                                      "--a1sq", "0.5"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "initial left weight 0.9, epsilon 0.001",
            "unitary (fixed splitter): 5 steps",
            "measurement (movable splitter): 2 steps",
            "ratio measurement / unitary: 0.4",
        ]

    def test_degenerate_initial(self, runner):
        result = runner.invoke(main, ["compare", "--wl1", "1.0"])
        assert result.exit_code == 2

    def test_unconverged_report(self, runner):
        result = runner.invoke(main, ["compare", "--wl1", "0.9",
                                      "--eps", "1e-9", "--max-steps", "4"])
        assert result.exit_code == 0
        assert "no convergence in 4 steps" in result.output

    def test_infinite_epsilon_rejected(self, runner):
        result = runner.invoke(main, ["compare", "--wl1", "0.9",
                                      "--eps", "inf"])
        assert result.exit_code == 2
        assert result.stderr == ("error: epsilon must be positive and "
                                 "finite, got inf\n")


class TestSweep:
    def test_default_grid_has_nineteen_cells(self, runner):
        result = runner.invoke(main, ["sweep", "--mode", "unitary"])
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        assert len(rows) == 20
        assert rows[0][0] == "w_initial"
        assert all(row[1] == "true" for row in rows[1:])

    def test_grid_endpoints_inclusive(self, runner):
        result = runner.invoke(main, ["sweep", "--mode", "unitary",
                                      "--grid", "0.2:0.8:0.3"])
        rows = parse_csv(result.output)
        assert [float(row[0]) for row in rows[1:]] == [0.2, 0.5, 0.8]

    def test_measure_sweep_requires_a1sq(self, runner):
        result = runner.invoke(main, ["sweep", "--mode", "measure"])
        assert result.exit_code == 2
        assert result.stdout == ""  # stderr pinned in CONFIG_ERRORS
        result = runner.invoke(main, ["sweep", "--mode", "measure",
                                      "--a1sq", "0.7"])
        assert result.exit_code == 0

    def test_infinite_epsilon_rejected(self, runner):
        result = runner.invoke(main, ["sweep", "--mode", "unitary",
                                      "--eps", "inf"])
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_json_carries_the_target(self, runner):
        result = runner.invoke(main, ["sweep", "--mode", "measure",
                                      "--topology", "right-half",
                                      "--a1sq", "0.7", "--grid",
                                      "0.2:0.4:0.1", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["config"]["target_w_right"] == 1.0
        assert len(payload["cells"]) == 3

    @pytest.mark.parametrize("grid", ["0.5", "a:b:c", "0.5:0.1:0.1",
                                      "0.1:0.9:0", "0:0.9:0.1"])
    def test_bad_grids(self, runner, grid):
        result = runner.invoke(main, ["sweep", "--mode", "unitary",
                                      "--grid", grid])
        assert result.exit_code == 2

    @pytest.mark.parametrize("grid", ["0.1:0.9:1e-9", "0.1:0.9:inf",
                                      "0.1:inf:0.1", "nan:0.9:0.1"])
    def test_oversized_or_non_finite_grid_exits_2(self, grid):
        # A parser without the guard builds cells until memory runs out on
        # these grids, so the command runs in a child process whose address
        # space is capped: there it fails fast instead of exhausting the
        # machine.
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "from splitloop.cli import main; sys.exit(main())")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", code, "sweep", "--mode", "unitary",
             "--grid", grid], env=env, capture_output=True, text=True,
            timeout=120, check=False)
        assert proc.returncode == 2, proc.stderr[-500:]
        assert proc.stderr.startswith(f"error: bad --grid {grid!r}")
        assert proc.stdout == ""

    def test_grid_cap_boundary(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_CELLS", 8)
        refused = runner.invoke(main, ["sweep", "--mode", "unitary",
                                       "--grid", "0.1:0.9:0.1"])
        assert refused.exit_code == 2
        assert "more than 8 cells" in refused.stderr
        accepted = runner.invoke(main, ["sweep", "--mode", "unitary",
                                        "--grid", "0.1:0.8:0.1"])
        assert accepted.exit_code == 0
        assert len(parse_csv(accepted.output)) == 1 + 8


class TestMonteCarlo:
    def test_csv_report(self, runner):
        result = runner.invoke(main, ["mc", "--a1sq", "0.9", "--steps", "5",
                                      "--paths", "400", "--seed", "11"])
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        assert rows[0] == ["step", "empirical_w_left", "analytic_w_left",
                           "stderr", "z", "passed"]
        assert [row[0] for row in rows[1:]] == ["1", "2", "3", "4", "5"]
        assert float(rows[1][1]) == 0.9125  # frozen stream
        assert all(row[5] == "true" for row in rows[1:])

    def test_seeded_runs_are_byte_identical(self, runner, tmp_path):
        args = ["mc", "--a1sq", "0.9", "--steps", "6", "--paths", "2000",
                "--seed", "9"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        other = tmp_path / "c.csv"
        assert runner.invoke(main, args + ["--out", str(first)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(second)]).exit_code == 0
        assert first.read_bytes() == second.read_bytes()
        # nearby base seeds share most per-path streams, so move far away
        # to get a disjoint ensemble
        changed = args[:-1] + ["5000", "--out", str(other)]
        assert runner.invoke(main, changed).exit_code == 0
        assert first.read_bytes() != other.read_bytes()

    def test_unitary_mode_is_refused(self, runner):
        result = runner.invoke(main, ["mc", "--mode", "unitary",
                                      "--a1sq", "0.9", "--paths", "10",
                                      "--seed", "1"])
        assert result.exit_code == 2
        assert "unsupported mode for sampling" in result.stderr

    def test_json_names_the_generator(self, runner):
        result = runner.invoke(main, ["mc", "--a1sq", "0.9", "--steps", "3",
                                      "--paths", "50", "--seed", "4",
                                      "--format", "json"])
        payload = json.loads(result.output)
        assert payload["config"]["generator"] == "philox"
        assert payload["config"]["base_seed"] == 4
        assert payload["summary"]["all_within_sigma"] is True

    @pytest.mark.parametrize("sigma", ["nan", "inf", "0", "-1"])
    def test_sigma_must_be_finite_and_positive(self, runner, sigma):
        result = runner.invoke(main, ["mc", "--a1sq", "0.9", "--paths", "10",
                                      "--seed", "1", "--sigma", sigma])
        assert result.exit_code == 2
        assert "sigma_bound must be positive and finite" in result.stderr

    def test_sigma_checked_before_sampling(self, runner, monkeypatch):
        def refuse(*args):
            raise AssertionError("sampled before --sigma was checked")

        monkeypatch.setattr(montecarlo, "ensemble_frequencies", refuse)
        result = runner.invoke(main, ["mc", "--a1sq", "0.5", "--paths",
                                      "100000", "--seed", "1", "--sigma",
                                      "nan"])
        assert result.exit_code == 2
        assert result.stderr == ("error: sigma_bound must be positive and "
                                 "finite, got nan\n")

    def test_seeds_past_the_key_range_exit_2(self, runner):
        top = str(2 ** 128 - 1)  # the largest Philox key: one path fits
        ok = runner.invoke(main, ["mc", "--a1sq", "0.5", "--paths", "1",
                                  "--seed", top, "--steps", "3"])
        assert ok.exit_code == 0
        result = runner.invoke(main, ["mc", "--a1sq", "0.5", "--paths", "2",
                                      "--seed", top])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr == (
            f"error: seeds {top}..{2 ** 128} exceed the Philox key range "
            "0..2**128 - 1\n")
        assert result.stdout == ""

    def test_draw_arguments_are_checked_before_sigma(self, runner):
        result = runner.invoke(main, ["mc", "--a1sq", "0.9", "--paths", "0",
                                      "--seed", "1", "--sigma", "nan"])
        assert result.exit_code == 2
        assert result.stderr == ("error: n_paths must be an integer >= 1, "
                                 "got 0\n")

    def test_zero_paths_rejected(self, runner):
        result = runner.invoke(main, ["mc", "--a1sq", "0.9", "--paths", "0",
                                      "--seed", "1"])
        assert result.exit_code == 2


class TestExitCodes:
    def test_numeric_failure_exits_1(self, runner, monkeypatch):
        kernel = maps.measure_both_kernel

        def corrupted(w_left, w_right, a1sq, b1sq):
            wl, wr = kernel(w_left, w_right, a1sq, b1sq)
            return wl - 1e-9, wr + 1e-9

        monkeypatch.setattr(maps, "measure_both_kernel", corrupted)
        result = runner.invoke(main, ["run", "--mode", "measure",
                                      "--wl1", "0.9", "--steps", "3"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr.startswith(
            "error: direct and transition-matrix forms disagree")
        assert len(result.stderr.splitlines()) == 1
        assert result.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["run", "--mode", "unitary", "--wl1", "0.9"],
        ["sweep", "--mode", "unitary", "--grid", "0.2:0.4:0.1"],
        ["compare", "--wl1", "0.9"],
    ], ids=lambda argv: argv[0])
    def test_any_other_package_error_exits_2(self, runner, monkeypatch,
                                             argv):
        def refuse(*args):
            raise SplitLoopError("engine refused")

        monkeypatch.setattr(maps, "raw_step", refuse)
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "error: engine refused\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["run", "--mode", "unitary", "--wl1", "0.9", "--steps", "3"],
        ["sweep", "--mode", "unitary", "--grid", "0.2:0.4:0.1"],
        ["mc", "--a1sq", "0.5", "--paths", "10", "--seed", "1",
         "--steps", "3"],
        ["paper"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_exits_2(self, runner, tmp_path, argv):
        missing = tmp_path / "missing" / "out.txt"
        for target, reason in ((missing, "No such file or directory"),
                               (tmp_path, "Is a directory")):
            result = runner.invoke(main, argv + ["--out", str(target)])
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)  # no traceback
            assert result.stderr == (
                f"error: cannot write --out {str(target)!r}: {reason}\n")
            assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full, whose writes always fail")
    @pytest.mark.parametrize("argv", [
        ["run", "--mode", "unitary", "--wl1", "0.5", "--steps", "3"],
        ["compare", "--wl1", "0.9"],
        ["paper"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_stdout_exits_2(self, argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        # stdout block-buffered, as by default, so that the failed bytes are
        # still pending when the interpreter flushes stdout on exit
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "splitloop.cli", *argv], env=env,
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
                check=False)
        assert proc.returncode == 2, proc.stderr[-500:]
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: cannot write stdout: ")


# Exact stderr of the benchmark's configuration-error commands
# (CLI_ERROR_CASES in perfbench/workloads.py), each exiting 2 with no stdout.
CONFIG_ERRORS = [
    (["run", "--mode", "unitary"],
     "error: need --wl1 or --a1sq to fix the initial condition\n"),
    (["run", "--mode", "unitary", "--wl1", "1.5"],
     "error: --wl1: w_left_initial out of range: 1.5 not in [0, 1]\n"),
    (["sweep", "--mode", "measure"],
     "error: need --a1sq for measure mode\n"),
    (["run", "--mode", "unitary", "--wl1", "0.5", "--switch", "3:bogus"],
     "error: bad --switch '3:bogus', expected STEP:TOPOLOGY with topology "
     "one of both, right-half, left-half\n"),
    (["mc", "--mode", "unitary", "--a1sq", "0.5", "--paths", "10",
      "--seed", "1"],
     "error: unsupported mode for sampling: only movable-splitter dynamics "
     "have per-path statistics\n"),
    (["run", "--mode", "measure", "--wl1", "0.5", "--steps", "5",
      "--switch", "9:both"],
     "error: switch at step 9 exceeds max_steps 5\n"),
    (["compare", "--wl1", "0"],
     "error: pure initial states never relax; w_left_initial must be "
     "strictly inside (0, 1)\n"),
    (["sweep", "--mode", "unitary", "--grid", "0.9:0.1:0.1"],
     "error: bad --grid '0.9:0.1:0.1': need STEP > 0 and STOP >= START\n"),
]


@pytest.mark.parametrize("argv,stderr", CONFIG_ERRORS,
                         ids=[" ".join(argv) for argv, _ in CONFIG_ERRORS])
def test_benchmark_config_error_messages(runner, argv, stderr):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == stderr


# sha256 of stdout, recorded from the per-command emitters that the shared
# table writer replaced; a change to any byte of canonical output shows here
CANONICAL_OUTPUT = [
    pytest.param(
        ["run", "--mode", "unitary", "--wl1", "0.9", "--steps", "6",
         "--switch", "3:right-half", "--switch", "5:both"],
        "8e3e0c6423abf30ecd70f0be8389f8d0875544751f7bba0db914ae9bf7662e3b",
        id="run-unitary-csv-switch"),
    pytest.param(
        ["run", "--mode", "unitary", "--wl1", "0.3", "--a1sq", "0.6",
         "--steps", "4", "--format", "json"],
        "7e513264b9a3d9fc009d70e8b0a411f2bef1c23b628baf4821c50a562a8c661e",
        id="run-unitary-json"),
    pytest.param(
        ["run", "--mode", "measure", "--a1sq", "0.9", "--steps", "5"],
        "fba714344a1ae58c985afa77b0447f9301085b791e86af35d25d6dfa729bc28c",
        id="run-measure-csv"),
    pytest.param(
        ["run", "--mode", "measure", "--wl1", "0.7", "--steps", "5",
         "--period", "0.5", "--switch", "2:left-half", "--format", "json"],
        "d9934abdaa42c612c4f2a4e2a1d2a34753f163c83caa90c69d5bbd85042353d1",
        id="run-measure-json-switch"),
    pytest.param(
        ["sweep", "--mode", "unitary", "--topology", "left-half",
         "--grid", "0.2:0.8:0.3", "--max-steps", "3"],
        "1ae416fc057c3082764a25f564adf659248d65f93b767324960e7df4b6e37e03",
        id="sweep-csv"),
    pytest.param(
        ["sweep", "--mode", "measure", "--a1sq", "0.7", "--grid",
         "0.2:0.4:0.1", "--format", "json"],
        "2c14913fd9838c79974e6e4735c47752253b83527d9eaddd3145dd9622e34815",
        id="sweep-json"),
    pytest.param(
        ["mc", "--a1sq", "0.9", "--steps", "5", "--paths", "400",
         "--seed", "11"],
        "112df0e8a91004294fa0a86980bf2bdcc329092b389bdfba0d924441da4cbfaf",
        id="mc-csv"),
    pytest.param(
        ["mc", "--a1sq", "0.6", "--topology", "right-half", "--steps", "4",
         "--paths", "300", "--seed", "7", "--sigma", "2.5",
         "--format", "json"],
        "f37e6504601afcd98a629f14858a27697d309cae4b10a0f0d8f6d19c1f682177",
        id="mc-json"),
    pytest.param(
        ["paper"],
        "51ef9ee15ce8130c1f755a79d9f172339237cd19613a2d47eb26376a90994d5b",
        id="paper-text"),
    pytest.param(
        ["paper", "--format", "json"],
        "e4716fa9718218f37ae19ada553f84e409ac84ca1533a889f0ed35c447cfaeee",
        id="paper-json"),
]


@pytest.mark.parametrize("argv,digest", CANONICAL_OUTPUT)
def test_canonical_output_bytes(runner, argv, digest):
    result = runner.invoke(main, argv)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


# Where cli.py may print an error or end the process: every other check
# raises a package error, which `_Main.invoke` alone turns into an exit code.
ONE_PATH = {"sys.exit": {"_Main.invoke", "paper"},
            "click.echo": {"_emit", "_Main.invoke"}}


def _misplaced_calls(path):
    """Calls of a ONE_PATH name outside the functions allowed to make them."""
    with open(path) as source:
        tree = ast.parse(source.read())
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)):
                name = f"{func.value.id}.{func.attr}"
                where = ".".join(scope) or "<module>"
                if name in ONE_PATH and where not in ONE_PATH[name]:
                    found.append(f"{os.path.basename(path)}:{child.lineno}: "
                                 f"{name} in {where}")
            visit(child, scope)

    visit(tree, ())
    return found


def test_errors_and_exits_have_one_path():
    assert _misplaced_calls(cli.__file__) == []


def test_one_path_check_sees_a_misplaced_call(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import sys, click\n"
                      "def _emit():\n    click.echo('ok')\n"
                      "def run():\n    click.echo('error')\n    sys.exit(2)\n"
                      "class _Main:\n    def invoke(self):\n        sys.exit(1)\n"
                      "sys.exit(0)\n")
    assert _misplaced_calls(str(source)) == [
        "sample.py:5: click.echo in run", "sample.py:6: sys.exit in run",
        "sample.py:10: sys.exit in <module>"]
