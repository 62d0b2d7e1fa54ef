"""Command line front end.

Subcommands:

  run      one trajectory, CSV or JSON
  paper    recompute the tabulated reference runs and gate on agreement
  compare  race the two interaction modes from one initial weight
  sweep    convergence census over a grid of initial weights
  mc       stochastic ensemble checked against the analytic weight series

Exit codes: 0 success, 1 numeric failure inside the engine, 2 bad
configuration, 3 reference mismatch from `paper`. Output is deterministic
byte for byte given the same flags (mc included, its seeding is explicit).
"""

from __future__ import annotations

import math
import operator
import os
import sys
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Sequence

import click

from .errors import (NumericDomainError, OutOfRangeError,
                     ScheduleConflictError, SplitLoopError,
                     UnsupportedModeError)
from .states import (InteractionMode, SplitterCoefficients, Topology,
                     _check_positive_finite, _check_sampling, _check_unit,
                     _state_from_left_weight)
from .trajectory import (NotConverged, Scenario, StepSchedule, Trajectory,
                         iterate)

EXIT_NUMERIC = 1
EXIT_CONFIG = 2
EXIT_REFERENCE = 3

# Largest --grid a sweep accepts; a finer grid exits 2 before any cell is
# built instead of exhausting memory.
MAX_GRID_CELLS = 100_000

_MODES = {m.value: m for m in InteractionMode}
_TOPOLOGIES = {t.value: t for t in Topology}

_mode_option = click.option(
    "--mode", type=click.Choice(sorted(_MODES)), required=True,
    help="interaction mode at the splitter")
_topology_option = click.option(
    "--topology", type=click.Choice(list(_TOPOLOGIES)), default="both",
    show_default=True, help="fiber topology")
_out_option = click.option(
    "--out", type=click.Path(), default=None,
    help="write output to this file instead of stdout")
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
    show_default=True)


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """The one place output is written, chunk by chunk, to --out or else to
    stdout."""
    try:
        if out is None:
            for chunk in chunks:
                click.echo(chunk, nl=False)
        else:
            with open(out, "w") as file:
                file.writelines(chunks)
    except OSError as exc:
        target = f"--out {out!r}"
        if out is None:
            # unflushed bytes would fail again, with a traceback, at exit
            target = "stdout"
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SplitLoopError(f"cannot write {target}: "
                             f"{exc.strerror or exc}") from None


def _cell(fmt: str, value):
    """What a row template's `%s` takes for a cell: a finite float or an int
    as it is, which %s writes by repr, else the text json.dumps or
    csv.writer writes, but a bool is true or false in both formats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if type(value) in (int, float) and value - value == 0:
        return value
    if fmt == "csv":
        return "" if value is None else str(value)
    import json

    return json.dumps(value)


def _row_template(fmt: str, names: Sequence[str],
                  empty: Sequence[str] = ()) -> str:
    """A `%` template of a row of the columns names: a `%s` for each cell,
    but for the columns in empty, whose cells are None in every row and
    filled in already."""
    cells = [_cell(fmt, None) if name in empty else "%s" for name in names]
    if fmt == "csv":
        return ",".join(cells) + "\n"
    return "    {\n%s\n    }" % ",\n".join(
        f'      "{name}": {cell}' for name, cell in zip(names, cells))


def _text_rows(fmt: str, names: Sequence[str],
               rows: Iterable[tuple]) -> Iterator[str]:
    """Rows of cell values, in the order of names, as text."""
    template = _row_template(fmt, names)
    return (template % tuple(_cell(fmt, value) for value in row)
            for row in rows)


def _chunks(rows: Iterator[str], sep: str) -> Iterator[str]:
    """The rows joined by sep, _CHUNK_ROWS of them to a string."""
    lead = ""
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        yield lead + sep.join(chunk)
        lead = sep


def _write_table(fmt: str, out: str | None, config: dict, key: str,
                 names: Sequence[str], rows: Iterator[str],
                 summary: dict | None = None) -> None:
    """Emit the rows, text from templates of the columns names, as CSV (a
    header of the names, then a line a row) or as the JSON document
    json.dumps(indent=2) lays out for config, the rows under key and
    summary. The rows are read as they are written, a chunk at a time."""
    if fmt == "csv":
        _emit(chain([",".join(names) + "\n"], _chunks(rows, "")), out)
        return
    import json

    document = {"config": config, key: []}
    if summary is not None:
        document["summary"] = summary
    head, _, tail = json.dumps(document, indent=2).partition(f'"{key}": []')
    # as json.dumps(indent=2) joins list items
    _emit(chain([head, f'"{key}": [\n'], _chunks(rows, ",\n"),
                ["\n  ]" + tail + "\n"]), out)


# `run` writes its rows from the runs of equal passes that `iterate` holds
# as columns, computed in full before a byte is written, so that a run
# failing mid-way prints nothing. That is 33 or 57 B a computed pass and
# none a repeated one. Every float is finite, as every validated pass is,
# so it fills its `%s` as it is.
_CHUNK_ROWS = 4096
_RUN_COLUMNS = ("n", "time", "topology", "a", "b", "w_left", "w_right")


def _run_rows(fmt: str, trajectory: Trajectory,
              period: float) -> Iterator[str]:
    """Every pass's row, the row of a run longer than one pass filled in
    once but for n and n * period."""
    firsts, ends, (wirings, topologies), state, weights = (
        trajectory.records._columns())
    template = _row_template(fmt, _RUN_COLUMNS, () if state else ("a", "b"))
    names = tuple(_cell(fmt, topology.value) for topology in topologies)
    rows = zip(firsts, map(operator.mul, firsts, repeat(period)),
               map(names.__getitem__, wirings), *state[:2], *weights[:2])
    for end, row in zip(ends, rows):
        if end == row[0] + 1:
            yield template % row
        else:
            pattern = template % ("%s", "%s", *row[2:])
            yield from (pattern % (n, n * period)
                        for n in range(row[0], end))


def _splitter(a1sq: float | None) -> SplitterCoefficients | None:
    """The splitter of an --a1sq flag, None when it is absent."""
    if a1sq is None:
        return None
    _check_unit("--a1sq: a1_squared", a1sq)
    return SplitterCoefficients.from_reflectance(a1sq)


def _resolve_setup(mode: InteractionMode, wl1: float | None,
                   a1sq: float | None):
    """Initial state and splitter from the two overlapping flags.

    Either flag alone implies the other (tied preparation); giving both
    unties them.
    """
    if wl1 is None and a1sq is None:
        raise SplitLoopError("need --wl1 or --a1sq to fix the initial "
                             "condition")
    if wl1 is not None:
        _check_unit("--wl1: w_left_initial", wl1)
    if a1sq is None:
        a1sq = wl1
    splitter = _splitter(a1sq)
    if wl1 is None:
        wl1 = a1sq
    return _state_from_left_weight(mode, wl1), splitter, wl1, a1sq


def _parse_switches(switch_args: tuple[str, ...]) -> StepSchedule:
    parsed = []
    for text in switch_args:
        step_text, sep, topo_text = text.partition(":")
        if not sep or topo_text not in _TOPOLOGIES:
            raise ScheduleConflictError(
                f"bad --switch {text!r}, expected STEP:TOPOLOGY with "
                f"topology one of {', '.join(_TOPOLOGIES)}")
        try:
            step = int(step_text)
        except ValueError:
            raise ScheduleConflictError(
                f"bad --switch step {step_text!r}, expected an integer"
            ) from None
        parsed.append((step, _TOPOLOGIES[topo_text]))
    return StepSchedule(tuple(parsed))


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise OutOfRangeError(f"bad --grid {text!r}, expected START:STOP:STEP")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise OutOfRangeError(
            f"bad --grid {text!r}, entries must be numbers") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise OutOfRangeError(f"bad --grid {text!r}: entries must be finite")
    if step <= 0.0 or stop < start:
        raise OutOfRangeError(
            f"bad --grid {text!r}: need STEP > 0 and STOP >= START")
    # cells counted before any is built; the loop below stops one past it
    cells = (stop - start) / step + 1.5
    if not cells < MAX_GRID_CELLS + 1:
        raise OutOfRangeError(
            f"bad --grid {text!r}: more than {MAX_GRID_CELLS} cells")
    values = []
    for k in range(int(cells) + 1):
        v = start + k * step
        if v > stop + step / 2.0:  # both ends inclusive, half-step slack
            break
        values.append(v)
    return tuple(values)


class _Main(click.Group):
    """The one place package errors become exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SplitLoopError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NUMERIC if isinstance(exc, NumericDomainError)
                     else EXIT_CONFIG)


@click.group(cls=_Main)
def main() -> None:
    """Twin-loop splitter dynamics: simulate, analyze, cross-check."""


@main.command()
@_mode_option
@_topology_option
@click.option("--wl1", type=float, default=None,
              help="initial left weight in [0, 1]")
@click.option("--a1sq", type=float, default=None,
              help="splitter reflectance a1^2 in [0, 1]")
@click.option("--steps", type=int, default=20, show_default=True,
              help="number of recorded passes, the first being the start")
@click.option("--period", type=float, default=1.0, show_default=True,
              help="loop traversal time per pass")
@click.option("--switch", "switches", multiple=True, metavar="STEP:TOPOLOGY",
              help="retopologize before the map of the named step; repeatable")
@_format_option
@_out_option
def run(mode, topology, wl1, a1sq, steps, period, switches, fmt, out):
    """Simulate one trajectory and print every recorded pass."""
    mode_obj = _MODES[mode]
    initial, splitter, wl1_val, a1sq_val = _resolve_setup(mode_obj, wl1, a1sq)
    schedule = _parse_switches(switches)
    scenario = Scenario(mode_obj, _TOPOLOGIES[topology], splitter, initial,
                        max_steps=steps, period=period)
    trajectory = iterate(scenario, schedule)
    final = trajectory.final
    _write_table(fmt, out, {
        "mode": mode,
        "topology": topology,
        "w_left_initial": wl1_val,
        "a1_squared": a1sq_val,
        "steps": steps,
        "period": period,
        "switches": [[s, t.value] for s, t in schedule.switches],
    }, "records", _RUN_COLUMNS, _run_rows(fmt, trajectory, period), {
        "final_w_left": final.weights.w_left,
        "final_w_right": final.weights.w_right,
        "final_topology": final.topology.value,
    })


@main.command()
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@_out_option
def paper(fmt, out):
    """Recompute the tabulated reference runs; exit 3 on any mismatch."""
    from . import analysis  # only the commands that call it load it

    report = analysis.reference_sequences()
    if fmt == "json":
        import json

        payload = {
            "sequences": [{
                "name": s.name,
                "initial_w_left": s.initial_w_left,
                "steps": list(s.steps),
                "reference": list(s.reference),
                "computed": list(s.computed),
                "computed_display": list(s.computed_display()),
                "deviations": list(s.deviations),
                "max_deviation": s.max_deviation,
                "within_tolerance": s.within_tolerance,
                "note": s.note,
            } for s in report.sequences],
            "all_within_tolerance": report.all_within_tolerance,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = []
        for s in report.sequences:
            lines.append(f"sequence {s.name}")
            lines.append("  n  reference  computed  deviation")
            for n, ref, shown, dev in zip(s.steps, s.reference,
                                          s.computed_display(), s.deviations):
                lines.append(f"  {n}  {ref}  {shown}  {dev:.2e}")
            verdict = ("within tolerance" if s.within_tolerance
                       else "EXCEEDS tolerance")
            lines.append(f"  max deviation {s.max_deviation:.2e}, {verdict}")
            if s.note:
                lines.append(f"  note: {s.note}")
        lines.append("all reference sequences reproduced"
                     if report.all_within_tolerance
                     else "reference mismatch detected")
        text = "\n".join(lines) + "\n"
    _emit([text], out)
    if not report.all_within_tolerance:
        sys.exit(EXIT_REFERENCE)


@main.command()
@click.option("--wl1", type=float, required=True,
              help="shared initial left weight, strictly inside (0, 1)")
@click.option("--eps", type=float, default=1e-3, show_default=True,
              help="convergence distance to the balanced state")
@click.option("--max-steps", type=int, default=10000, show_default=True)
@click.option("--a1sq", type=float, default=None,
              help="explicit splitter reflectance; default ties it to --wl1")
def compare(wl1, eps, max_steps, a1sq):
    """Steps to balance under each interaction mode, from the same start."""
    _check_unit("--wl1: w_left_initial", wl1)
    splitter = _splitter(a1sq)
    from . import analysis

    result = analysis.compare_modes(wl1, eps, max_steps, splitter)

    def describe(steps):
        if isinstance(steps, NotConverged):
            return (f"no convergence in {steps.steps} steps "
                    f"(final distance {steps.final_distance:.3e})")
        return f"{steps} steps"

    lines = [
        f"initial left weight {result.w_left_initial!r}, "
        f"epsilon {result.epsilon!r}",
        f"unitary (fixed splitter): {describe(result.unitary_steps)}",
        f"measurement (movable splitter): "
        f"{describe(result.measurement_steps)}",
    ]
    if result.ratio is not None:
        lines.append(f"ratio measurement / unitary: {result.ratio:.3g}")
    _emit(["\n".join(lines) + "\n"], None)


@main.command()
@_mode_option
@_topology_option
@click.option("--grid", default="0.05:0.95:0.05", show_default=True,
              metavar="START:STOP:STEP",
              help="initial left weights, both ends inclusive")
@click.option("--eps", type=float, default=1e-3, show_default=True)
@click.option("--max-steps", type=int, default=1000, show_default=True)
@click.option("--a1sq", type=float, default=None,
              help="splitter reflectance; required for measure mode")
@_format_option
@_out_option
def sweep(mode, topology, grid, eps, max_steps, a1sq, fmt, out):
    """Convergence census over a grid of initial left weights."""
    mode_obj = _MODES[mode]
    grid_values = _parse_grid(grid)
    if mode_obj is InteractionMode.MOVABLE_SPLITTER and a1sq is None:
        raise SplitLoopError("need --a1sq for measure mode")
    splitter = _splitter(a1sq)
    from . import analysis

    result = analysis.sweep_initial_conditions(
        mode_obj, _TOPOLOGIES[topology], grid_values, eps, max_steps,
        splitter)
    names = ("w_initial", "converged", "steps", "final_w_left",
             "final_w_right")
    rows = _text_rows(fmt, names, (
        (c.w_initial, c.converged, c.steps, c.final_w_left, c.final_w_right)
        for c in result.cells))
    _write_table(fmt, out, {
        "mode": mode,
        "topology": topology,
        "grid": list(grid_values),
        "epsilon": eps,
        "max_steps": max_steps,
        "a1_squared": a1sq,
        "target_w_left": result.target.w_left,
        "target_w_right": result.target.w_right,
    }, "cells", names, rows)


@main.command()
@click.option("--mode", type=click.Choice(sorted(_MODES)), default="measure",
              show_default=True,
              help="only measure mode has per-path statistics")
@_topology_option
@click.option("--a1sq", type=float, required=True,
              help="splitter reflectance a1^2; also the initial left weight")
@click.option("--steps", type=int, default=10, show_default=True)
@click.option("--paths", type=int, required=True,
              help="ensemble size")
@click.option("--seed", type=int, required=True,
              help="base seed; path i uses stream seed + i")
@click.option("--sigma", type=float, default=4.0, show_default=True,
              help="agreement bound in standard errors")
@_format_option
@_out_option
def mc(mode, topology, a1sq, steps, paths, seed, sigma, fmt, out):
    """Sample a photon ensemble and check it against the exact weights."""
    mode_obj = _MODES[mode]
    if mode_obj is not InteractionMode.MOVABLE_SPLITTER:
        raise UnsupportedModeError(
            "unsupported mode for sampling: only movable-splitter dynamics "
            "have per-path statistics")
    _check_sampling(steps, seed, paths)
    _check_positive_finite("sigma_bound", sigma)
    splitter = _splitter(a1sq)
    from . import montecarlo  # numpy loads here, after the checks above

    topo_obj = _TOPOLOGIES[topology]
    estimate = montecarlo.ensemble_frequencies(splitter, topo_obj, steps,
                                               paths, seed)
    analytic = iterate(Scenario(mode_obj, topo_obj, splitter,
                                _state_from_left_weight(mode_obj, a1sq),
                                max_steps=steps))
    report = montecarlo.agreement_report(
        estimate, [r.weights for r in analytic.records], sigma_bound=sigma)
    names = ("step", "empirical_w_left", "analytic_w_left", "stderr", "z",
             "passed")
    rows = _text_rows(fmt, names, ((r.step, r.empirical, r.analytic,
                                    r.stderr, r.z, r.passed) for r in report))
    _write_table(fmt, out, {
        "topology": topology,
        "a1_squared": a1sq,
        "steps": steps,
        "n_paths": paths,
        "base_seed": seed,
        "generator": montecarlo.GENERATOR_NAME,
        "sigma_bound": sigma,
    }, "steps", names, rows, {
        "all_within_sigma": all(r.passed for r in report)})


if __name__ == "__main__":
    main()
