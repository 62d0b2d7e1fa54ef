"""Time the readers of a run that no benchmark op times, on two source trees.

    python tools/readers_ab.py PARENT_SRC CHANGE_SRC [--rounds N] [--json]

PARENT_SRC and CHANGE_SRC are folders that each hold a `splitloop`
package, such as the `src` folders of two checkouts. Both packages are
imported into one process under their own names, so that each round times
every case on both trees back to back, the order alternating from round to
round. A case's time in a round is the mean of a fixed number of calls.

For each case the script prints the median of the per-round times of each
tree in microseconds, and the paired ratio: the median over rounds of the
change's time over the parent's in the same round. With --json it prints
the same figures as one JSON object.

The cases:
- `w_left_series_5`: `w_left_series()` of a 5-pass coherent
  both-connected run from 0.9, one pass a run;
- `reference_sequences`: `analysis.reference_sequences()`;
- `list_records_seed1`: `list(records)` of every `Trajectory` of the
  seed-1 `trajectory` workload of `perfbench/workloads.py`;
- `run_rows_csv_3000`: the CSV rows `cli._run_rows` writes for a
  3000-pass measuring right-half run at a1^2 = 0.99999, which has no
  fixed point, so 3000 runs;
- `w_left_series_3000`: `w_left_series()` of that run;
- `step_unitary_both`: `maps.step_unitary_both` on an amplitude pair;
- `iterate_5`: `iterate()` of the 5-pass run.
"""

import argparse
import gc
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(src: str, name: str) -> dict:
    """The modules of the `splitloop` package in folder src, imported as
    the package `name`."""
    folder = os.path.join(os.path.abspath(src), "splitloop")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(folder, "__init__.py"),
        submodule_search_locations=[folder])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {module: importlib.import_module(f"{name}.{module}")
            for module in ("analysis", "cli", "maps", "states", "trajectory")}


def trajectory_ops(seed: int) -> list[dict]:
    """The arguments of the `iterate` ops of the `trajectory` workload."""
    sys.path.insert(0, ROOT)
    try:
        from perfbench.workloads import specs
    finally:
        sys.path.remove(ROOT)
    return [spec.args for spec in specs("trajectory", seed)]


def cases(m: dict, ops: list[dict]) -> dict:
    """Each case's (calls a round, callable) on the modules m."""
    states, trajectory = m["states"], m["trajectory"]
    fixed, measure = states.InteractionMode
    wirings = {t.value: t for t in states.Topology}
    both, right = (states.Topology.BOTH_CONNECTED,
                   states.Topology.RIGHT_HALF_CONNECTED)

    def initial(mode, w):
        return (states.amplitudes_from_left_weight(w) if mode is fixed
                else states.WeightPair(w, 1.0 - w))

    short = trajectory.Scenario(fixed, both, None, initial(fixed, 0.9), 5)
    short_run = trajectory.iterate(short)
    long_run = trajectory.iterate(trajectory.Scenario(
        measure, right, states.SplitterCoefficients.from_reflectance(0.99999),
        initial(measure, 0.5), 3000))
    outputs = []
    for args in ops:
        splitter = states.SplitterCoefficients.from_reflectance(
            args["a1_squared"])
        schedule = trajectory.StepSchedule(
            tuple((step, wirings[w]) for step, w in args["switches"]))
        outputs += (trajectory.iterate(trajectory.Scenario(
            mode, wirings[args["topology"]], splitter,
            initial(mode, args["w_left"]), args["steps"]), schedule)
            for mode in (fixed, measure))
    pair = states.amplitudes_from_left_weight(0.7)
    step, run_rows = m["maps"].step_unitary_both, m["cli"]._run_rows
    analysis = m["analysis"]
    return {
        "w_left_series_5": (2000, short_run.w_left_series),
        "reference_sequences": (50, analysis.reference_sequences),
        "list_records_seed1": (1, lambda: [list(t.records) for t in outputs]),
        "run_rows_csv_3000": (2, lambda: list(run_rows("csv", long_run, 1.0))),
        "w_left_series_3000": (50, long_run.w_left_series),
        "step_unitary_both": (2000, lambda: step(pair)),
        "iterate_5": (200, lambda: trajectory.iterate(short)),
    }


def timed(calls: int, call) -> float:
    """The mean time of a call in microseconds, over `calls` calls."""
    start = time.perf_counter()
    for _ in range(calls):
        call()
    return (time.perf_counter() - start) / calls * 1e6


def measure(trees: dict, rounds: int) -> dict:
    """Per case, per tree, the per-round times over `rounds` rounds."""
    times = {name: {tree: [] for tree in trees} for name in
             next(iter(trees.values()))}
    order = list(trees)
    for _ in range(rounds):
        for name in times:
            for tree in order:
                gc.collect()
                times[name][tree].append(timed(*trees[tree][name]))
        order.reverse()
    return times


def summary(times: dict) -> dict:
    return {name: {
        "parent_us": round(statistics.median(t["parent"]), 3),
        "change_us": round(statistics.median(t["change"]), 3),
        "paired_change_over_parent": round(statistics.median(
            c / p for p, c in zip(t["parent"], t["change"])), 3),
    } for name, t in times.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    ops = trajectory_ops(1)
    trees = {tree: cases(load(src, f"splitloop_{tree}"), ops)
             for tree, src in (("parent", args.parent_src),
                               ("change", args.change_src))}
    result = summary(measure(trees, args.rounds))
    if args.json:
        print(json.dumps(result, indent=1))
        return 0
    print(f"{'case':<22}{'parent_us':>12}{'change_us':>12}{'paired':>9}")
    for name, row in result.items():
        print(f"{name:<22}{row['parent_us']:>12.3f}{row['change_us']:>12.3f}"
              f"{row['paired_change_over_parent']:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
