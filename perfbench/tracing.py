"""Span tracer that measures splitloop's layers from outside the package.

`install` replaces the module attributes that callers look up (for example
`analysis.iterate`, `maps.StepMap.apply`, `states.validate_weights`) with
wrappers that record a span per call: name, start, end and parent. Nothing
under src/ changes; `uninstall` puts the original objects back. Spans and
counters stay in memory until the run ends. A layer's self time is its span
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from time import perf_counter

# Layer metrics of the traced run: name -> unit. Times and counts are per
# round, i.e. per pass over the workload's fixed op set (see NOTES.md).
LAYER_METRICS = {
    "cli.import_splitloop_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_click_ms": "ms",
    "cli.self_ms": "ms",
    "cli.bytes_out": "bytes",
    "analysis.self_s": "s",
    "analysis.passes_computed": "count",
    "analysis.passes_needed": "count",
    "analysis.useful_pass_ratio": "ratio",
    "trajectory.self_s": "s",
    "trajectory.passes": "count",
    "trajectory.records": "count",
    "maps.apply_self_s": "s",
    "maps.step_self_s": "s",
    "maps.kernel_s": "s",
    "maps.kernel_calls": "count",
    "maps.markov_checks": "count",
    "states.validate_calls": "count",
    "states.validate_s": "s",
    "states.weights_of_s": "s",
    "montecarlo.ensemble_s": "s",
    "montecarlo.draw_s": "s",
    "montecarlo.walk_s": "s",
    "montecarlo.aggregate_s": "s",
    "montecarlo.generators_built": "count",
    "montecarlo.array_bytes": "bytes",
    "montecarlo.agreement_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Append-only span store for one single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: dict[str, int] = {}

    def name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self.name_index(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def parent_name(self) -> str:
        """Name of the innermost open span, or '' at top level."""
        top = self._stack[-1]
        return self.names[self.name_id[top]] if top >= 0 else ""

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, hook=None):
        """`fn` recording one span per call; `hook(tracer, result)` after."""
        nid = self.name_index(name)
        name_ids, starts, ends, parents = (self.name_id, self.start,
                                           self.end, self.parent)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result
        return traced


def self_times(start, end, parent) -> list[float]:
    """Span durations minus the union of their children's intervals.

    Spans must be stored in order of their start (as Tracer appends them),
    so the children of each parent arrive sorted and one pass merges them.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)  # end of the merged child intervals so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


# --------------------------------------------------------------------------
# Boundaries of the package's layers.

def _records_hook(tracer: Tracer, result) -> None:
    if hasattr(result, "records"):
        n = len(result.records)
    else:  # steps_to_converge: step index, or NotConverged after max_steps
        n = result if isinstance(result, int) else result.steps
    tracer.count("trajectory.records", n)
    caller = tracer.parent_name()
    if caller.startswith("analysis."):
        tracer.count("analysis.passes_computed", n)
        if caller != "analysis.sweep_initial_conditions":
            tracer.count("analysis.passes_needed", n)


def _sweep_hook(tracer: Tracer, result) -> None:
    tracer.count("analysis.passes_needed", sum(
        c.steps if c.converged else result.max_steps for c in result.cells))
    tracer.count("analysis.cells", len(result.cells))
    tracer.count("analysis.cells_converged",
                 sum(c.converged for c in result.cells))


def _ensemble_hook(tracer: Tracer, result) -> None:
    # float64 uniforms plus the boolean walk, paths x steps each
    tracer.count("montecarlo.array_bytes",
                 result.n_paths * len(result.w_left) * 9)


def _boundaries(mods: dict):
    """(owner, attribute, span name, hook) for every wrapped callable."""
    cli, analysis, trajectory = mods["cli"], mods["analysis"], mods["trajectory"]
    maps, states, montecarlo = mods["maps"], mods["states"], mods["montecarlo"]
    table = []
    for owner in (trajectory, analysis, cli):
        table.append((owner, "iterate", "trajectory.iterate", _records_hook))
    table.append((analysis, "steps_to_converge",
                  "trajectory.steps_to_converge", _records_hook))
    for owner in (analysis, cli):
        table += [
            (owner, "sweep_initial_conditions",
             "analysis.sweep_initial_conditions", _sweep_hook),
            (owner, "compare_modes", "analysis.compare_modes", None),
            (owner, "reference_sequences", "analysis.reference_sequences",
             None),
        ]
    table.append((analysis, "convergence_order", "analysis.convergence_order",
                  None))
    table.append((maps.StepMap, "apply", "maps.apply", None))
    for mode in ("unitary", "measure"):
        for wiring in ("both", "right_half", "left_half"):
            table.append((maps, f"step_{mode}_{wiring}",
                          f"maps.step_{mode}_{wiring}", None))
            table.append((maps, f"{mode}_{wiring}_kernel",
                          f"maps.{mode}_{wiring}_kernel", None))
    for name in ("validate_amplitudes", "validate_weights"):
        table.append((states, name, f"states.{name}", None))
    for owner in (trajectory, analysis):
        table.append((owner, "weights_of", "states.weights_of", None))
    for owner in (montecarlo, cli):
        table += [
            (owner, "ensemble_frequencies", "montecarlo.ensemble_frequencies",
             _ensemble_hook),
            (owner, "agreement_report", "montecarlo.agreement_report", None),
        ]
    # Stage functions; a later change may remove them.
    table.append((montecarlo, "_uniforms", "montecarlo._uniforms", None))
    table.append((montecarlo, "_walk", "montecarlo._walk", None))
    return table


def install(tracer: Tracer, mods: dict):
    """Wrap every boundary; returns (patches, names of absent callables)."""
    patches, absent = [], []
    for owner, attr, span, hook in _boundaries(mods):
        original = owner.__dict__.get(attr)
        if original is None:
            absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            continue
        patches.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(span, original, hook))
    return patches, absent


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# --------------------------------------------------------------------------
# Per-round layer metrics.

def round_metrics(names: list[str], name_id, start, end, selfs,
                  lo: int, hi: int, counters: dict) -> dict[str, float]:
    """Layer metrics of the spans with index in [lo, hi) (one round)."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(lo, hi):
        name = names[name_id[i]]
        total[name] = total.get(name, 0.0) + (end[i] - start[i])
        own[name] = own.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1

    def sum_of(table, pred):
        return sum(v for k, v in table.items() if pred(k))

    computed = counters.get("analysis.passes_computed", 0)
    needed = counters.get("analysis.passes_needed", 0)
    return {
        "cli.self_ms": own.get("cli.invoke", 0.0) * 1e3,
        "cli.bytes_out": counters.get("cli.bytes_out", 0),
        "analysis.self_s": sum_of(own, lambda k: k.startswith("analysis.")),
        "analysis.passes_computed": computed,
        "analysis.passes_needed": needed,
        "analysis.useful_pass_ratio": needed / computed if computed else 0.0,
        "trajectory.self_s": sum_of(own, lambda k: k.startswith("trajectory.")),
        "trajectory.passes": calls.get("maps.apply", 0),
        "trajectory.records": counters.get("trajectory.records", 0),
        "maps.apply_self_s": own.get("maps.apply", 0.0),
        "maps.step_self_s": sum_of(own, lambda k: k.startswith("maps.step_")),
        "maps.kernel_s": sum_of(own, lambda k: k.endswith("_kernel")),
        "maps.kernel_calls": sum_of(calls, lambda k: k.endswith("_kernel")),
        "maps.markov_checks": calls.get("maps.step_measure_both", 0),
        "states.validate_calls": sum_of(
            calls, lambda k: k.startswith("states.validate_")),
        "states.validate_s": sum_of(
            total, lambda k: k.startswith("states.validate_")),
        "states.weights_of_s": own.get("states.weights_of", 0.0),
        "montecarlo.ensemble_s": total.get("montecarlo.ensemble_frequencies",
                                           0.0),
        "montecarlo.draw_s": total.get("montecarlo._uniforms", 0.0),
        "montecarlo.walk_s": total.get("montecarlo._walk", 0.0),
        "montecarlo.aggregate_s": own.get("montecarlo.ensemble_frequencies",
                                          0.0),
        "montecarlo.generators_built": calls.get("montecarlo._uniforms", 0),
        "montecarlo.array_bytes": counters.get("montecarlo.array_bytes", 0),
        "montecarlo.agreement_s": total.get("montecarlo.agreement_report",
                                            0.0),
        "analysis.cells": counters.get("analysis.cells", 0),
        "analysis.cells_converged": counters.get("analysis.cells_converged", 0),
    }


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
