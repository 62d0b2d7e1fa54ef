"""One benchmark process: set up a workload, then time or trace it.

Started by run.py in a fresh single-threaded interpreter; prints one JSON
object as its last line of output. Modes:

  setup    build the workload and report when it was ready, then exit
  measure  warm up (library workloads only), then time rounds of the op set,
           each op next to a machine-speed calibration sample (an
           interpreter start for cli, a pure-Python loop otherwise)
  trace    time untraced rounds, then traced rounds, and report layer metrics
  digests  run every op once and print its digest (for recording goldens)
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibration
import tracing
import workloads

IMPORTTIME_PROBES = 5
MAX_SPANS = 1_500_000


def _call(op):
    """Run one op; returns (seconds, output, error message or None)."""
    t0 = perf_counter()
    try:
        output = op.call()
    except Exception:  # a failing op is counted, the run goes on
        return perf_counter() - t0, None, traceback.format_exc(limit=3)
    return perf_counter() - t0, output, None


def _rounds(ops, gate, seconds, min_rounds=1, tracer=None):
    """Run whole rounds of the op set until `seconds` have passed.

    Returns per-op latency lists and per-round wall time (sum of op
    latencies). With a tracer, each round and op is a span and the round's
    counters are kept apart.
    """
    latencies = {op.spec.id: [] for op in ops}
    walls, round_spans, round_counters = [], [], []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.counters = {}
            round_idx = tracer.open("bench.round")
        wall = 0.0
        for op in ops:
            if tracer is not None:
                op_idx = tracer.open("bench.op")
            dt, output, error = _call(op)
            if tracer is not None:
                tracer.close(op_idx)
            gate.verify(op.spec, output, error)
            latencies[op.spec.id].append(dt)
            wall += dt
        walls.append(wall)
        if tracer is not None:
            tracer.close(round_idx)
            round_spans.append((round_idx, len(tracer)))
            round_counters.append(tracer.counters)
            if len(tracer) > MAX_SPANS:
                break
        if len(walls) >= min_rounds and perf_counter() - start >= seconds:
            break
    return latencies, walls, round_spans, round_counters


def _measure(ops, gate, seconds, probe, reference):
    """Time whole rounds of the op set, with a calibration sample between
    every two ops and at both ends.

    `probe` takes one calibration sample; `reference` is its time at the
    reference speed. Returns per-op latency lists, scaled to the reference
    speed and raw, the calibration samples in time order, and the number
    of rounds.
    """
    ids, raw, cal = [], [], []
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        for op in ops:
            cal.append(probe())
            dt, output, error = _call(op)
            gate.verify(op.spec, output, error)
            ids.append(op.spec.id)
            raw.append(dt)
        rounds += 1
    cal.append(probe())
    scaled = {op.spec.id: [] for op in ops}
    unscaled = {op.spec.id: [] for op in ops}
    for op_id, dt, x in zip(ids, raw,
                            calibration.scale_series(raw, cal, reference)):
        unscaled[op_id].append(dt)
        scaled[op_id].append(x)
    return scaled, unscaled, cal, rounds


def _peak_rss_mb(workload: str) -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":  # the ops run in child processes
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0


def _known_defects() -> list[dict]:
    probes = []
    for name, argv in workloads.KNOWN_DEFECTS:
        code, stdout, stderr = workloads.run_cli(argv)
        last = stderr.decode().strip().splitlines()[-1:] or [""]
        probes.append({"name": name, "argv": argv, "exit": code,
                       "failed": code != 0 or "Traceback" in stderr.decode(),
                       "stderr_last_line": last[0]})
    return probes


def _importtime_ms() -> dict[str, float]:
    """Cumulative import times of a cold `splitloop paper`, median of runs."""
    samples = {"splitloop": [], "numpy": [], "click": []}
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", workloads.CLI_ENTRY,
             "paper"], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120, check=True)
        found = {"splitloop": 0.0}
        for line in proc.stderr.decode().splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
            if not m:
                continue
            cumulative, depth, name = int(m[1]) / 1e3, len(m[2]), m[3]
            if depth == 1 and name.startswith("splitloop"):
                found["splitloop"] += cumulative
            elif name in ("numpy", "click") and name not in found:
                found[name] = cumulative
        for key in samples:
            samples[key].append(found.get(key, 0.0))
    return {f"cli.import_{k}_ms": statistics.median(v)
            for k, v in samples.items()}


def _library_modules() -> dict:
    from splitloop import (analysis, cli, maps, montecarlo, states,
                           trajectory)
    return {"analysis": analysis, "cli": cli, "maps": maps,
            "montecarlo": montecarlo, "states": states,
            "trajectory": trajectory}


def _in_process_cli_ops(ops):
    """The cli ops through click's CliRunner, for tracing in one process."""
    from click.testing import CliRunner
    from splitloop import cli

    runner = CliRunner()

    def invoke(argv):
        result = runner.invoke(cli.main, argv)
        return result.exit_code, result.stdout_bytes, result.stderr_bytes

    return [workloads.Op(op.spec, op.units,
                         (lambda argv=op.spec.args["argv"]: invoke(argv)))
            for op in ops]


def trace(args, ops, gate) -> dict:
    mods = _library_modules()
    # Measured on every workload: it should move on none but `cli`.
    imports = _importtime_ms()
    if args.workload == "cli":
        ops = _in_process_cli_ops(ops)
    half = args.seconds / 2.0
    _rounds(ops, gate, 0.0)  # warm-up
    _, plain_walls, _, _ = _rounds(ops, gate, half, min_rounds=2)

    tracer = tracing.Tracer()
    if args.workload == "cli":  # the CliRunner call is the CLI layer's span
        ops = [workloads.Op(op.spec, op.units,
                            tracer.wrap("cli.invoke", op.call, _count_bytes))
               for op in ops]
    patches, absent = tracing.install(tracer, mods)
    try:
        _, traced_walls, round_spans, round_counters = _rounds(
            ops, gate, half, tracer=tracer)
    finally:
        tracing.uninstall(patches)

    selfs = tracing.self_times(tracer.start, tracer.end, tracer.parent)
    per_round = [tracing.round_metrics(tracer.names, tracer.name_id,
                                       tracer.start, tracer.end, selfs,
                                       lo, hi, counters)
                 for (lo, hi), counters in zip(round_spans, round_counters)]
    metrics = tracing.median_metrics(per_round)
    metrics.update(imports)
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(plain_walls))
    _write_spans(Path(args.out_dir) / f"{args.workload}-seed{args.seed}-spans.npz",
                 tracer)
    return {"metrics": metrics, "absent": absent,
            "traced_rounds": len(traced_walls), "spans": len(tracer)}


def _count_bytes(tracer, result) -> None:
    tracer.count("cli.bytes_out", len(result[1]))


def _write_spans(path: Path, tracer) -> None:
    import numpy as np

    np.savez_compressed(
        path, names=np.array(tracer.names),
        name_id=np.frombuffer(tracer.name_id, dtype=np.int32),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        start=np.frombuffer(tracer.start), end=np.frombuffer(tracer.end))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", choices=("setup", "measure", "trace", "digests"),
                   required=True)
    p.add_argument("--out-dir", default=".")
    args = p.parse_args()

    ops = workloads.prepare(args.workload, args.seed)
    ready = perf_counter()
    result: dict = {"ready": ready}
    # Recording digests must not compare against the goldens being replaced.
    gate = workloads.Gate(args.workload,
                          None if args.mode == "digests" else args.seed)
    if args.mode == "digests":
        _rounds(ops, gate, 0.0)
        if gate.failures:
            print(gate.failures, file=sys.stderr)
            return 1
    elif args.mode == "measure":
        if args.workload == "cli":  # each op starts a process
            probe = calibration.spawn_sample
            reference = calibration.SPAWN_REFERENCE_S
        else:  # users pay the CLI's cold start each call; warm the rest
            _rounds(ops, gate, 0.0)
            probe, reference = calibration.sample, calibration.REFERENCE_S
        latencies, raw, cal, rounds = _measure(ops, gate, args.seconds,
                                               probe, reference)
        result.update(latencies=latencies, raw_latencies=raw,
                      calibration=cal, calibration_reference_s=reference,
                      rounds=rounds,
                      units_per_round=sum(op.units for op in ops),
                      peak_rss_mb=_peak_rss_mb(args.workload))
        if args.workload == "cli":
            result["known_defects"] = _known_defects()
    elif args.mode == "trace":
        result.update(trace(args, ops, gate))
    if args.mode != "setup":
        result.update(attempted=gate.attempted, failures=gate.failures,
                      digests=gate.first)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
