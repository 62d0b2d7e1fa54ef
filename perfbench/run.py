"""splitloop benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload {trajectory,sweep,ensemble,cli,all}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (src/splitloop must be there). The
workload runs in fresh single-threaded child processes (worker.py); `all`
runs the four in turn and names its metrics <workload>.<metric>. With
--trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1, the per-layer metrics of a traced run. Lines
before it are a readable summary. Per-op digests, the environment and all
raw figures go to .bench_out/ in the checkout. Times are scaled to a
reference machine speed (calibration.py); the raw ones are in the summary
and the results file. See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark dir

import calibration  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 8
SETUP_CALIBRATION = 3  # interpreter starts timed before each set-up sample
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# What one unit of work_per_s is on each workload.
WORK_UNIT = {"trajectory": "passes_per_s", "sweep": "cells_per_s",
             "ensemble": "path_steps_per_s", "cli": "ops_per_s"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Cache bytecode as an installed package would, but under .bench_out/
    # rather than beside the sources, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    return env


def worker(env, *args: str) -> tuple[float, dict]:
    """Run worker.py; returns (perf_counter at spawn, its JSON result)."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode())
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return t0, json.loads(proc.stdout.decode().splitlines()[-1])


def calibrated_worker(env, *args: str) -> tuple[float, float, dict]:
    """worker() after calibrating: (raw set-up s, scaled set-up s, result).

    Set-up starts an interpreter, so it is scaled by interpreter starts.
    """
    cal = [calibration.spawn_sample(env) for _ in range(SETUP_CALIBRATION)]
    t0, r = worker(env, *args)
    raw = r["ready"] - t0
    scaled = calibration.scale(raw, cal, calibration.SPAWN_REFERENCE_S)
    return raw, scaled, r


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it."""
    xs = sorted(samples)
    n = len(xs)
    p = max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50
    return p, xs[max(0, math.ceil(p * n / 100) - 1)]


def end_to_end(setups: list[float], raw_setups: list[float],
               r: dict) -> tuple[dict, dict]:
    """End-to-end metrics from a measure run; the second dict is context."""
    per_op = r["latencies"]
    samples = [x for xs in per_op.values() for x in xs]
    raw = [x for xs in r["raw_latencies"].values() for x in xs]
    busy = sum(samples)
    p, tail_s = tail(samples)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": busy / r["rounds"],
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "work_per_s": r["units_per_round"] * r["rounds"] / busy,
        "peak_rss_mb": r["peak_rss_mb"],
    }, {"op_tail_percentile": p, "op_samples": len(samples),
        "rounds": r["rounds"],
        "slowdown": (statistics.median(r["calibration"])
                     / r["calibration_reference_s"]),
        "raw_setup_s": statistics.median(raw_setups),
        "raw_wall_s": sum(raw) / r["rounds"],
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "setup_samples_s": setups, "raw_setup_samples_s": raw_setups,
        "latencies_s": per_op, "raw_latencies_s": r["raw_latencies"],
        "calibration_s": r["calibration"]}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:  # not Linux, or not readable here
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            caches[f"L{(index / 'level').read_text().strip()}"
                   f"{(index / 'type').read_text().strip()[0].lower()}"] = (
                (index / "size").read_text().strip())
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": pkg("numpy"),
            "click": pkg("click"), "git_commit": git_commit(),
            "source_sha256": source.hexdigest()}


def run_workload(args, workload: str) -> dict:
    """Run one workload, write its results file and print its summary."""
    env = child_env()
    common = ["--workload", workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--out-dir", str(OUT_DIR)]
    info: dict = {}
    if args.trace:
        _, r = worker(env, *common, "--mode", "trace")
        units = LAYER_METRICS
        metrics = {k: r["metrics"][k] for k in LAYER_METRICS}
        info = {"absent_spans": r["absent"], "traced_rounds":
                r["traced_rounds"], "spans": r["spans"],
                "sweep_cells": r["metrics"]["analysis.cells"],
                "sweep_cells_converged":
                r["metrics"]["analysis.cells_converged"]}
    else:
        # Set-up probes before and after the timed run, so that they sample
        # the machine over the same window as the measurement.
        probes = [calibrated_worker(env, *common, "--mode", "setup")
                  for _ in range(SETUP_PROBES // 2)]
        probes.append(calibrated_worker(env, *common, "--mode", "measure"))
        r = probes[-1][2]
        probes += [calibrated_worker(env, *common, "--mode", "setup")
                   for _ in range(SETUP_PROBES // 2)]
        units = END_TO_END
        metrics, info = end_to_end([p[1] for p in probes],
                                   [p[0] for p in probes], r)
        info[WORK_UNIT[workload]] = metrics["work_per_s"]
        if "known_defects" in r:
            info["known_defects"] = r["known_defects"]

    attempted, failed = r["attempted"], len(r["failures"])
    record = {"workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "metrics": metrics, **info,
              "attempted": attempted, "failures": r["failures"],
              "digests": r["digests"]}
    name = f"{workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1))

    env_rec = record["environment"]
    print(f"# splitloop benchmark: workload={workload} seed={args.seed} "
          f"trace={args.trace}")
    print(f"# nproc={env_rec['nproc']} cpu={env_rec['cpu']!r} "
          f"caches={env_rec['caches']} python={env_rec['python']} "
          f"numpy={env_rec['numpy']} click={env_rec['click']} "
          f"commit={env_rec['git_commit']}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    for key, value in info.items():
        if not key.endswith("_samples_s") and key not in (
                "latencies_s", "raw_latencies_s", "calibration_s"):
            print(f"# {key}: {value}")
    print(f"# failed_ratio = {failed}/{attempted}")
    for op_id, reason in r["failures"][:10]:
        print(f"# FAILED {op_id}: {reason.strip().splitlines()[-1]}")
    print(f"# per-op digests and raw figures: .bench_out/{name}.json")
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "splitloop" / "__init__.py").is_file():
        print(f"error: no splitloop sources under {ROOT / 'src'}; run from "
              f"a source checkout", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    # Like `pip install`: compile bytecode once, before anything is timed.
    subprocess.run([sys.executable, "-c",
                    "import compileall, splitloop.cli, click.testing; "
                    f"compileall.compile_dir({str(BENCH_DIR)!r}, quiet=1)"],
                   cwd=ROOT, env=child_env(), timeout=WORKER_TIMEOUT_S,
                   check=True)
    if args.workload != "all":
        result = run_workload(args, args.workload)
    else:  # one line of metrics named <workload>.<metric>
        results = {w: run_workload(args, w) for w in WORKLOADS}
        result = {
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()}}
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
