"""Machine-speed calibration: scale measured times to a reference speed.

The benchmark's host is shared. Its speed drifts, as neighbours load it,
by up to a factor of two over stretches of seconds to minutes, and the
drift reaches CPU time as well as wall time. A fixed piece of work that calls nothing of
splitloop is timed next to every op; the op's time is then scaled by the
work's reference time over the calibration time around it. A slow
stretch lengthens both, so the scaled time stays put, while a change to
splitloop moves only the op. The raw times are kept beside the scaled
ones in every result.

There are two probes, because the host's drift reaches in-process work
and process start-up differently:

  sample        a pure-Python loop of about 1 ms, next to library ops
  spawn_sample  a bare interpreter's start and exit, next to ops and
                set-ups that start a process (the cli workload, setup_s)
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

# Each probe's time at the reference speed, round figures near its median on
# a 2-vCPU Intel Xeon host in a fast stretch (sample: 0.55-1.5 ms seen over
# an hour; spawn_sample: about 57 ms when sample took 1.2 ms).
REFERENCE_S = 1.0e-3
SPAWN_REFERENCE_S = 50e-3
_LOOP = 5000


def _turn(x: float, y: float) -> tuple[float, float]:
    return x * 0.6 + y * 0.8, x * 0.8 - y * 0.6


def sample() -> float:
    """Seconds one fixed loop of float arithmetic and calls takes now."""
    t0 = perf_counter()
    x, y, acc = 0.3, 0.7, 0.0
    for _ in range(_LOOP):
        x, y = _turn(x, y)
        acc += x * x + y * y
    return perf_counter() - t0


def spawn_sample(env: dict[str, str] | None = None) -> float:
    """Seconds a bare interpreter takes to start and exit now.

    It is started as workloads.run_cli starts splitloop. With pipes, the
    wait ends at the child's exit; without them, a wait with a timeout
    polls, and the sample would be rounded up by up to 50 ms.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env or os.environ,
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                   timeout=60, check=True)
    return perf_counter() - t0


def scale(raw: float, calibration: list[float],
          reference: float = REFERENCE_S) -> float:
    """`raw` seconds at the reference speed, given nearby samples."""
    return raw * reference / statistics.median(calibration)


def scale_series(raw: list[float], calibration: list[float],
                 reference: float = REFERENCE_S) -> list[float]:
    """Scale each time by the samples taken just before and just after it.

    `calibration` has one sample more than `raw`, all in time order:
    `calibration[i]` was taken right before `raw[i]`, and
    `calibration[i + 1]` right after it. Wider windows were tried; they
    follow the short slow spells that make up an op's tail less well.
    """
    assert len(calibration) == len(raw) + 1
    return [scale(x, calibration[i:i + 2], reference)
            for i, x in enumerate(raw)]
