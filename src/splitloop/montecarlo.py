"""Stochastic single-photon sampler for the movable-splitter dynamics.

Each path is one photon repeatedly hitting the splitter: at every pass it
sits in exactly one loop, and the splitter coefficients give the branching
probabilities. Ensemble frequencies across many paths estimate the same
per-step weights the deterministic weight maps compute, which makes this an
independent check on them. Fixed-splitter dynamics have no per-path story
(the state is a coherent superposition, not a position), so the sampler
takes no mode: every path follows the movable-splitter wirings. `splitloop
mc` refuses the fixed-splitter mode itself, before numpy loads.

Randomness comes from counter-based Philox streams: path i of an ensemble
draws from the stream keyed base_seed + i, and a path is fully determined
by its seed. One uniform is consumed per step whether or not the topology
leaves a choice, so paths of equal length always consume equal randomness.
Keys are 128-bit, so every seed of an ensemble must be below 2**128.
Ensembles are drawn, walked and counted a chunk of paths at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError
from .maps import raw_step
from .states import (InteractionMode, SplitterCoefficients, Topology,
                     WeightPair, _check_positive_finite, _check_sampling)

GENERATOR_NAME = "philox"


class Side(Enum):
    LEFT = "L"
    RIGHT = "R"


@dataclass(frozen=True)
class PhotonPath:
    """Loop occupied at each pass, plus the seed that produced the path."""

    sides: tuple[Side, ...]
    seed: int


@dataclass(frozen=True)
class EnsembleEstimate:
    """Per-step occupation frequencies over n_paths independent paths."""

    w_left: tuple[float, ...]
    w_right: tuple[float, ...]
    stderr: tuple[float, ...]  # binomial, sqrt(w (1 - w) / n_paths)
    n_paths: int
    splitter: SplitterCoefficients
    topology: Topology
    base_seed: int
    generator: str = GENERATOR_NAME


@dataclass(frozen=True)
class StepAgreement:
    step: int
    empirical: float
    analytic: float
    stderr: float
    z: float
    passed: bool


# Philox4x64-10 (Salmon et al., SC'11) exactly as numpy's Philox computes
# it: the key k is the words (k mod 2**64, k >> 64), the counter starts at 1
# and counts blocks, each block gives four uint64 words, and a double is
# (word >> 11) * 2**-53.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

#: Paths of up to this many steps are drawn by the key-vectorized Philox,
#: longer ones by one numpy Philox re-keyed per path. On a 2 vCPU Xeon the
#: vectorized draw costs about 40 ns per step plus about 270 us a call, the
#: re-keyed one about 4 us per path plus 7 ns per step; whole ensembles
#: cross between 128 and 160 steps.
VECTOR_MAX_STEPS = 128
#: A chunk holds CHUNK_PATH_STEPS path steps, but at least CHUNK_MIN_PATHS
#: paths (a floor that binds only above VECTOR_MAX_STEPS); memory stays at
#: one chunk however many paths an ensemble has. Measured end to
#: end on the same machine: short-path ensembles run fastest near 2**16 path
#: steps a chunk, and 2**20 is 1.4-1.8x slower, since the vectorized draw's
#: uint64 temporaries (up to 48 bytes a path step) then leave the cache.
#: The walk pays about 2 us per step per chunk, so long paths want wide
#: chunks: from 150 to 20000 steps, 512 paths ran as fast as 1024, and 256
#: up to 1.6x slower.
CHUNK_PATH_STEPS = 2 ** 16
CHUNK_MIN_PATHS = 512


def _chunk_paths(steps: int) -> int:
    return max(CHUNK_PATH_STEPS // steps, CHUNK_MIN_PATHS)


def _key_words(base_seed: int, n_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """Philox key words (k mod 2**64, k >> 64) of the keys base_seed + i."""
    lo = np.uint64(base_seed % 2 ** 64)
    k0 = np.arange(n_paths, dtype=np.uint64) + lo
    k1 = (k0 < lo).astype(np.uint64) + np.uint64(base_seed >> 64)  # carry
    return k0, k1


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, x uint64."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> _SHIFT32, x & _LOW32
    hi, mid_a, mid_b = x_hi * m_hi, x_lo * m_hi, x_hi * m_lo
    carry = x_lo * m_lo  # in place from here on: 20 of these per draw
    carry >>= _SHIFT32
    carry += mid_a & _LOW32
    carry += mid_b & _LOW32
    carry >>= _SHIFT32
    hi += carry
    mid_a >>= _SHIFT32
    hi += mid_a
    mid_b >>= _SHIFT32
    hi += mid_b
    return hi, x * np.uint64(m)


def _philox_uniforms(base_seed: int, n_paths: int, steps: int) -> np.ndarray:
    """Philox4x64-10 over the keys base_seed + i at once, one row per key.

    Blocks run down the first axis and keys along the second, so every
    array operation has a long contiguous inner loop; the rows come back as
    a transposed view of that step-major layout.
    """
    k0, k1 = _key_words(base_seed, n_paths)
    blocks = -(-steps // 4)
    x0 = np.arange(1, blocks + 1, dtype=np.uint64).reshape(-1, 1)
    x1 = x2 = x3 = np.zeros_like(x0)
    for r in range(10):
        if r:
            k0 = k0 + np.uint64(_PHILOX_W[0])
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        hi1 ^= x1
        hi0 ^= x3
        x0, x1, x2, x3 = hi1 ^ k0, lo1, hi0 ^ k1, lo0
    words = np.stack(np.broadcast_arrays(x0, x1, x2, x3), axis=1)
    words = words.reshape(4 * blocks, n_paths)[:steps] >> np.uint64(11)
    return (words * 2.0 ** -53).T


def _rekeyed_uniforms(base_seed: int, n_paths: int, steps: int) -> np.ndarray:
    """One numpy Philox, re-keyed to base_seed + i before drawing row i."""
    bit_generator = np.random.Philox(key=0)
    generator = np.random.Generator(bit_generator)
    keys = np.stack(_key_words(base_seed, n_paths), axis=1)
    fresh = np.zeros(4, dtype=np.uint64)  # counter and buffer of a new key
    state = {"bit_generator": "Philox",
             "state": {"counter": fresh, "key": keys[0]},
             "buffer": fresh, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((n_paths, steps))
    for i in range(n_paths):
        state["state"]["key"] = keys[i]
        bit_generator.state = state
        generator.random(out=out[i])
    return out


def _uniforms(base_seed: int, n_paths: int, steps: int) -> np.ndarray:
    """Row i: the first `steps` doubles of the Philox stream keyed base_seed + i.

    Bit for bit what a numpy Generator on a Philox keyed base_seed + i
    returns from .random(steps).
    """
    if steps <= VECTOR_MAX_STEPS:
        return _philox_uniforms(base_seed, n_paths, steps)
    return _rekeyed_uniforms(base_seed, n_paths, steps)


# Per wiring, the step rule in_left = (prev & keep) ^ flip as (keep, flip)
# of a = u < a1^2 (left stays left) and b = u < b1^2 (right moves left):
# both connected gives a where prev is set and b elsewhere; a right loop
# cut open absorbs (flip is nothing); a left loop cut open absorbs, since
# (prev & b) ^ ~b is prev | ~b. The walk turns keep into its result in
# place, so keep may be a or b itself but must not be flip.
_TRANSITIONS = {
    Topology.BOTH_CONNECTED: lambda a, b: (a ^ b, b),
    Topology.RIGHT_HALF_CONNECTED: lambda a, b: (a, None),
    Topology.LEFT_HALF_CONNECTED: lambda a, b: (b, ~b),
}


def _walk(uniforms: np.ndarray, a1_squared: float, b1_squared: float,
          topology: Topology) -> np.ndarray:
    """Walk the paths whose uniforms are the rows; returns steps x paths,
    True where the photon is in the left loop after that pass."""
    a = (uniforms < a1_squared).T.copy()
    b = (uniforms < b1_squared).T.copy()
    in_left, flip = _TRANSITIONS[topology](a, b)
    in_left[0] = a[0]  # first reflection choice, every wiring
    for t in range(1, len(in_left)):
        row = in_left[t]
        row &= in_left[t - 1]
        if flip is not None:
            row ^= flip[t]
    return in_left


def sample_path(splitter: SplitterCoefficients, topology: Topology,
                steps: int, seed: int) -> PhotonPath:
    """One photon path of the given length, fully determined by the seed."""
    steps, seed, _ = _check_sampling(steps, seed)
    # names a bad splitter or topology before any draw
    raw_step(InteractionMode.MOVABLE_SPLITTER, topology, splitter)
    column = _walk(_rekeyed_uniforms(seed, 1, steps), splitter.a1_squared,
                   splitter.b1_squared, topology)[:, 0]
    sides = tuple(Side.LEFT if hit else Side.RIGHT for hit in column)
    return PhotonPath(sides, seed)


def ensemble_frequencies(splitter: SplitterCoefficients, topology: Topology,
                         steps: int, n_paths: int,
                         base_seed: int) -> EnsembleEstimate:
    """Per-step left/right frequencies over paths seeded base_seed + i.

    Aggregates exactly the paths sample_path would return for the seeds
    base_seed, base_seed + 1, ..., base_seed + n_paths - 1, a chunk of paths
    at a time.
    """
    steps, base_seed, n_paths = _check_sampling(steps, base_seed, n_paths)
    # names a bad splitter or topology before any draw
    raw_step(InteractionMode.MOVABLE_SPLITTER, topology, splitter)
    chunk = _chunk_paths(steps)
    counts = np.zeros(steps, dtype=np.int64)
    for start in range(0, n_paths, chunk):
        # one expression, so no chunk outlives its iteration
        counts += np.count_nonzero(_walk(
            _uniforms(base_seed + start, min(chunk, n_paths - start), steps),
            splitter.a1_squared, splitter.b1_squared, topology), axis=1)
    w_left = counts / n_paths  # the same bits as the mean of the 0/1 rows
    w_right = 1.0 - w_left
    stderr = np.sqrt(w_left * w_right / n_paths)
    return EnsembleEstimate(tuple(float(x) for x in w_left),
                            tuple(float(x) for x in w_right),
                            tuple(float(x) for x in stderr),
                            n_paths, splitter, topology, base_seed)


def agreement_report(estimate: EnsembleEstimate,
                     analytic: Sequence[WeightPair],
                     sigma_bound: float = 4.0) -> list[StepAgreement]:
    """Per-step z-scores of the ensemble against an analytic weight series."""
    _check_positive_finite("sigma_bound", sigma_bound)
    if len(analytic) != len(estimate.w_left):
        raise LengthMismatchError(
            f"analytic series has {len(analytic)} steps, estimate has "
            f"{len(estimate.w_left)}")
    report = []
    for i, expected in enumerate(analytic):
        empirical = estimate.w_left[i]
        stderr = estimate.stderr[i]
        diff = abs(empirical - expected.w_left)
        if diff == 0.0:
            z = 0.0
        elif stderr == 0.0:
            z = math.inf
        else:
            z = diff / stderr
        report.append(StepAgreement(i + 1, empirical, expected.w_left,
                                    stderr, z, z <= sigma_bound))
    return report
