"""Stochastic single-photon sampler for the movable-splitter dynamics.

Each path is one photon repeatedly hitting the splitter: at every pass it
sits in exactly one loop, and the splitter coefficients give the branching
probabilities. Ensemble frequencies across many paths estimate the same
per-step weights the deterministic weight maps compute, which makes this an
independent check on them. Fixed-splitter dynamics have no per-path story
(the state is a coherent superposition, not a position), so the sampler
takes no mode: every path follows the movable-splitter wirings. `splitloop
mc` refuses the fixed-splitter mode itself, before numpy loads. A single
path is an ensemble of one, whose w_left is 1.0 or 0.0 at each pass.

Randomness comes from counter-based Philox streams: path i of an ensemble
draws from the stream keyed base_seed + i, and a path is fully determined
by its seed. Word t of a stream is always step t's choice, whether or not
the topology leaves one; an absorbed path's later words are never drawn.
Keys are 128-bit, so every seed of an ensemble must be below 2**128.

Paths are drawn a block of raw uint64 words at a time. Each block is
compared with the integer thresholds ceil(p * 2**53) * 2**11 of p = a1^2
and b1^2, and packed 8 paths to a byte as soon as it is drawn. A word is
below p's threshold exactly when the double numpy makes of it, (word >> 11)
* 2**-53, is below p, so the choices are those of the doubles. The packed
rows are walked with bitwise operations (multi-spin coding, Jacobs & Rebbi
1981) and counted by NumPy's popcount on 64-bit words, a chunk of paths at
a time, and a path longer than one time slice a slice at a time: its stream
restarts at the slice's Philox block counter, and the walk carries the
chunk's last packed row. In the two half-connected wirings one side
absorbs: after each slice the chunk is narrowed to the paths still off that
side, and the first slice is sized so that about one path of the chunk
outlives it. Memory stays bounded in paths and in steps, and run time in the
half wirings grows with paths x time to absorption.
"""

from __future__ import annotations

import math
from operator import attrgetter
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import LengthMismatchError, ModeMismatchError
from .maps import raw_step
from .states import (InteractionMode, SplitterCoefficients, Topology,
                     WeightPair, _check_positive_finite, _check_sampling,
                     _check_type, _new, _setters)

GENERATOR_NAME = "philox"


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


@dataclass(frozen=True, slots=True)
class StepAgreement:
    step: int
    empirical: float
    analytic: float
    stderr: float
    z: float
    passed: bool


_AGREEMENT_SETTERS = _setters(StepAgreement)


# Philox4x64-10 (Salmon et al., SC'11) exactly as numpy's Philox computes
# it: the key k is the words (k mod 2**64, k >> 64), bumped by _PHILOX_W
# after each of the ten rounds, the counter starts at 1 and counts blocks,
# each block gives four uint64 words, and a double is (word >> 11) * 2**-53.
_PHILOX_M = np.array((0xD2E7470EE14C6C93, 0xCA5A826395121157), np.uint64)
_PHILOX_W = np.array((0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B), np.uint64)

#: A draw of up to this many steps, a path's or a time slice's, is made by
#: the key-vectorized Philox, a longer one by one numpy Philox re-keyed per
#: path. Each draw and its time-major copy tie at about 60-72 steps on
#: blocks of 1000-2700 keys, and at 48 the vectorized one takes 0.68-0.84x
#: the re-keyed one's time. Timings: the CHANGES entry of BENCH_pr37.json.
VECTOR_MAX_STEPS = 48
#: A draw block holds at most CHUNK_PATH_STEPS words, a whole number of
#: bytes of 8 paths, and a time slice CHUNK_PATH_STEPS // 8 steps, so that a
#: block of a slice holds at least 8 paths. Each block is packed as soon as
#: it is drawn, so no word array outlives it; past 2**16 the vectorized
#: draw's uint64 temporaries leave the cache. Timings: the CHANGES entry of
#: BENCH_pr23.json.
CHUNK_PATH_STEPS = 2 ** 16
#: The walk and the count take the packed choices of up to this many path
#: steps at once, 2 MB per packed array: the both-connected walk pays a
#: Python step per row whatever its width, so a chunk is wide. Timings: the
#: CHANGES entry of BENCH_pr23.json.
_WALK_PATH_STEPS = 2 ** 24


def _paths_within(path_steps: int, steps: int) -> int:
    """The most paths of `steps` steps that fit in path_steps, rounded down
    to whole bytes of 8 paths, but at least 8."""
    return max(path_steps // steps // 8 * 8, 8)


def _packed_width(n_paths: int) -> int:
    """Bytes in a packed row of n_paths paths: whole 8-byte words, so that
    a running reduction and the count can take the rows as uint64."""
    return -(-n_paths // 64) * 8


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, x uint64.

    The high word is summed from the products of 32-bit halves, and no term
    overflows 64 bits: such a product is at most (2**32 - 1)**2 = 2**64 -
    2**33 + 1, so adding less than 2**32 to it, as u and v do, stays below
    2**64, and every partial sum of hi is at most the high word itself.
    """
    m_hi, m_lo = m >> 32, m & 0xFFFFFFFF
    x_hi, x_lo = x >> 32, x & 0xFFFFFFFF
    u = x_hi * m_lo + (x_lo * m_lo >> 32)
    v = x_lo * m_hi + (u & 0xFFFFFFFF)
    hi = x_hi * m_hi + (u >> 32) + (v >> 32)
    return hi, x * m


# Draws take the keys of their paths as `keys`, a uint32 array of offsets:
# row i draws from the stream keyed base_seed + keys[i].
def _philox_uniforms(base_seed: int, keys: np.ndarray, t0: int,
                     steps: int) -> np.ndarray:
    """Philox4x64-10 over all keys at once, one row per key, from block
    counter t0 / 4 + 1.

    Blocks run down the first axis and keys along the second, so every
    array operation has a long contiguous inner loop; the rows come back as
    a transposed view of that step-major layout.
    """
    # key words (k mod 2**64, k >> 64); keys is uint32, and its sum with a
    # Python int would stay uint32
    lo = base_seed % 2 ** 64
    k0 = keys.astype(np.uint64) + lo
    k1 = (k0 < lo).astype(np.uint64) + (base_seed >> 64)  # carry
    first, blocks = t0 // 4 + 1, -(-steps // 4)
    x0 = np.arange(first, first + blocks, dtype=np.uint64).reshape(-1, 1)
    x1 = x2 = x3 = np.zeros_like(x0)
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        k0 = k0 + _PHILOX_W[0]
        k1 = k1 + _PHILOX_W[1]
    # every word is blocks x keys from round 2 on
    words = np.stack((x0, x1, x2, x3), axis=1)
    return words.reshape(4 * blocks, len(k0))[:steps].T


def _rekeyed_uniforms(base_seed: int, keys: np.ndarray, t0: int,
                      steps: int) -> np.ndarray:
    """One numpy Philox, re-keyed to row i's key at block counter t0 / 4
    before drawing row i."""
    bit_generator = np.random.Philox(0)  # seeded: reads no OS entropy
    # With its buffer spent at counter c, a Philox next draws block c + 1:
    # words 4c .. 4c + 3 of the stream, numbering from 0.
    keyed = {"counter": [t0 // 4, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": keyed,
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
    out = np.empty((len(keys), steps), dtype=np.uint64)
    for i, offset in enumerate(keys.tolist()):
        key = base_seed + offset
        keyed["key"] = [key % 2 ** 64, key >> 64]
        bit_generator.state = state
        out[i] = bit_generator.random_raw(steps)
    return out


def _uniforms(base_seed: int, keys: np.ndarray, t0: int,
              steps: int) -> np.ndarray:
    """Row i: uint64 words t0 .. t0 + steps - 1 of the Philox stream of the
    i-th key of `keys`, t0 a multiple of 4.

    Bit for bit what a numpy Philox keyed with that key returns from
    .random_raw(t0 + steps)[t0:].
    """
    if steps <= VECTOR_MAX_STEPS:
        return _philox_uniforms(base_seed, keys, t0, steps)
    return _rekeyed_uniforms(base_seed, keys, t0, steps)


def _threshold(p: float) -> int:
    """The least word w whose double (w >> 11) * 2**-53 is not below p, p
    in [0, 1]: 2**64 when p is 1. p * 2**53 is exact for every such float,
    so w >> 11 is below it exactly when it is below its ceiling."""
    return math.ceil(p * 2.0 ** 53) << 11


def _packed_choices(base_seed: int, keys: np.ndarray, t0: int,
                    steps: int, a1_squared: float,
                    b1_squared: float) -> tuple[np.ndarray, np.ndarray]:
    """(a, b), each steps x _packed_width(n) uint8 for n keys: bit j of row
    t (the high bit of a byte first) is set where the double of word t0 + t
    of the j-th key's path is below a1^2, in a, or b1^2, in b, and the bits
    past the last path are clear. Drawn and packed a block at a time."""
    n_paths = len(keys)
    block = _paths_within(CHUNK_PATH_STEPS, steps)
    a = np.zeros((steps, _packed_width(n_paths)), dtype=np.uint8)
    b = np.zeros_like(a)
    thresholds = ((a, _threshold(a1_squared)), (b, _threshold(b1_squared)))
    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        # time-major: a view of the vectorized draw, a copy of the re-keyed
        words = np.ascontiguousarray(
            _uniforms(base_seed, keys[start:stop], t0, steps).T)
        columns = slice(start // 8, -(-stop // 8))
        for packed, threshold in thresholds:
            # a Python int compares by value: 2**64, at p = 1, takes all
            bits = words < threshold
            if bits.shape[1] % 8:  # the last block's partial byte
                packed[:, columns] = np.packbits(bits, axis=1)
            else:  # rows of whole bytes pack as one run, 6x faster
                packed[:, columns] = np.packbits(bits).reshape(steps, -1)
    return a, b


class _Absorbing(NamedTuple):
    """How a half wiring walks: its step rule is a running reduction over
    the steps of one packed row of choices, which numpy takes in one call."""

    rows: Callable[[np.ndarray, np.ndarray], np.ndarray]  # of (a, b)
    reduce: np.ufunc
    side: int  # the packed bit of the absorbing side
    survival: Callable[[SplitterCoefficients], float]  # a step off that side


# With a = u < a1^2 (left stays left) and b = u < b1^2 (right moves left,
# both loops connected): a right loop cut open keeps a left path left when a
# and a right (0) one right always, so in_left = prev & a, a running AND of
# a; a left loop cut open keeps a left (1) path left always and a right one
# right when b, so in_left = prev | ~b, a running OR of ~b. Both turn the
# row they reduce into their result.
_ABSORBING = {
    Topology.RIGHT_HALF_CONNECTED: _Absorbing(
        lambda a, b: a, np.bitwise_and, 0, attrgetter("a1_squared")),
    Topology.LEFT_HALF_CONNECTED: _Absorbing(
        lambda a, b: np.invert(b, out=b), np.bitwise_or, 1,
        attrgetter("b1_squared")),
}


def _walk(a: np.ndarray, b: np.ndarray, topology: Topology,
          prev: np.ndarray | None) -> np.ndarray:
    """Walk the paths whose packed choices are a and b on from the packed
    row prev of the step before, or from pass 1 when prev is None; pass 1
    is the first reflection choice, a, in every wiring.

    Returns rows packed as a and b are, in the memory of one of them, a bit
    set where the photon is in the left loop after that pass.
    """
    if topology in _ABSORBING:
        absorbing = _ABSORBING[topology]
        rows = absorbing.rows(a, b)
        rows[0] = a[0] if prev is None else absorbing.reduce(rows[0], prev)
        words = rows.view(np.uint64)  # 8x fewer elements than the bytes
        absorbing.reduce.accumulate(words, axis=0, out=words)
        return rows
    # Both loops connected: in_left = (prev & (a ^ b)) ^ b, that is a where
    # prev is set and b elsewhere, a step at a time, in place in a. Pass 1
    # goes on from a row of ones, which gives it a.
    if prev is None:
        prev = np.full(a.shape[1], 0xFF, dtype=np.uint8)
    in_left = np.bitwise_xor(a, b, out=a)
    for row, b_row in zip(in_left, b):
        row &= prev
        row ^= b_row
        prev = row
    return in_left


def _first_slice(survival: float, paths: int, span: int) -> int:
    """Steps in the first time slice of a chunk of `paths` paths, each off
    the absorbing side after t steps with probability survival**t: the
    first multiple of 4 after which about one path is left, at most span.

    Later slices draw only the paths still off that side. A shorter first
    slice would leave more of them to draw one by one, and a longer one
    would draw more steps of paths already absorbed. Ensembles that never or
    barely absorb keep one slice, with no extra draw or re-key. Timings: the
    CHANGES entry of BENCH_pr25.json.
    """
    if survival >= 1.0:
        return span
    t = 1 if survival <= 0.0 else math.log(paths) / -math.log(survival)
    return min(max(4, -(-math.ceil(t) // 4) * 4), span)


def _survivors(keys: np.ndarray, last: np.ndarray,
               absorbed: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, packed row) of the paths of `keys` whose bit in the packed row
    `last` is not the absorbing bit; the row carries every survivor's bit,
    1 - absorbed, and no other bit that a count reads."""
    alive = np.flatnonzero(np.unpackbits(last, count=len(keys)) != absorbed)
    return keys[alive], np.full(
        _packed_width(len(alive)), 0xFF * (1 - absorbed), dtype=np.uint8)


def ensemble_frequencies(splitter: SplitterCoefficients, topology: Topology,
                         steps: int, n_paths: int,
                         base_seed: int) -> EnsembleEstimate:
    """Per-step left/right frequencies over paths seeded base_seed + i.

    Path i draws u_1 .. u_steps, the first `steps` doubles that a numpy
    Generator on Philox(key=base_seed + i) returns from .random(steps),
    compared as the words they are made of. It is in the left loop after
    pass 1 when u_1 < a1^2. After that, a photon in the left loop stays
    there when u_t < a1^2 (always, in the left-half wiring); one in the
    right loop moves left when u_t < b1^2 in the both-connected wiring,
    never in the right-half one, and when u_t >= b1^2 in the left-half one.
    Paths are walked and counted a chunk at a time, and each chunk a time
    slice at a time. In a half wiring, a slice draws only the paths that
    earlier slices left off the absorbing side.
    """
    steps, base_seed, n_paths = _check_sampling(steps, base_seed, n_paths)
    # names a bad splitter or topology before any draw
    raw_step(InteractionMode.MOVABLE_SPLITTER, topology, splitter)
    span = min(steps, CHUNK_PATH_STEPS // 8)  # a multiple of 4 when < steps
    chunk = _paths_within(_WALK_PATH_STEPS, span)
    absorbing = _ABSORBING.get(topology)
    counts = np.zeros(steps, dtype=np.int64)
    for start in range(0, n_paths, chunk):
        # the chunk's paths, in order, keyed from base_seed + start
        keys = np.arange(min(chunk, n_paths - start), dtype=np.uint32)
        first = span
        if absorbing is not None and steps > VECTOR_MAX_STEPS:
            first = _first_slice(absorbing.survival(splitter), len(keys),
                                 span)
        ends = [*range(first, steps, span), steps]
        last = None  # the packed row at the end of the slice before
        for t0, t1 in zip([0, *ends], ends):
            in_left = _walk(*_packed_choices(
                base_seed + start, keys, t0, t1 - t0, splitter.a1_squared,
                splitter.b1_squared), topology, last)
            last = in_left[-1].copy()
            paths = len(keys)
            # clear the bits past the last path, which ~b sets
            in_left &= np.packbits(np.arange(8 * in_left.shape[1]) < paths)
            counts[t0:t1] += np.bitwise_count(in_left.view(np.uint64)).sum(
                axis=1, dtype=np.int64)
            del in_left  # freed before the next slice is drawn
            if absorbing is not None and t1 < steps:
                keys, last = _survivors(keys, last, absorbing.side)
                if absorbing.side:  # one absorbed on the left counts from now
                    counts[t1:] += paths - len(keys)
                if not len(keys):
                    break
    w_left = counts / n_paths  # the same bits as the mean of the 0/1 rows
    w_right = 1.0 - w_left
    stderr = np.sqrt(w_left * w_right / n_paths)
    return EnsembleEstimate(tuple(w_left.tolist()), tuple(w_right.tolist()),
                            tuple(stderr.tolist()), n_paths, splitter,
                            topology, base_seed)


def agreement_report(estimate: EnsembleEstimate,
                     analytic: Sequence[WeightPair],
                     sigma_bound: float = 4.0) -> list[StepAgreement]:
    """Per-step z-scores of the ensemble against an analytic weight series.

    Refuses, in this order: an estimate of another type, an `analytic`
    with no length, a bad `sigma_bound`, a length other than the
    estimate's, an estimate with a stderr count, then a w_right count,
    other than its step count, and then any entry that is not a
    WeightPair. A step's z is |empirical - analytic| / stderr, 0 where the
    difference is 0 and inf where only stderr is; it passes when z <=
    sigma_bound. z and passed are computed over all steps at once, and the
    rows built last.
    """
    _check_type("estimate", estimate, EnsembleEstimate)
    try:
        n_steps = len(analytic)
    except TypeError:
        raise ModeMismatchError("analytic must be a sequence of WeightPair, "
                                f"got {type(analytic).__name__}") from None
    sigma_bound = _check_positive_finite("sigma_bound", sigma_bound)
    if n_steps != len(estimate.w_left):
        raise LengthMismatchError(
            f"analytic series has {n_steps} steps, estimate has "
            f"{len(estimate.w_left)}")
    for name in ("stderr", "w_right"):
        if len(getattr(estimate, name)) != n_steps:
            raise LengthMismatchError(f"estimate has {n_steps} steps, its "
                                      f"{name} {len(getattr(estimate, name))}")
    for entry in analytic:
        _check_type("analytic entry", entry, WeightPair)
    expected = [pair.w_left for pair in analytic]
    diff = np.abs(np.subtract(estimate.w_left, expected))
    with np.errstate(divide="ignore", invalid="ignore"):  # inf at stderr 0
        z = np.where(diff == 0.0, 0.0, diff / estimate.stderr)
    columns = (range(1, n_steps + 1), estimate.w_left, expected,
               estimate.stderr, z.tolist(), (z <= sigma_bound).tolist())
    report = [_new(StepAgreement) for _ in range(n_steps)]
    for setter, column in zip(_AGREEMENT_SETTERS, columns):
        for row, value in zip(report, column):
            setter(row, value)
    return report
