"""Stochastic single-photon sampler for the movable-splitter dynamics.

Each path is one photon repeatedly hitting the splitter: at every pass it
sits in exactly one loop, and the splitter coefficients give the branching
probabilities. Ensemble frequencies across many paths estimate the same
per-step weights the deterministic weight maps compute, which makes this an
independent check on them. Fixed-splitter dynamics have no per-path story
(the state is a coherent superposition, not a position), so that mode is
refused.

Randomness comes from counter-based Philox streams: path i of an ensemble
draws from the stream keyed base_seed + i, and a path is fully determined
by its seed. One uniform is consumed per step whether or not the topology
leaves a choice, so paths of equal length always consume equal randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (LengthMismatchError, OutOfRangeError,
                     UnsupportedModeError)
from .states import (InteractionMode, SplitterCoefficients, Topology,
                     WeightPair)

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


def require_sampling_mode(mode: InteractionMode) -> None:
    """Refuse every mode but the movable splitter, the one with paths."""
    if mode is not InteractionMode.MOVABLE_SPLITTER:
        raise UnsupportedModeError(
            "unsupported mode for sampling: only movable-splitter dynamics "
            "have per-path statistics")


def check_sigma_bound(sigma_bound: float) -> None:
    """Refuse an agreement bound that is not positive and finite."""
    if not (sigma_bound > 0.0 and math.isfinite(sigma_bound)):
        raise OutOfRangeError(
            f"sigma_bound must be positive and finite, got {sigma_bound!r}")


def _check_draw_args(steps: int, seed: int) -> None:
    if not isinstance(steps, int) or steps < 1:
        raise OutOfRangeError(f"steps must be an integer >= 1, got {steps!r}")
    if not isinstance(seed, int) or seed < 0:
        raise OutOfRangeError(f"seed must be a non-negative integer, got {seed!r}")


def _uniforms(seed: int, steps: int) -> np.ndarray:
    return np.random.Generator(np.random.Philox(key=seed)).random(steps)


def _walk(uniforms: np.ndarray, a1_squared: float, b1_squared: float,
          topology: Topology) -> np.ndarray:
    """Vectorized path walk; rows are paths, True marks the left loop."""
    in_left = np.empty(uniforms.shape, dtype=bool)
    in_left[:, 0] = uniforms[:, 0] < a1_squared  # first reflection choice
    for t in range(1, uniforms.shape[1]):
        prev = in_left[:, t - 1]
        u = uniforms[:, t]
        if topology is Topology.BOTH_CONNECTED:
            in_left[:, t] = np.where(prev, u < a1_squared, u < b1_squared)
        elif topology is Topology.RIGHT_HALF_CONNECTED:
            in_left[:, t] = prev & (u < a1_squared)  # right loop absorbs
        else:
            in_left[:, t] = prev | (u >= b1_squared)  # left loop absorbs
    return in_left


def sample_path(splitter: SplitterCoefficients, topology: Topology,
                steps: int, seed: int,
                mode: InteractionMode = InteractionMode.MOVABLE_SPLITTER,
                ) -> PhotonPath:
    """One photon path of the given length, fully determined by the seed."""
    require_sampling_mode(mode)
    _check_draw_args(steps, seed)
    row = _walk(_uniforms(seed, steps).reshape(1, -1),
                splitter.a1_squared, splitter.b1_squared, topology)[0]
    sides = tuple(Side.LEFT if hit else Side.RIGHT for hit in row)
    return PhotonPath(sides, seed)


def ensemble_frequencies(splitter: SplitterCoefficients, topology: Topology,
                         steps: int, n_paths: int, base_seed: int,
                         mode: InteractionMode = InteractionMode.MOVABLE_SPLITTER,
                         ) -> EnsembleEstimate:
    """Per-step left/right frequencies over paths seeded base_seed + i.

    Aggregates exactly the paths sample_path would return for the seeds
    base_seed, base_seed + 1, ..., base_seed + n_paths - 1.
    """
    require_sampling_mode(mode)
    _check_draw_args(steps, base_seed)
    if not isinstance(n_paths, int) or n_paths < 1:
        raise OutOfRangeError(
            f"n_paths must be an integer >= 1, got {n_paths!r}")
    uniforms = np.empty((n_paths, steps))
    for i in range(n_paths):
        uniforms[i] = _uniforms(base_seed + i, steps)
    in_left = _walk(uniforms, splitter.a1_squared, splitter.b1_squared,
                    topology)
    w_left = in_left.mean(axis=0)
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
    check_sigma_bound(sigma_bound)
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
