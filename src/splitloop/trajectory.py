"""Deterministic multi-step evolution with optional topology switching.

Step indexing starts at n = 1, which is the state immediately after the
first splitter interaction; applying a map advances n by one. Each record
is stamped with the physical time n * period, one loop traversal per step.

A topology switch scheduled at step n takes effect before the map that
produces record n, so record n is the first one computed under (and
labeled with) the new wiring. Interaction modes never switch mid-run.

The initial state is validated once, where it is built. `Scenario` builds
`maps.raw_step`, the one check of mode, topology and splitter, and calls
`maps._check_state`, the state-type rule. From there the loop in `_records`
runs on plain floats through `maps.raw_step`, which keeps every per-pass
check, and wraps each pass into a record without validating it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from . import maps
from .errors import (ModeMismatchError, OutOfRangeError,
                     ScheduleConflictError)
from .maps import State
from .states import (AmplitudePair, InteractionMode, SplitterCoefficients,
                     Topology, WeightPair, _check_count,
                     _check_positive_finite, _new, _set, amplitude_pair,
                     weight_pair, weights_of)


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one run."""

    mode: InteractionMode
    initial_topology: Topology
    splitter: SplitterCoefficients | None  # None only in fixed-splitter mode
    initial: State
    max_steps: int
    period: float = 1.0  # loop traversal time T

    def __post_init__(self) -> None:
        maps.raw_step(self.mode, self.initial_topology, self.splitter)
        maps._check_state(self.mode, self.initial)
        _set(self, "max_steps", _check_count("max_steps", self.max_steps))
        _check_positive_finite("period", self.period)
        try:  # the last record's time
            horizon = self.max_steps * self.period
        except OverflowError:  # max_steps is beyond the float range
            horizon = math.inf
        if not math.isfinite(horizon):
            raise OutOfRangeError(
                f"max_steps * period overflows: {self.max_steps!r} * "
                f"{self.period!r}")


@dataclass(frozen=True)
class StepSchedule:
    """Ordered topology switches as (switch_at_step, new_topology) pairs."""

    switches: tuple[tuple[int, Topology], ...] = ()

    def __post_init__(self) -> None:
        last, checked = 0, []
        for step, topology in self.switches:
            step = _check_count("switch step", step, ScheduleConflictError)
            if step <= last:
                raise ScheduleConflictError(
                    f"switch steps must be strictly increasing, got {step} "
                    f"after {last}")
            if not isinstance(topology, Topology):
                raise ScheduleConflictError(
                    f"switch target must be a Topology, got {topology!r}")
            last = step
            checked.append((step, topology))
        _set(self, "switches", tuple(checked))


@dataclass(frozen=True)
class TrajectoryRecord:
    """State after pass n. Amplitudes are None in movable-splitter runs."""

    n: int
    time: float
    topology: Topology
    amplitudes: AmplitudePair | None
    weights: WeightPair


@dataclass(frozen=True)
class Trajectory:
    records: tuple[TrajectoryRecord, ...]

    @property
    def final(self) -> TrajectoryRecord:
        return self.records[-1]

    def w_left_series(self) -> list[float]:
        return [r.weights.w_left for r in self.records]


@dataclass(frozen=True)
class ConvergenceCriterion:
    """Max-abs distance of the weight pair from a target, strict epsilon."""

    target: WeightPair
    epsilon: float

    def __post_init__(self) -> None:
        if not isinstance(self.target, WeightPair):
            raise ModeMismatchError("target must be a WeightPair, got "
                                    f"{type(self.target).__name__}")
        _check_positive_finite("epsilon", self.epsilon)

    def distance(self, weights: WeightPair) -> float:
        return max(abs(weights.w_left - self.target.w_left),
                   abs(weights.w_right - self.target.w_right))

    def satisfied(self, weights: WeightPair) -> bool:
        return self.distance(weights) < self.epsilon


@dataclass(frozen=True)
class NotConverged:
    """Returned when a run exhausts max_steps; not an error."""

    steps: int
    final_distance: float


def _records(scenario: Scenario,
             schedule: StepSchedule | None) -> Iterator[TrajectoryRecord]:
    if schedule is not None and not isinstance(schedule, StepSchedule):
        raise ScheduleConflictError("schedule must be a StepSchedule, got "
                                    f"{type(schedule).__name__}")
    switches = schedule.switches if schedule is not None else ()
    if switches and switches[-1][0] > scenario.max_steps:
        raise ScheduleConflictError(
            f"switch at step {switches[-1][0]} exceeds max_steps "
            f"{scenario.max_steps}")
    switch_at = dict(switches)
    mode, splitter, period = scenario.mode, scenario.splitter, scenario.period
    topology = scenario.initial_topology
    step = maps.raw_step(mode, topology, splitter)
    unitary = mode is InteractionMode.FIXED_SPLITTER
    x, y = maps._MODES[mode][1](scenario.initial)  # its two components
    amplitudes = scenario.initial if unitary else None
    weights = weights_of(scenario.initial)
    for n in range(1, scenario.max_steps + 1):
        if n in switch_at:
            topology = switch_at[n]
            step = maps.raw_step(mode, topology, splitter)
        if n > 1:
            x, y, correction = step(x, y)
            if unitary:
                amplitudes = amplitude_pair(x, y, correction)
                weights = weights_of(amplitudes)
            else:
                weights = weight_pair(x, y, correction)
        yield _record(n, n * period, topology, amplitudes, weights)


def _record(n: int, time: float, topology: Topology,
            amplitudes: AmplitudePair | None,
            weights: WeightPair) -> TrajectoryRecord:
    """TrajectoryRecord(n, time, ...) without the frozen-field setters."""
    record = _new(TrajectoryRecord)
    _set(record, "n", n)
    _set(record, "time", time)
    _set(record, "topology", topology)
    _set(record, "amplitudes", amplitudes)
    _set(record, "weights", weights)
    return record


def iterate(scenario: Scenario,
            schedule: StepSchedule | None = None) -> Trajectory:
    """Run the scenario for exactly max_steps records.

    Pure and deterministic: the same arguments give bit-identical
    trajectories, and any prefix of a longer run matches the shorter run.
    """
    return Trajectory(tuple(_records(scenario, schedule)))


def converging_record(scenario: Scenario,
                      criterion: ConvergenceCriterion,
                      schedule: StepSchedule | None = None,
                      ) -> tuple[TrajectoryRecord, bool]:
    """First record that meets the criterion, and whether one did.

    Scans the run lazily and stops at the first satisfying record; when
    max_steps runs out first, returns the final record and False.
    """
    for record in _records(scenario, schedule):
        if criterion.satisfied(record.weights):
            return record, True
    return record, False


def steps_to_converge(scenario: Scenario,
                      criterion: ConvergenceCriterion,
                      schedule: StepSchedule | None = None,
                      ) -> int | NotConverged:
    """Smallest step index whose record meets the criterion.

    Scans the run lazily and stops at the first satisfying record; returns
    NotConverged carrying the final distance when max_steps runs out.
    """
    record, converged = converging_record(scenario, criterion, schedule)
    if converged:
        return record.n
    return NotConverged(scenario.max_steps,
                        criterion.distance(record.weights))


def run_switching_experiment(phases: Sequence[tuple[Topology, int]],
                             mode: InteractionMode,
                             splitter: SplitterCoefficients,
                             initial: State,
                             period: float = 1.0) -> Trajectory:
    """Run consecutive topology phases, each lasting a given number of steps.

    phases is a non-empty sequence of (topology, step_count) pairs; the
    total record count is the sum of the phase lengths. Equivalent to a
    single iterate call with the merged switch schedule.
    """
    if not phases:
        raise ScheduleConflictError("at least one phase is required")
    ends = list(accumulate(_check_count("phase length", count,
                                        ScheduleConflictError)
                           for _, count in phases))
    switches = tuple((end + 1, topology)  # the next phase starts after end
                     for end, (topology, _) in zip(ends, phases[1:]))
    scenario = Scenario(mode, phases[0][0], splitter, initial,
                        max_steps=ends[-1], period=period)
    return iterate(scenario, StepSchedule(switches))
