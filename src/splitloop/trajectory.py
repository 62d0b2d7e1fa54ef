"""Deterministic multi-step evolution with optional topology switching.

Step indexing starts at n = 1, which is the state immediately after the
first splitter interaction; applying a map advances n by one. Each record
is stamped with the physical time n * period, one loop traversal per step.

A topology switch scheduled at step n takes effect before the map that
produces record n, so record n is the first one computed under (and
labeled with) the new wiring. Interaction modes never switch mid-run.

The initial state is validated once, where it is built. `Scenario` builds
`maps.raw_step`, the one check of mode, topology and splitter, and calls
`maps._check_state`, the state-type rule. From there `_passes` runs the
schedule on plain floats through `maps.raw_step`, which keeps every
per-pass check, and yields each pass's state and weights as float tuples.
`_records` builds every record, without validating it again: `iterate`'s
for each pass, and `converging_record`'s one, after it has tested the
floats against the criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from . import maps
from .errors import OutOfRangeError, ScheduleConflictError
from .maps import State
from .states import (AmplitudePair, InteractionMode, SplitterCoefficients,
                     Topology, WeightPair, _as_float, _check_count,
                     _check_positive_finite, _check_type, _new, _set, _shown,
                     amplitude_pair, normalize_pair, weight_pair, weights_of)


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
        _set(self, "period", _check_positive_finite("period", self.period))
        if not math.isfinite(_as_float(self.max_steps) * self.period):
            raise OutOfRangeError(
                f"max_steps * period overflows: {_shown(self.max_steps)} * "
                f"{_shown(self.period)}")


@dataclass(frozen=True)
class StepSchedule:
    """Ordered topology switches as (switch_at_step, new_topology) pairs."""

    switches: tuple[tuple[int, Topology], ...] = ()

    def __post_init__(self) -> None:
        last, checked = 0, []
        try:
            switches = iter(self.switches)
        except TypeError:
            raise ScheduleConflictError(
                "switches must be a sequence of (step, Topology) pairs, got "
                f"{type(self.switches).__name__}") from None
        for switch in switches:
            try:
                step, topology = switch
            except (TypeError, ValueError):
                raise ScheduleConflictError(
                    "switch must be a (step, Topology) pair, got "
                    f"{_shown(switch)}") from None
            step = _check_count("switch step", step, ScheduleConflictError)
            if step <= last:
                raise ScheduleConflictError(
                    "switch steps must be strictly increasing, got "
                    f"{_shown(step)} after {_shown(last)}")
            if not isinstance(topology, Topology):
                raise ScheduleConflictError(
                    f"switch target must be a Topology, got {_shown(topology)}")
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
        _check_type("target", self.target, WeightPair)
        _set(self, "epsilon", _check_positive_finite("epsilon", self.epsilon))

    def distance(self, weights: WeightPair) -> float:
        _check_type("weights", weights, WeightPair)
        return self._distance(weights.w_left, weights.w_right)

    def _distance(self, w_left: float, w_right: float) -> float:
        """The distance of the weights (w_left, w_right) from the target."""
        target = self.target
        return max(abs(w_left - target.w_left),
                   abs(w_right - target.w_right))


@dataclass(frozen=True)
class NotConverged:
    """Returned when a run exhausts max_steps; not an error."""

    steps: int
    final_distance: float


def _passes(scenario: Scenario,
            schedule: StepSchedule | None) -> Iterator[tuple]:
    """Each pass of the run as (n, topology, state, weights) on floats.

    state is the state's (x, y, correction): (a_left, b_right,
    norm_correction) or (w_left, w_right, sum_correction). weights is
    (w_left, w_right, sum_correction), the state itself in a
    movable-splitter run.
    """
    if schedule is not None:
        _check_type("schedule", schedule, StepSchedule, ScheduleConflictError)
    switches = schedule.switches if schedule is not None else ()
    if switches and switches[-1][0] > scenario.max_steps:
        raise ScheduleConflictError(
            f"switch at step {_shown(switches[-1][0])} exceeds max_steps "
            f"{_shown(scenario.max_steps)}")
    switch_at = dict(switches)
    mode, splitter = scenario.mode, scenario.splitter
    topology = scenario.initial_topology
    step = maps.raw_step(mode, topology, splitter)
    unitary = mode is InteractionMode.FIXED_SPLITTER
    initial, pair = scenario.initial, weights_of(scenario.initial)
    weights = state = (pair.w_left, pair.w_right, pair.sum_correction)
    if unitary:
        state = (initial.a_left, initial.b_right, initial.norm_correction)
    x, y, _ = state
    for n in range(1, scenario.max_steps + 1):
        if n in switch_at:
            topology = switch_at[n]
            step = maps.raw_step(mode, topology, splitter)
        if n > 1:
            state = step(x, y)
            x, y, _ = state
            # the weights of an amplitude pair, as states.weights_of has them
            weights = normalize_pair(x * x, y * y, False) if unitary else state
        yield n, topology, state, weights


def _records(scenario: Scenario, passes) -> tuple[TrajectoryRecord, ...]:
    """Each (n, topology, state, weights) pass as a record, unvalidated."""
    period = scenario.period
    unitary = scenario.mode is InteractionMode.FIXED_SPLITTER
    records = []
    for n, topology, state, weights in passes:
        record = _new(TrajectoryRecord)  # without the frozen-field setters
        _set(record, "n", n)
        _set(record, "time", n * period)
        _set(record, "topology", topology)
        _set(record, "amplitudes", amplitude_pair(*state) if unitary else None)
        _set(record, "weights", weight_pair(*weights))
        records.append(record)
    return tuple(records)


def iterate(scenario: Scenario,
            schedule: StepSchedule | None = None) -> Trajectory:
    """Run the scenario for exactly max_steps records.

    Pure and deterministic: the same arguments give bit-identical
    trajectories, and any prefix of a longer run matches the shorter run.
    """
    _check_type("scenario", scenario, Scenario)
    return Trajectory(_records(scenario, _passes(scenario, schedule)))


def converging_record(scenario: Scenario,
                      criterion: ConvergenceCriterion,
                      schedule: StepSchedule | None = None,
                      ) -> tuple[TrajectoryRecord, bool]:
    """First record that meets the criterion, and whether one did.

    Scans the run lazily and stops at the first satisfying record; when
    max_steps runs out first, returns the final record and False. Only the
    returned record is built, by the builder `iterate` uses.
    """
    _check_type("scenario", scenario, Scenario)
    _check_type("criterion", criterion, ConvergenceCriterion)
    distance, epsilon = criterion._distance, criterion.epsilon
    for n, topology, state, (w_left, w_right, correction) in _passes(
            scenario, schedule):
        if distance(w_left, w_right) < epsilon:
            break
    (record,) = _records(
        scenario, ((n, topology, state, (w_left, w_right, correction)),))
    return record, distance(w_left, w_right) < epsilon


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
