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
per-pass check, one segment of passes between two switches at a time. It
yields runs of equal passes as `iterate` stores them, (first, wiring,
state, weights): the run's first pass, its wiring's index into
`_WIRINGS`, and its state and weights as float tuples. A run ends where
the next one begins, or after max_steps. Repeated passes make a run
degenerate to a limit, which in floats is often reached exactly: a pass
that gives back its own input, bit for bit, is a fixed point of the
segment's map, so it and every later pass of the segment form one run,
and no more passes are computed there.
`iterate` keeps the runs as `_Records`, a lazy sequence that holds them
as columns, one `array` for the first passes, one for the wirings and one
for each named float of a run, bytes a run rather than a record a pass,
and builds records only when they are read. `_Records._columns` returns
those columns, and the records and the command line's `run` rows read the
runs through it; `w_left_series` takes the w_left column alone.
`_records` builds every record of half-open (first, end, wiring, state,
weights) runs, without validating it again: those a `_Records` read
gives, the records of a run in one read sharing one pair of pairs, and
`converging_record`'s one. A scan reads the criterion's
target and epsilon once and tests each run's weights once, so one stuck
on a fixed point outside epsilon skips to max_steps. A record is slotted
like its pairs, and `_records` fills it through the setters that
`states._setters` reads from its slots.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Iterator

from . import maps
from .errors import OutOfRangeError, ScheduleConflictError
from .maps import State
from .states import (AmplitudePair, InteractionMode, SplitterCoefficients,
                     Topology, WeightPair, _as_float, _check_count,
                     _check_positive_finite, _check_type, _new, _set,
                     _setters, _shown, amplitude_pair, normalize_pair,
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


@dataclass(frozen=True, slots=True)
class TrajectoryRecord:
    """State after pass n. Amplitudes are None in movable-splitter runs."""

    n: int
    time: float
    topology: Topology
    amplitudes: AmplitudePair | None
    weights: WeightPair


_RECORD_SETTERS = _setters(TrajectoryRecord)
_PAIR = struct.Struct("<2d")
_WIRINGS = tuple(Topology)
_CHUNK_RUNS = 4096


@dataclass(frozen=True)
class Trajectory:
    """A run's records, pass 1 first. `iterate` gives them as a lazy
    sequence that builds each record when it is read; any sequence of
    records makes a Trajectory too."""

    records: Sequence[TrajectoryRecord]

    @property
    def final(self) -> TrajectoryRecord:
        return self.records[-1]

    def w_left_series(self) -> list[float]:
        """The left weight of every pass, in order, as floats; an `iterate`
        result gives it from its w_left column, with no record built."""
        records = self.records
        if type(records) is not _Records:
            return [r.weights.w_left for r in records]
        w_lefts = records._weights[0]
        if len(w_lefts) == records._scenario.max_steps:  # one pass a run
            return w_lefts.tolist()
        firsts, ends, *_ = records._columns()
        return list(chain.from_iterable(map(
            repeat, w_lefts, map(operator.sub, ends, firsts))))


@dataclass(frozen=True)
class ConvergenceCriterion:
    """Max-abs distance of the weight pair from a target, strict epsilon.

    `distance` is the rule. A convergence scan reads the target and
    epsilon once and tests each run's weights on both sides,
    |w_left - target.w_left| < epsilon and |w_right - target.w_right| <
    epsilon, which for finite weights is `distance(...) < epsilon`.
    """

    target: WeightPair
    epsilon: float

    def __post_init__(self) -> None:
        _check_type("target", self.target, WeightPair)
        _set(self, "epsilon", _check_positive_finite("epsilon", self.epsilon))

    def distance(self, weights: WeightPair) -> float:
        _check_type("weights", weights, WeightPair)
        target = self.target
        return max(abs(weights.w_left - target.w_left),
                   abs(weights.w_right - target.w_right))


@dataclass(frozen=True)
class NotConverged:
    """Returned when a run exhausts max_steps; not an error."""

    steps: int
    final_distance: float


def _passes(scenario: Scenario,
            schedule: StepSchedule | None) -> Iterator[tuple]:
    """Each run of equal passes as (first, wiring, state, weights) on
    floats: the passes from first to where the next run begins, or to
    max_steps, all have the topology `_WIRINGS[wiring]`, this state and
    these weights.

    state is the state's (x, y, correction): (a_left, b_right,
    norm_correction) or (w_left, w_right, sum_correction). weights is
    (w_left, w_right, sum_correction), the state itself in a
    movable-splitter run.

    The schedule is walked a segment at a time, the passes from one switch
    to the next under one map. A pass whose (x, y) is its input's, bit for
    bit, is a fixed point of that map: every later pass of the segment
    repeats it, correction and weights too, so its run reaches the
    segment's end and no more passes are computed there. The pass before
    it can carry another correction, so the run starts at the repeating
    pass.
    """
    if schedule is not None:
        _check_type("schedule", schedule, StepSchedule, ScheduleConflictError)
    switches = schedule.switches if schedule is not None else ()
    if switches and switches[-1][0] > scenario.max_steps:
        raise ScheduleConflictError(
            f"switch at step {_shown(switches[-1][0])} exceeds max_steps "
            f"{_shown(scenario.max_steps)}")
    mode, splitter = scenario.mode, scenario.splitter
    unitary = mode is InteractionMode.FIXED_SPLITTER
    initial, pair = scenario.initial, weights_of(scenario.initial)
    weights = state = (pair.w_left, pair.w_right, pair.sum_correction)
    if unitary:
        state = (initial.a_left, initial.b_right, initial.norm_correction)
    x, y, _ = state
    # a segment runs from step 1 or a switch to the step before the next
    first, topology = 1, scenario.initial_topology
    for end, after in (*switches, (scenario.max_steps + 1, None)):
        if first < end:  # not so when a switch at step 1 relabels the start
            step = maps.raw_step(mode, topology, splitter)
            wiring = _WIRINGS.index(topology)
            if first == 1:
                yield 1, wiring, state, weights
                first = 2
            for n in range(first, end):
                u, v, _ = state = step(x, y)
                repeats = u == x and v == y and _same_bits(x, y, u, v)
                x, y = u, v
                # the weights of an amplitude pair, as weights_of has them
                weights = (normalize_pair(x * x, y * y, False) if unitary
                           else state)
                yield n, wiring, state, weights
                if repeats:
                    break
        first, topology = end, after


def _same_bits(x: float, y: float, u: float, v: float) -> bool:
    """Whether (x, y) and (u, v) are the same floats bit for bit; == alone
    takes -0.0 for 0.0."""
    return _PAIR.pack(x, y) == _PAIR.pack(u, v)


def _records(scenario: Scenario, runs) -> Iterator[TrajectoryRecord]:
    """A record for each pass first to end - 1 of each (first, end, wiring,
    state, weights) run, unvalidated; a run's records share its pairs.
    state is read in a fixed-splitter run only."""
    period = scenario.period
    unitary = scenario.mode is InteractionMode.FIXED_SPLITTER
    (set_n, set_time, set_topology, set_amplitudes,
     set_weights) = _RECORD_SETTERS
    for first, end, wiring, state, weights in runs:
        topology = _WIRINGS[wiring]
        amplitudes = amplitude_pair(*state) if unitary else None
        weights = weight_pair(*weights)
        n = first
        while n < end:  # cheaper than a range for a one-pass run
            record = _new(TrajectoryRecord)  # filled through its slot setters
            set_n(record, n)
            set_time(record, n * period)
            set_topology(record, topology)
            set_amplitudes(record, amplitudes)
            set_weights(record, weights)
            yield record
            n += 1


class _Records(Sequence):
    """The records of a scenario's run, held as the columns of its runs of
    equal passes and built when they are read.

    A run is its first pass in `_firsts`, its wiring's index into
    `_WIRINGS` in `_wirings`, and its floats, an `array` a named float: the
    state's (a_left, b_right, norm_correction) in `_state`, a
    fixed-splitter run's only, and the weights' (w_left, w_right,
    sum_correction) in `_weights`. A run ends where the next begins, and
    `_firsts` ends with max_steps + 1, where a run after the last would
    begin. Every read builds new records through `_records`, those of one
    run in one read sharing its pairs, but for the final record, which is
    built once. Indexes and slices are those of `range(1, len + 1)`, the
    passes.
    """

    def __init__(self, scenario: Scenario, runs: Iterator[tuple]) -> None:
        firsts, wirings, floats = array("q"), array("b"), array("d")
        unitary = scenario.mode is InteractionMode.FIXED_SPLITTER
        # a chunk of runs at a time from the iterator `_passes` gives: lists
        # take the values faster than arrays do, and a chunk bounds what
        # they hold
        while True:
            starts, codes, values = [], [], []
            for first, wiring, state, weights in islice(runs, _CHUNK_RUNS):
                starts.append(first)
                codes.append(wiring)
                values += weights
                if unitary:
                    values += state
            firsts.fromlist(starts)
            wirings.fromlist(codes)
            floats.fromlist(values)
            if len(starts) < _CHUNK_RUNS:
                break
        firsts.append(scenario.max_steps + 1)
        # a run's floats are its weights' and then its state's; a strided
        # slice of an array is a new array, built in one call
        width = 6 if unitary else 3
        self._weights = floats[0::width], floats[1::width], floats[2::width]
        self._state = ((floats[3::6], floats[4::6], floats[5::6]) if unitary
                       else ())
        self._scenario, self._firsts, self._wirings = scenario, firsts, wirings
        self._final = None

    def _columns(self) -> tuple:
        """The runs as (firsts, ends, (wirings, topologies), state,
        weights): their first passes and the passes after their last, as
        views with no copy, their wirings as indexes into the tuple
        `topologies`, and the float columns of `_state` and `_weights`."""
        firsts = memoryview(self._firsts)
        return (firsts[:-1], firsts[1:], (self._wirings, _WIRINGS),
                self._state, self._weights)

    def _runs(self, start: int = 0, stop: int | None = None) -> Iterator:
        """The runs start to stop - 1 as (first, end, wiring, state,
        weights), state () in a movable-splitter run."""
        firsts, ends, (wirings, _), state, weights = self._columns()
        runs = slice(start, stop)
        return zip(firsts[runs], ends[runs], wirings[runs],
                   zip(*(c[runs] for c in state)) if state else repeat(()),
                   zip(*(c[runs] for c in weights)))

    def _span(self, first: int, last: int) -> tuple[TrajectoryRecord, ...]:
        """The records of passes first to last."""
        firsts = self._firsts
        runs = self._runs(bisect_right(firsts, first) - 1,
                          bisect_right(firsts, last))
        return tuple(_records(self._scenario, (
            (max(run_first, first), min(run_end, last + 1), *rest)
            for run_first, run_end, *rest in runs)))

    def __len__(self) -> int:
        return self._scenario.max_steps

    def __iter__(self) -> Iterator[TrajectoryRecord]:
        return _records(self._scenario, self._runs())

    def __getitem__(self, index):
        n = range(1, len(self) + 1)[index]  # a pass, or a range of them
        if isinstance(index, slice):
            return self._span(*sorted((n[0], n[-1])))[::n.step] if n else ()
        if n < len(self):
            return self._span(n, n)[0]
        if self._final is None:  # final and records[-1] are one object
            self._final = self._span(n, n)[0]
        return self._final

    def __eq__(self, other):
        if isinstance(other, (tuple, _Records)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def iterate(scenario: Scenario,
            schedule: StepSchedule | None = None) -> Trajectory:
    """Run the scenario for exactly max_steps records.

    Pure and deterministic: the same arguments give bit-identical
    trajectories, and any prefix of a longer run matches the shorter run.
    The passes are computed here, and the records built when read.
    """
    _check_type("scenario", scenario, Scenario)
    if scenario.max_steps >= sys.maxsize:  # the pass column's int64 limit
        raise OutOfRangeError(f"max_steps must be below {sys.maxsize}, got "
                              f"{_shown(scenario.max_steps)}")
    return Trajectory(_Records(scenario, _passes(scenario, schedule)))


def converging_record(scenario: Scenario,
                      criterion: ConvergenceCriterion,
                      schedule: StepSchedule | None = None,
                      ) -> tuple[TrajectoryRecord, bool]:
    """First record that meets the criterion, and whether one did.

    Scans the run lazily and stops at the first satisfying record; when
    max_steps runs out first, returns the final record and False. The
    criterion's target and epsilon are read once; each run of equal passes
    is tested once, at its first pass, on both weights inline, which for
    the finite weights of a pass equals `criterion.distance(...) <
    epsilon`. Only the returned record is built, by the builder `iterate`
    uses.
    """
    _check_type("scenario", scenario, Scenario)
    _check_type("criterion", criterion, ConvergenceCriterion)
    t_left, t_right = criterion.target.w_left, criterion.target.w_right
    epsilon = criterion.epsilon
    for first, wiring, state, (w_left, w_right, correction) in (
            _passes(scenario, schedule)):
        if abs(w_left - t_left) < epsilon and abs(w_right - t_right) < epsilon:
            converged = True
            break
    else:
        first, converged = scenario.max_steps, False
    (record,) = _records(scenario, (
        (first, first + 1, wiring, state, (w_left, w_right, correction)),))
    return record, converged


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
