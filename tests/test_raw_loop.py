"""The float loop behind iterate against the typed step path, bit for bit.

`iterate` runs on plain floats and wraps each pass's values without
validating them again; these tests pin it to the typed chain
StepMap.apply + weights_of, the convergence scans to iterate, the typed
steps to the state constructors, the objects filled through their slots'
setters, agreement rows included, to their constructors, and each
kernel's array path to its float path.
"""

import dataclasses
import math
import pickle
import struct
import time
from collections import Counter
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitloop import (AmplitudePair, ConvergenceCriterion, InteractionMode,
                       NormalizationError, NotConverged, NumericDomainError,
                       OutOfRangeError, Scenario, SplitterCoefficients,
                       StepMap, StepSchedule, Topology, WeightPair,
                       amplitudes_from_left_weight, converging_record,
                       fixed_points, iterate, maps, stable_fixed_point, steps_to_converge,
                       sweep_initial_conditions, trajectory, weights_of)
from splitloop.montecarlo import (EnsembleEstimate, StepAgreement,
                                  agreement_report)
from splitloop.states import (_setters, amplitude_pair, normalize_pair,
                              weight_pair)
from splitloop.trajectory import TrajectoryRecord

FIXED = InteractionMode.FIXED_SPLITTER
MOVABLE = InteractionMode.MOVABLE_SPLITTER

UNITARY_KERNELS = {
    Topology.BOTH_CONNECTED: "unitary_both_kernel",
    Topology.RIGHT_HALF_CONNECTED: "unitary_right_half_kernel",
    Topology.LEFT_HALF_CONNECTED: "unitary_left_half_kernel",
}
MEASURE_KERNELS = {
    Topology.BOTH_CONNECTED: "measure_both_kernel",
    Topology.RIGHT_HALF_CONNECTED: "measure_right_half_kernel",
    Topology.LEFT_HALF_CONNECTED: "measure_left_half_kernel",
}


def bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


def state_bits(state):
    if state is None:
        return None
    if isinstance(state, AmplitudePair):
        return bits(state.a_left, state.b_right, state.norm_correction)
    return bits(state.w_left, state.w_right, state.sum_correction)


def initial_state(mode, w):
    if mode is FIXED:
        return amplitudes_from_left_weight(w)
    return WeightPair(w, 1.0 - w)


def typed_chain(scenario, schedule):
    """Records as (n, time, topology, amplitudes, weights) via StepMap."""
    switch_at = dict(schedule.switches)
    topology = scenario.initial_topology
    unitary = scenario.mode is FIXED
    amplitudes = scenario.initial if unitary else None
    weights = weights_of(amplitudes) if unitary else scenario.initial
    out = []
    for n in range(1, scenario.max_steps + 1):
        topology = switch_at.get(n, topology)
        if n > 1:
            step = StepMap(scenario.mode, topology, scenario.splitter)
            if unitary:
                amplitudes = step.apply(amplitudes)
                weights = weights_of(amplitudes)
            else:
                weights = step.apply(weights)
        out.append((n, n * scenario.period, topology, amplitudes, weights))
    return out


@st.composite
def runs(draw):
    mode = draw(st.sampled_from(InteractionMode))
    steps = draw(st.integers(1, 60))
    picked = draw(st.lists(
        st.tuples(st.integers(1, steps), st.sampled_from(Topology)),
        max_size=6, unique_by=lambda s: s[0]))
    if draw(st.booleans()):  # a switch at step 1 relabels the start
        picked = [s for s in picked if s[0] != 1]
        picked.append((1, draw(st.sampled_from(Topology))))
    scenario = Scenario(
        mode, draw(st.sampled_from(Topology)),
        SplitterCoefficients.from_reflectance(draw(st.floats(0.0, 1.0))),
        initial_state(mode, draw(st.floats(0.0, 1.0))), max_steps=steps,
        period=draw(st.floats(1e-6, 1e6)))
    return scenario, StepSchedule(tuple(sorted(picked)))


@given(runs())
def test_iterate_equals_the_typed_chain_bit_for_bit(run):
    scenario, schedule = run
    records = iterate(scenario, schedule).records
    expected = typed_chain(scenario, schedule)
    assert len(records) == len(expected)
    for r, (n, time, topology, amplitudes, weights) in zip(records, expected):
        assert (r.n, r.topology) == (n, topology)
        assert bits(r.time) == bits(time)
        assert state_bits(r.amplitudes) == state_bits(amplitudes)
        assert state_bits(r.weights) == state_bits(weights)


def record_bits(record):
    return (record.n, record.topology, bits(record.time),
            state_bits(record.amplitudes), state_bits(record.weights))


# hand-entered starts on a signed zero, which == does not tell from 0.0
SIGNED_ZERO_STARTS = {
    FIXED: (AmplitudePair(-0.0, 1.0), AmplitudePair(1.0, -0.0)),
    MOVABLE: (WeightPair(-0.0, 1.0), WeightPair(1.0, -0.0)),
}


@st.composite
def long_runs(draw):
    """Runs of up to 3000 passes, long enough for most measuring runs to
    reach a fixed point of the float map. They start on a fixed point, on
    a signed zero or anywhere, and switch at step 1, on the pass after a
    fixed run begins, or anywhere."""
    mode = draw(st.sampled_from(InteractionMode))
    topology = draw(st.sampled_from(Topology))
    steps = draw(st.sampled_from([1, 2, 3000]) | st.integers(1, 3000))
    start = draw(st.sampled_from(["fixed point", "signed zero", "anywhere"]))
    if start == "fixed point":
        state = draw(st.sampled_from(
            [p.point for t in Topology for p in fixed_points(mode, t)]))
    elif start == "signed zero":
        state = draw(st.sampled_from(SIGNED_ZERO_STARTS[mode]))
    else:
        state = initial_state(mode, draw(st.floats(0.0, 1.0)))
    scenario = Scenario(
        mode, topology,
        SplitterCoefficients.from_reflectance(draw(st.floats(0.0, 1.0))),
        state, max_steps=steps)
    switches = dict(draw(st.lists(
        st.tuples(st.integers(1, steps), st.sampled_from(Topology)),
        max_size=3)))
    if draw(st.booleans()):
        switches[1] = draw(st.sampled_from(Topology))
    if draw(st.booleans()):
        schedule = StepSchedule(tuple(sorted(switches.items())))
        # a run holds the passes up to the next run's first
        firsts = [first for first, *_ in trajectory._passes(scenario,
                                                            schedule)]
        fixed = next((first for first, end in pairwise([*firsts, steps + 1])
                      if end - first > 1), steps)
        if fixed < steps:
            switches[fixed + 1] = draw(st.sampled_from(Topology))
    return scenario, StepSchedule(tuple(sorted(switches.items())))


@settings(max_examples=100, deadline=None)
@given(long_runs())
def test_runs_to_a_fixed_point_equal_the_typed_chain_bit_for_bit(run):
    scenario, schedule = run
    records = iterate(scenario, schedule).records
    expected = typed_chain(scenario, schedule)
    assert [record_bits(r) for r in records] == [
        (n, topology, bits(time), state_bits(amplitudes), state_bits(weights))
        for n, time, topology, amplitudes, weights in expected]


def test_a_zero_that_changes_sign_is_not_a_repeat():
    # the right-half kernel sends a_left -0.0 to 0.0, which == takes for a
    # repeat; the fixed run starts only on the next pass
    scenario = Scenario(FIXED, Topology.RIGHT_HALF_CONNECTED, None,
                        AmplitudePair(-0.0, 1.0), max_steps=6)
    runs = [(first, bits(*state[:2])) for first, _, state, _
            in trajectory._passes(scenario, None)]
    # the last run holds passes 3 to 6
    assert runs == [(1, bits(-0.0, 1.0)), (2, bits(0.0, 1.0)),
                    (3, bits(0.0, 1.0))]


def test_iterate_computes_no_pass_past_a_fixed_point(monkeypatch):
    calls = []

    def counted(*args, kernel=maps.unitary_both_kernel):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(maps, "unitary_both_kernel", counted)
    scenario = Scenario(FIXED, Topology.BOTH_CONNECTED, None,
                        initial_state(FIXED, 0.7), max_steps=10 ** 5)
    records = iterate(scenario).records
    assert [r.n for r in records[-2:]] == [10 ** 5 - 1, 10 ** 5]
    assert len(calls) <= 20


@pytest.mark.parametrize("mode", InteractionMode)
def test_a_scan_stuck_on_a_fixed_point_skips_to_its_end(mode):
    # right half-connected runs settle on (0, 1), outside epsilon of 1/2
    splitter = SplitterCoefficients.from_reflectance(0.1)
    criterion = ConvergenceCriterion(WeightPair(0.5, 0.5), 1e-3)

    def scans(max_steps):
        scenario = Scenario(mode, Topology.RIGHT_HALF_CONNECTED, splitter,
                            initial_state(mode, 0.7), max_steps=max_steps)
        return (converging_record(scenario, criterion),
                steps_to_converge(scenario, criterion))

    (short, converged), not_converged = scans(10 ** 3)
    started = time.perf_counter()
    (record, long_converged), long_not_converged = scans(10 ** 15)
    assert time.perf_counter() - started < 1.0
    assert converged is long_converged is False
    assert (short.n, not_converged.steps) == (10 ** 3, 10 ** 3)
    assert (record.n, long_not_converged.steps) == (10 ** 15, 10 ** 15)
    assert bits(record.time) == bits(1e15)
    assert record_bits(record)[3:] == record_bits(short)[3:]
    assert record.topology is short.topology
    assert bits(long_not_converged.final_distance) == bits(
        not_converged.final_distance)


def sides_at(scenario, n):
    """|w_left - 1/2| and |w_right - 1/2| at pass n of the scenario."""
    weights = iterate(scenario).records[n - 1].weights
    return abs(weights.w_left - 0.5), abs(weights.w_right - 0.5)


# runs whose distance from (1/2, 1/2) equals an epsilon exactly at a pass:
# the test is strict, so that pass does not converge
SIDES_RUN = (Scenario(FIXED, Topology.BOTH_CONNECTED, None,
                      initial_state(FIXED, 0.7), max_steps=6), StepSchedule())
SIDES = sides_at(SIDES_RUN[0], 2)  # the two sides differ by a few ulps here
FALLING_RUN = (Scenario(FIXED, Topology.BOTH_CONNECTED, None,
                        initial_state(FIXED, 0.9), max_steps=6),
               StepSchedule())
FINAL_RUN = (Scenario(MOVABLE, Topology.BOTH_CONNECTED,
                      SplitterCoefficients.from_reflectance(0.9),
                      initial_state(MOVABLE, 0.9), max_steps=5),
             StepSchedule())


@example(run=FALLING_RUN, target=0.5,
         epsilon=max(sides_at(FALLING_RUN[0], 4)))
@example(run=FINAL_RUN, target=0.5, epsilon=max(sides_at(FINAL_RUN[0], 5)))
@example(run=SIDES_RUN, target=0.5, epsilon=max(SIDES))
# one side strictly inside epsilon, the other outside: not converged
@example(run=SIDES_RUN, target=0.5,
         epsilon=math.nextafter(min(SIDES), math.inf))
@given(run=runs(), target=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       epsilon=st.floats(5e-324, 1e308)
       | st.floats(-17.0, 0.0).map(lambda e: 10.0 ** e))
def test_a_scan_returns_the_record_iterate_has_there(run, target, epsilon):
    scenario, schedule = run
    target = WeightPair(target, 1.0 - target)
    criterion = ConvergenceCriterion(target, epsilon)

    def distance(record):
        return max(abs(record.weights.w_left - target.w_left),
                   abs(record.weights.w_right - target.w_right))

    records = iterate(scenario, schedule).records
    expected = next((r for r in records if distance(r) < epsilon),
                    records[-1])
    record, converged = converging_record(scenario, criterion, schedule)
    assert converged is (distance(expected) < epsilon)
    assert record_bits(record) == record_bits(expected)
    steps = steps_to_converge(scenario, criterion, schedule)
    if converged:
        assert steps == expected.n
    else:
        assert type(steps) is NotConverged
        assert steps.steps == scenario.max_steps
        assert bits(steps.final_distance) == bits(distance(expected))


def test_the_one_sided_examples_split_their_pass():
    # the SIDES_RUN @examples put epsilon on or between the two sides
    assert min(SIDES) < math.nextafter(min(SIDES), math.inf) < max(SIDES)


@pytest.mark.parametrize("mode", InteractionMode)
def test_a_scan_calls_the_criterion_only_for_a_final_distance(monkeypatch,
                                                              mode):
    calls = Counter()
    for name in ("distance", "_distance"):
        def counted(self, *args, name=name,
                    rule=getattr(ConvergenceCriterion, name, None)):
            calls[name] += 1
            return rule(self, *args)
        monkeypatch.setattr(ConvergenceCriterion, name, counted,
                            raising=False)
    scenario = Scenario(mode, Topology.BOTH_CONNECTED,
                        SplitterCoefficients.from_reflectance(0.999),
                        initial_state(mode, 0.7), max_steps=2000)
    never = ConvergenceCriterion(WeightPair(1.0, 0.0), 1e-3)  # it nears 1/2
    record, converged = converging_record(scenario, never)
    assert (record.n, converged) == (2000, False)
    assert sum(calls.values()) == 0
    result = steps_to_converge(scenario, never)
    assert type(result) is NotConverged
    assert calls == {"distance": 1}


@pytest.mark.parametrize("mode", InteractionMode)
def test_a_scan_builds_only_the_record_it_returns(monkeypatch, mode):
    built = Counter()
    for name in ("amplitude_pair", "weight_pair"):
        def counted(*args, name=name, make=getattr(trajectory, name)):
            built[name] += 1
            return make(*args)
        monkeypatch.setattr(trajectory, name, counted)
    scenario = Scenario(mode, Topology.BOTH_CONNECTED,
                        SplitterCoefficients.from_reflectance(0.999),
                        initial_state(mode, 0.7), max_steps=2000)
    never = ConvergenceCriterion(WeightPair(1.0, 0.0), 1e-3)  # it nears 1/2
    record, converged = converging_record(scenario, never)
    assert (record.n, converged) == (2000, False)
    for scan in (converging_record, steps_to_converge):
        built.clear()
        scan(scenario, never)
        assert (built["amplitude_pair"], built["weight_pair"]) == (
            1 if mode is FIXED else 0, 1)


@given(mode=st.sampled_from(InteractionMode),
       topology=st.sampled_from(Topology), w=st.floats(0.0, 1.0),
       a1sq=st.floats(0.0, 1.0))
def test_typed_step_equals_the_constructor_on_the_kernel(mode, topology, w,
                                                         a1sq):
    splitter = SplitterCoefficients.from_reflectance(a1sq)
    state = initial_state(mode, w)
    out = StepMap(mode, topology, splitter).apply(state)
    if mode is FIXED:
        kernel = getattr(maps, UNITARY_KERNELS[topology])
        rebuilt = AmplitudePair(*kernel(state.a_left, state.b_right))
    else:
        kernel = getattr(maps, MEASURE_KERNELS[topology])
        rebuilt = WeightPair(*kernel(state.w_left, state.w_right,
                                     splitter.a1_squared,
                                     splitter.b1_squared))
    assert type(out) is type(rebuilt)
    assert state_bits(out) == state_bits(rebuilt)


amplitude_points = st.tuples(st.floats(0.0, math.pi / 2.0),
                             st.floats(0.5, 2.0)).map(
    lambda p: (p[1] * math.cos(p[0]), p[1] * math.sin(p[0])))


@pytest.mark.parametrize("name", sorted(UNITARY_KERNELS.values()))
@given(points=st.lists(amplitude_points, min_size=1, max_size=50))
def test_unitary_kernel_on_an_array_equals_it_on_each_float(name, points):
    kernel = getattr(maps, name)
    a = np.array([p[0] for p in points])
    b = np.array([p[1] for p in points])
    on_array = kernel(a, b)
    on_floats = [kernel(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert all(type(v) is float for pair in on_floats for v in pair)
    for k in range(2):
        assert on_array[k].tobytes() == bits(*(p[k] for p in on_floats))


@pytest.mark.parametrize("name", sorted(UNITARY_KERNELS.values()))
def test_unitary_kernel_on_many_random_floats(name):
    # a libm function such as pow rounds differently from the plain product
    # for a small share of inputs, too rare for the examples above to meet
    # reliably; a kernel that called one on floats or arrays would show here
    kernel = getattr(maps, name)
    rng = np.random.default_rng(2009)
    theta = rng.uniform(0.0, math.pi / 2.0, 20_000)
    a, b = np.cos(theta), np.sin(theta)
    on_array = kernel(a, b)
    on_floats = [kernel(x, y) for x, y in zip(a.tolist(), b.tolist())]
    for k in range(2):
        assert on_array[k].tobytes() == bits(*(p[k] for p in on_floats))


@pytest.mark.parametrize("name", sorted(MEASURE_KERNELS.values()))
@given(points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                       min_size=1, max_size=50))
def test_measure_kernel_on_an_array_equals_it_on_each_float(name, points):
    kernel = getattr(maps, name)
    w = np.array([p[0] for p in points])
    p = np.array([q[1] for q in points])
    on_array = kernel(w, 1.0 - w, p, 1.0 - p)
    on_floats = [kernel(x, 1.0 - x, y, 1.0 - y)
                 for x, y in zip(w.tolist(), p.tolist())]
    for k in range(2):
        assert on_array[k].tobytes() == bits(*(q[k] for q in on_floats))


@pytest.mark.parametrize("mode,topology",
                         [(FIXED, t) for t in UNITARY_KERNELS]
                         + [(MOVABLE, t) for t in MEASURE_KERNELS])
def test_iterate_calls_the_kernel_found_on_the_module(monkeypatch, mode,
                                                      topology):
    kernels = UNITARY_KERNELS if mode is FIXED else MEASURE_KERNELS
    kernel = getattr(maps, kernels[topology])
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    scenario = Scenario(mode, topology,
                        SplitterCoefficients.from_reflectance(0.7),
                        initial_state(mode, 0.7), max_steps=5)
    expected = iterate(scenario)
    monkeypatch.setattr(maps, kernels[topology], counted)
    assert iterate(scenario) == expected
    assert len(calls) == 4


def _nan_pair(*args):
    return math.nan, math.nan


def _negative_pair(*args):
    return -0.25, 1.0


def _unnormalized_pair(*args):
    return 0.3, 0.3


def _markov_disagreement(w_left, w_right, a1_squared, b1_squared):
    wl = a1_squared * w_left + b1_squared * w_right
    return wl, 1.0 - wl + 1e-12


CORRUPTIONS = [
    (FIXED, Topology.BOTH_CONNECTED, _nan_pair, OutOfRangeError),
    (FIXED, Topology.RIGHT_HALF_CONNECTED, _negative_pair, OutOfRangeError),
    (FIXED, Topology.LEFT_HALF_CONNECTED, _unnormalized_pair,
     NormalizationError),
    (MOVABLE, Topology.BOTH_CONNECTED, _markov_disagreement,
     NumericDomainError),
    (MOVABLE, Topology.RIGHT_HALF_CONNECTED, _nan_pair, OutOfRangeError),
    (MOVABLE, Topology.LEFT_HALF_CONNECTED, _unnormalized_pair,
     NormalizationError),
]


@pytest.mark.parametrize("mode,topology,corrupted,error", CORRUPTIONS)
def test_a_corrupted_pass_fails_alike_in_the_loop_and_the_typed_step(
        monkeypatch, mode, topology, corrupted, error):
    kernels = UNITARY_KERNELS if mode is FIXED else MEASURE_KERNELS
    monkeypatch.setattr(maps, kernels[topology], corrupted)
    splitter = SplitterCoefficients.from_reflectance(0.7)
    state = initial_state(mode, 0.7)
    with pytest.raises(error) as typed:
        StepMap(mode, topology, splitter).apply(state)
    with pytest.raises(error) as loop:
        iterate(Scenario(mode, topology, splitter, state, max_steps=3))
    assert type(loop.value) is type(typed.value)
    assert str(loop.value) == str(typed.value)


@pytest.mark.parametrize("bad_pass", [2, 5])
@pytest.mark.parametrize("mode,topology,corrupted,error", CORRUPTIONS)
def test_a_pass_gone_bad_fails_alike_in_every_scan(
        monkeypatch, mode, topology, corrupted, error, bad_pass):
    kernels = UNITARY_KERNELS if mode is FIXED else MEASURE_KERNELS
    kernel = getattr(maps, kernels[topology])
    calls = []

    def going_bad(*args):  # pass n makes call n - 1
        calls.append(args)
        return (corrupted if len(calls) == bad_pass - 1 else kernel)(*args)

    monkeypatch.setattr(maps, kernels[topology], going_bad)
    splitter = SplitterCoefficients.from_reflectance(0.7)
    scenario = Scenario(mode, topology, splitter, initial_state(mode, 0.7),
                        max_steps=8)
    # no run comes this close to its target within the first bad_pass passes
    epsilon = 1e-300
    criterion = ConvergenceCriterion(
        weights_of(stable_fixed_point(mode, topology)), epsilon)
    failures = []
    for scan in (lambda: iterate(scenario),
                 lambda: converging_record(scenario, criterion),
                 lambda: sweep_initial_conditions(mode, topology, [0.7],
                                                  epsilon, 8, splitter)):
        calls.clear()
        with pytest.raises(error) as info:
            scan()
        failures.append((type(info.value), str(info.value), len(calls)))
    assert failures[0][2] == bad_pass - 1
    assert failures == failures[:1] * 3


# hand-entered pairs off their unit norm and sum, so both corrections are set
RAW_AMPLITUDES = (0.6, 0.8005)
RAW_WEIGHTS = (0.3, 0.7 + 3e-10)


def fast_and_checked(kind):
    """(fast-built, constructor-built) objects of one per-pass type, or of
    the agreement report's rows, which are filled the same way."""
    amplitudes = normalize_pair(*RAW_AMPLITUDES, True)
    weights = normalize_pair(*RAW_WEIGHTS, False)
    if kind == "amplitudes":
        return amplitude_pair(*amplitudes), AmplitudePair(*RAW_AMPLITUDES)
    if kind == "weights":
        return weight_pair(*weights), WeightPair(*RAW_WEIGHTS)
    if kind == "agreement row":
        estimate = EnsembleEstimate((0.3,), (0.7,), (0.05,), 100,
                                    SplitterCoefficients.from_reflectance(0.5),
                                    Topology.BOTH_CONNECTED, 0)
        (row,) = agreement_report(estimate, [WeightPair(0.25, 0.75)])
        return row, StepAgreement(1, 0.3, 0.25, 0.05, abs(0.3 - 0.25) / 0.05,
                                  True)
    mode = FIXED if kind == "coherent record" else MOVABLE
    scenario = Scenario(mode, Topology.BOTH_CONNECTED,
                        SplitterCoefficients.from_reflectance(0.7),
                        initial_state(mode, 0.7), max_steps=9, period=0.25)
    state = amplitudes if mode is FIXED else weights
    wiring = trajectory._WIRINGS.index(Topology.LEFT_HALF_CONNECTED)
    (record,) = trajectory._records(
        scenario, ((9, 10, wiring, state, weights),))
    checked = AmplitudePair(*RAW_AMPLITUDES) if mode is FIXED else None
    return record, TrajectoryRecord(9, 9 * 0.25, Topology.LEFT_HALF_CONNECTED,
                                    checked, WeightPair(*RAW_WEIGHTS))


PER_PASS_KINDS = ["amplitudes", "weights", "coherent record",
                  "measuring record", "agreement row"]


def slot_values(obj):
    """Every slot of obj, floats as their bytes and the pairs a record
    holds as their own slot_values; an unset slot raises AttributeError."""
    values = []
    for name in type(obj).__slots__:
        value = getattr(obj, name)
        if isinstance(value, float):
            value = bits(value)
        elif isinstance(value, (AmplitudePair, WeightPair)):
            value = slot_values(value)
        values.append((name, value))
    return values


@pytest.mark.parametrize("kind", PER_PASS_KINDS)
def test_fast_built_per_pass_objects_are_slotted_and_complete(kind):
    fast, checked = fast_and_checked(kind)
    fields = tuple(f.name for f in dataclasses.fields(checked))
    assert type(fast) is type(checked)
    assert type(fast).__slots__ == fields
    # the fill's setters, read from the slots: one a field, in field order
    assert tuple(setter.__self__.__name__
                 for setter in _setters(type(fast))) == fields
    assert not hasattr(fast, "__dict__")
    # every slot set, the corrections too, which equality skips
    assert normalize_pair(*RAW_AMPLITUDES, True)[2] != 0.0
    assert normalize_pair(*RAW_WEIGHTS, False)[2] != 0.0
    assert slot_values(fast) == slot_values(checked)
    for name in fields:  # no class default stands in for an unset slot
        with pytest.raises(AttributeError):
            getattr(object.__new__(type(fast)), name)


@pytest.mark.parametrize("kind", PER_PASS_KINDS)
def test_slotted_per_pass_objects_stay_frozen_values(kind):
    fast, checked = fast_and_checked(kind)
    assert dataclasses.replace(fast) == checked
    for f in dataclasses.fields(fast):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fast, f.name, getattr(fast, f.name))
    if isinstance(fast, TrajectoryRecord):
        moved = dataclasses.replace(fast, n=4)
        assert moved.n == 4
        assert slot_values(moved)[1:] == slot_values(fast)[1:]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copied = pickle.loads(pickle.dumps(fast, protocol))
        assert type(copied) is type(fast)
        assert slot_values(copied) == slot_values(fast)
