"""Trajectory engine: stepping, schedules, convergence, switching runs."""

import gc
import math
import pickle
import tracemalloc
from itertools import pairwise

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from splitloop import (ConvergenceCriterion, InteractionMode,
                       ModeMismatchError, NotConverged, OutOfRangeError,
                       Scenario, ScheduleConflictError, SplitterCoefficients,
                       StepSchedule, Topology, Trajectory, WeightPair,
                       amplitudes_from_left_weight, fixed_points, iterate,
                       steps_to_converge, sweep_initial_conditions)
from splitloop.states import _new, amplitude_pair, weight_pair
from splitloop.trajectory import (_RECORD_SETTERS, TrajectoryRecord,
                                  _passes)

BALANCED_TARGET = WeightPair(0.5, 0.5)
SP9 = SplitterCoefficients.from_reflectance(0.9)


def unitary_scenario(w1: float, steps: int, topology=Topology.BOTH_CONNECTED,
                     period: float = 1.0) -> Scenario:
    return Scenario(InteractionMode.FIXED_SPLITTER, topology,
                    SplitterCoefficients.from_reflectance(w1),
                    amplitudes_from_left_weight(w1), max_steps=steps,
                    period=period)


def measure_scenario(w1: float, steps: int,
                     topology=Topology.BOTH_CONNECTED) -> Scenario:
    return Scenario(InteractionMode.MOVABLE_SPLITTER, topology,
                    SplitterCoefficients.from_reflectance(w1),
                    WeightPair(w1, 1.0 - w1), max_steps=steps)


def scenario_of(mode: InteractionMode, w1: float, steps: int) -> Scenario:
    return (unitary_scenario if mode is InteractionMode.FIXED_SPLITTER
            else measure_scenario)(w1, steps)


def held_per_record(scenario: Scenario, schedule=None):
    """Bytes held per record under tracemalloc, by iterate's Trajectory
    and then by its records built into a tuple, and that tuple."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trajectory = iterate(scenario, schedule)
        columns = tracemalloc.get_traced_memory()[0] - before
        records = tuple(trajectory.records)
        built = tracemalloc.get_traced_memory()[0] - before - columns
    finally:
        if not tracing:
            tracemalloc.stop()
    return columns / len(records), built / len(records), records


class TestScenarioValidation:
    def test_mode_and_state_must_match(self):
        with pytest.raises(ModeMismatchError):
            Scenario(InteractionMode.FIXED_SPLITTER, Topology.BOTH_CONNECTED,
                     SP9, WeightPair(0.5, 0.5), max_steps=3)
        with pytest.raises(ModeMismatchError):
            Scenario(InteractionMode.MOVABLE_SPLITTER,
                     Topology.BOTH_CONNECTED, SP9,
                     amplitudes_from_left_weight(0.5), max_steps=3)

    @pytest.mark.parametrize("mode", list(InteractionMode))
    def test_topology_must_be_a_topology(self, mode):
        state = (amplitudes_from_left_weight(0.9)
                 if mode is InteractionMode.FIXED_SPLITTER
                 else WeightPair(0.9, 0.1))
        with pytest.raises(ModeMismatchError, match="'both'"):
            Scenario(mode, "both", SP9, state, max_steps=3)

    @pytest.mark.parametrize("mode,state,message", [
        (InteractionMode.FIXED_SPLITTER, WeightPair(0.9, 0.1),
         "fixed-splitter maps act on AmplitudePair, got WeightPair"),
        (InteractionMode.MOVABLE_SPLITTER, amplitudes_from_left_weight(0.9),
         "movable-splitter maps act on WeightPair, got AmplitudePair"),
    ], ids=["fixed", "movable"])
    def test_mode_mismatch_message(self, mode, state, message):
        with pytest.raises(ModeMismatchError) as info:
            Scenario(mode, Topology.BOTH_CONNECTED, SP9, state, max_steps=3)
        assert str(info.value) == message

    def test_mode_must_be_an_interaction_mode(self):
        with pytest.raises(ModeMismatchError, match="'measure'"):
            Scenario("measure", Topology.BOTH_CONNECTED, SP9,
                     WeightPair(0.9, 0.1), max_steps=3)

    @pytest.mark.parametrize("splitter", [None, 0.9])
    def test_movable_mode_needs_splitter_coefficients(self, splitter):
        with pytest.raises(ModeMismatchError, match=repr(splitter)):
            Scenario(InteractionMode.MOVABLE_SPLITTER,
                     Topology.BOTH_CONNECTED, splitter,
                     WeightPair(0.9, 0.1), max_steps=3)

    def test_fixed_mode_accepts_no_splitter(self):
        scenario = Scenario(InteractionMode.FIXED_SPLITTER,
                            Topology.BOTH_CONNECTED, None,
                            amplitudes_from_left_weight(0.9), max_steps=4)
        assert iterate(scenario) == iterate(unitary_scenario(0.9, 4))

    @pytest.mark.parametrize("steps", [0, -1, 2.5])
    def test_max_steps_validation(self, steps):
        with pytest.raises(OutOfRangeError):
            unitary_scenario(0.9, steps)

    def test_period_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            unitary_scenario(0.9, 5, period=0.0)

    @pytest.mark.parametrize("period", [math.inf, math.nan])
    def test_period_must_be_finite(self, period):
        with pytest.raises(OutOfRangeError):
            unitary_scenario(0.9, 5, period=period)

    @pytest.mark.parametrize("steps,period", [(3, 1e308), (10 ** 400, 1.0)],
                             ids=["period", "max-steps"])
    def test_last_record_time_must_be_finite(self, steps, period):
        with pytest.raises(OutOfRangeError, match="max_steps \\* period "
                                                  "overflows"):
            unitary_scenario(0.9, steps, period=period)


class TestIterate:
    def test_record_count_and_indexing(self):
        trajectory = iterate(unitary_scenario(0.9, 7))
        assert len(trajectory.records) == 7
        assert [r.n for r in trajectory.records] == list(range(1, 8))

    def test_first_record_is_the_initial_state(self):
        trajectory = iterate(unitary_scenario(0.9, 3))
        first = trajectory.records[0]
        assert first.weights.w_left == pytest.approx(0.9, abs=1e-15)
        assert first.topology is Topology.BOTH_CONNECTED

    def test_times_are_multiples_of_the_period(self):
        trajectory = iterate(unitary_scenario(0.9, 4, period=2.5))
        assert [r.time for r in trajectory.records] == [2.5, 5.0, 7.5, 10.0]

    def test_unitary_records_carry_amplitudes(self):
        trajectory = iterate(unitary_scenario(0.9, 3))
        for r in trajectory.records:
            assert r.amplitudes is not None
            assert r.weights.w_left == pytest.approx(
                r.amplitudes.a_left ** 2, abs=1e-15)

    def test_measure_records_have_no_amplitudes(self):
        trajectory = iterate(measure_scenario(0.9, 3))
        assert all(r.amplitudes is None for r in trajectory.records)

    @pytest.mark.parametrize("mode,limit", [
        (InteractionMode.FIXED_SPLITTER, 420),
        (InteractionMode.MOVABLE_SPLITTER, 290),
    ])
    def test_bytes_held_per_record(self, mode, limit):
        # most of these records share their pairs, on a fixed point; the
        # caps are those of records with pairs of their own, tested below
        _, held, _ = held_per_record(scenario_of(mode, 0.7, 20_000))
        assert held <= limit

    @pytest.mark.parametrize("mode,limit,columns_limit", [
        (InteractionMode.FIXED_SPLITTER, 420, 64),
        (InteractionMode.MOVABLE_SPLITTER, 290, 40),
    ])
    def test_bytes_held_per_record_off_any_fixed_point(self, mode, limit,
                                                      columns_limit):
        # a switch every pass makes every run one pass long, so each record
        # holds pairs of its own: 392 and 264 B on CPython 3.11, slotted, and
        # 512 and 344 B for the same types with a __dict__. The Trajectory
        # holds each run's first pass, wiring and six or three floats: 57
        # and 33 B, and the arrays' spare room
        halves = (Topology.LEFT_HALF_CONNECTED, Topology.RIGHT_HALF_CONNECTED)
        schedule = StepSchedule(tuple((n, halves[n % 2])
                                      for n in range(1, 20_001)))
        columns, held, records = held_per_record(
            scenario_of(mode, 0.7, 20_000), schedule)
        assert len({id(r.weights) for r in records}) == len(records)
        assert held <= limit
        assert columns <= columns_limit

    @pytest.mark.parametrize("mode", list(InteractionMode))
    def test_bytes_held_per_record_on_a_fixed_point(self, mode):
        # the record, its time and its step index, about 136 B; the run's
        # one pair of pairs is shared. The Trajectory holds a few runs
        columns, held, records = held_per_record(
            scenario_of(mode, 0.7, 20_000))
        assert len({id(r.weights) for r in records}) < 50
        assert held <= 150
        assert columns <= 1

    @pytest.mark.parametrize("mode", list(InteractionMode))
    def test_a_fixed_run_shares_its_pairs_and_a_switch_starts_new_ones(
            self, mode):
        # to the same wiring, so the switch pass repeats the fixed point
        schedule = StepSchedule(((80, Topology.BOTH_CONNECTED),))
        records = iterate(scenario_of(mode, 0.7, 100), schedule).records
        before, after = records[60:79], records[79:]
        for run in (before, after):
            assert all(r.weights is run[0].weights for r in run)
            assert all(r.amplitudes is run[0].amplitudes for r in run)
        assert after[0].weights is not before[-1].weights
        assert after[0].weights == before[-1].weights
        if mode is InteractionMode.FIXED_SPLITTER:
            assert after[0].amplitudes is not before[-1].amplitudes
        assert [r.n for r in records] == list(range(1, 101))

    def test_known_orbit_values(self):
        series = iterate(unitary_scenario(0.9, 5)).w_left_series()
        expected = (0.9, 0.7352941176470589, 0.5622568093385214,
                    0.5039061903962647, 0.500015258789059)
        for got, want in zip(series, expected):
            assert got == pytest.approx(want, abs=5e-15)

    def test_bit_for_bit_determinism(self):
        first = iterate(unitary_scenario(0.37, 40))
        second = iterate(unitary_scenario(0.37, 40))
        assert first == second

    def test_prefix_property(self):
        long = iterate(unitary_scenario(0.37, 20))
        short = iterate(unitary_scenario(0.37, 7))
        assert long.records[:7] == short.records

    def test_final_property(self):
        trajectory = iterate(measure_scenario(0.9, 10))
        assert trajectory.final is trajectory.records[-1]
        assert trajectory.final.weights.w_left == pytest.approx(
            0.5536870912, abs=1e-12)


def eager_records(scenario: Scenario, passes):
    """The builder iterate ran over every pass before it held its runs as
    columns: a record for each pass of each (first, last, topology, state,
    weights) run, unvalidated; a run's records share its pairs."""
    period = scenario.period
    unitary = scenario.mode is InteractionMode.FIXED_SPLITTER
    (set_n, set_time, set_topology, set_amplitudes,
     set_weights) = _RECORD_SETTERS
    records = []
    for first, last, topology, state, weights in passes:
        amplitudes = amplitude_pair(*state) if unitary else None
        weights = weight_pair(*weights)
        n = first
        while n <= last:  # cheaper than a range for a one-pass run
            record = _new(TrajectoryRecord)  # filled through its slot setters
            set_n(record, n)
            set_time(record, n * period)
            set_topology(record, topology)
            set_amplitudes(record, amplitudes)
            set_weights(record, weights)
            records.append(record)
            n += 1
    return tuple(records)


def pair_hex(pair):
    """Every float slot of a pair, corrections included, as .hex()."""
    if pair is None:
        return None
    return tuple(getattr(pair, name).hex() for name in type(pair).__slots__)


def record_hex(record):
    return (record.n, record.time.hex(), record.topology,
            pair_hex(record.amplitudes), pair_hex(record.weights))


@st.composite
def lazy_runs(draw):
    """A scenario and schedule in either mode, from any wiring, splitter
    and period, starting on a fixed point or anywhere, with a switch at
    every pass, one at step 1, a few anywhere, or none."""
    mode = draw(st.sampled_from(InteractionMode))
    steps = draw(st.integers(1, 80))
    if draw(st.booleans()):  # the runs sit on a fixed point from pass 2
        start = draw(st.sampled_from(
            [p.point for t in Topology for p in fixed_points(mode, t)]))
    else:
        w = draw(st.floats(0.0, 1.0))
        start = (amplitudes_from_left_weight(w)
                 if mode is InteractionMode.FIXED_SPLITTER
                 else WeightPair(w, 1.0 - w))
    kind = draw(st.sampled_from(["every pass", "step 1", "anywhere",
                                 "none"]))
    switches = []
    if kind == "every pass":
        switches = list(enumerate(draw(st.lists(
            st.sampled_from(Topology), min_size=steps, max_size=steps)), 1))
    elif kind != "none" and steps > 1:
        switches = draw(st.lists(
            st.tuples(st.integers(2, steps), st.sampled_from(Topology)),
            max_size=4, unique_by=lambda s: s[0]))
    if kind == "step 1":
        switches.append((1, draw(st.sampled_from(Topology))))
    scenario = Scenario(
        mode, draw(st.sampled_from(Topology)),
        SplitterCoefficients.from_reflectance(draw(st.floats(0.0, 1.0))),
        start, max_steps=steps,
        period=draw(st.sampled_from([1.0, 0.25]) | st.floats(1e-6, 1e6)))
    return scenario, StepSchedule(tuple(sorted(switches)))


class TestRecordsBuiltOnRead:
    @seed(4077)
    @settings(max_examples=300, deadline=None)
    @given(lazy_runs(), st.data())
    def test_records_match_the_eager_builder(self, run, data):
        scenario, schedule = run
        trajectory = iterate(scenario, schedule)
        records = trajectory.records
        runs = list(_passes(scenario, schedule))
        reference = eager_records(scenario, runs)
        read = list(records)
        assert [record_hex(r) for r in read] == [
            record_hex(r) for r in reference]
        # one run's records share its pairs, and no two runs share any
        for pair in ("amplitudes", "weights"):
            assert [getattr(a, pair) is getattr(b, pair)
                    for a, b in pairwise(read)] == [
                getattr(a, pair) is getattr(b, pair)
                for a, b in pairwise(reference)]
        n = scenario.max_steps
        assert len(records) == len(reference) == n
        assert record_hex(trajectory.final) == record_hex(reference[-1])
        assert trajectory.final is records[-1]
        assert [w.hex() for w in trajectory.w_left_series()] == [
            r.weights.w_left.hex() for r in reference]
        for i in {0, -1, *(first - 1 for first, *_ in runs)}:
            assert record_hex(records[i]) == record_hex(reference[i])
        if n > 1:  # every read but the final one builds a new record
            assert records[0] is not records[0]
        window = slice(*data.draw(st.tuples(
            st.none() | st.integers(-n - 2, n + 2),
            st.none() | st.integers(-n - 2, n + 2),
            st.sampled_from([None, 1, 2, -1, -3]))))
        assert isinstance(records[window], tuple)
        assert [record_hex(r) for r in records[window]] == [
            record_hex(r) for r in reference[window]]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                records[i]
        for i in ("0", 1.0, None):
            with pytest.raises(TypeError):
                records[i]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("mode", list(InteractionMode))
    def test_an_iterate_result_round_trips_through_pickle(self, mode,
                                                          protocol):
        schedule = StepSchedule(((30, Topology.RIGHT_HALF_CONNECTED),))
        trajectory = iterate(scenario_of(mode, 0.7, 60), schedule)
        built = Trajectory(tuple(trajectory.records))
        final = trajectory.final  # held by the records, and pickled too
        copy = pickle.loads(pickle.dumps(trajectory, protocol))
        assert copy == trajectory == built
        assert hash(copy) == hash(trajectory) == hash(built)
        assert [record_hex(r) for r in copy.records] == [
            record_hex(r) for r in built.records]
        assert copy.final is copy.records[-1]
        assert record_hex(copy.final) == record_hex(final)
        # a tuple of records reads its series record by record
        assert built.w_left_series() == trajectory.w_left_series()
        assert copy.w_left_series() == trajectory.w_left_series()


class TestSchedules:
    def test_switch_takes_effect_before_the_named_step(self):
        schedule = StepSchedule(((3, Topology.RIGHT_HALF_CONNECTED),))
        trajectory = iterate(unitary_scenario(0.9, 5), schedule)
        topologies = [r.topology for r in trajectory.records]
        assert topologies == [Topology.BOTH_CONNECTED] * 2 + \
            [Topology.RIGHT_HALF_CONNECTED] * 3
        # record 3 must equal a right-half step applied to record 2
        from splitloop import step_unitary_right_half
        manual = step_unitary_right_half(trajectory.records[1].amplitudes)
        assert trajectory.records[2].amplitudes == manual

    def test_switch_at_step_one_relabels_the_start(self):
        schedule = StepSchedule(((1, Topology.LEFT_HALF_CONNECTED),))
        trajectory = iterate(unitary_scenario(0.9, 2), schedule)
        assert trajectory.records[0].topology is Topology.LEFT_HALF_CONNECTED
        assert trajectory.records[0].weights.w_left == pytest.approx(
            0.9, abs=1e-15)

    def test_non_increasing_switches_rejected(self):
        with pytest.raises(ScheduleConflictError):
            StepSchedule(((4, Topology.BOTH_CONNECTED),
                          (4, Topology.RIGHT_HALF_CONNECTED)))
        with pytest.raises(ScheduleConflictError):
            StepSchedule(((0, Topology.BOTH_CONNECTED),))

    def test_switch_target_must_be_a_topology(self):
        with pytest.raises(ScheduleConflictError) as info:
            StepSchedule(((2, "both"),))
        assert str(info.value) == ("switch target must be a Topology, got "
                                   "'both'")

    def test_switch_beyond_max_steps_rejected(self):
        schedule = StepSchedule(((9, Topology.RIGHT_HALF_CONNECTED),))
        with pytest.raises(ScheduleConflictError):
            iterate(unitary_scenario(0.9, 5), schedule)


class TestConvergence:
    def test_criterion_distance_is_max_abs(self):
        criterion = ConvergenceCriterion(BALANCED_TARGET, 1e-3)
        assert criterion.distance(WeightPair(0.504, 0.496)) == pytest.approx(
            0.004)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            ConvergenceCriterion(BALANCED_TARGET, 0.0)

    @pytest.mark.parametrize("w1,eps,expected", [
        (0.9, 1e-4, 5),
        (0.9, 1e-3, 5),
        (0.05, 5e-4, 6),
        (0.5, 1e-6, 1),
    ])
    def test_unitary_step_counts(self, w1, eps, expected):
        count = steps_to_converge(unitary_scenario(w1, 50),
                                  ConvergenceCriterion(BALANCED_TARGET, eps))
        assert count == expected

    @pytest.mark.parametrize("w1,eps,expected", [
        (0.9, 1e-3, 28),
        (0.9, 1e-4, 39),
        (0.95, 1e-3, 59),
    ])
    def test_measure_step_counts(self, w1, eps, expected):
        count = steps_to_converge(measure_scenario(w1, 200),
                                  ConvergenceCriterion(BALANCED_TARGET, eps))
        assert count == expected

    def test_threshold_is_strict(self):
        # with epsilon equal to the step-4 distance, step 4 does not count
        records = iterate(unitary_scenario(0.9, 6)).records
        criterion = ConvergenceCriterion(BALANCED_TARGET, 1.0)
        d4 = criterion.distance(records[3].weights)
        strict = ConvergenceCriterion(BALANCED_TARGET, d4)
        assert steps_to_converge(unitary_scenario(0.9, 6), strict) == 5

    @settings(max_examples=200, deadline=None)
    @given(w1=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).filter(
        lambda w: w != 0.5), eps=st.floats(1e-12, 1e-1))
    def test_coherent_step_counts_match_the_closed_form(self, w1, eps):
        # In ratio rho = a/b the coherent both-connected map is Newton's
        # iteration for rho^2 = 1, which doubles s = artanh(min(rho, 1/rho))
        # each pass: d_n = 1/(2 cosh(2^n s)), so the run converges at the
        # smallest n >= 1 with 2^n s > arccosh(1/(2 eps)).
        start = amplitudes_from_left_weight(w1)
        rho = start.a_left / start.b_right
        rho = min(rho, 1.0 / rho)
        s = math.atanh(rho) if rho < 1.0 else math.inf
        bound = math.acosh(1.0 / (2.0 * eps))
        n = 1
        while math.ldexp(s, n) <= bound:
            n += 1

        def closed_form(m):
            x = math.ldexp(s, m)
            return 0.5 / math.cosh(x) if x < 700.0 else 0.0

        # skip draws a float pass could land on either side of: within a
        # relative 1e-9 of the boundary, or within 1e-14, six times the
        # float passes' largest measured drift from d_n (14 ulps of 1/2)
        assume(all(abs(closed_form(m) - eps) > 1e-9 * eps + 1e-14
                   for m in (n - 1, n) if m >= 1))
        criterion = ConvergenceCriterion(BALANCED_TARGET, eps)
        scenario = Scenario(InteractionMode.FIXED_SPLITTER,
                            Topology.BOTH_CONNECTED, None, start,
                            max_steps=1100)  # n <= 545 from w1 >= 5e-324
        assert steps_to_converge(scenario, criterion) == n
        (cell,) = sweep_initial_conditions(
            InteractionMode.FIXED_SPLITTER, Topology.BOTH_CONNECTED, [w1],
            eps, 1100).cells
        assert (cell.converged, cell.steps) == (True, n)

    def test_criterion_10s_release_is_the_closed_forms_count(self):
        # acceptance criterion 10's run: drained in the right-half map from
        # balance, then reconnected from the first record past 1 - 1e-6 on
        # the right. The closed form above predicts the 17 records of its
        # release, 16 passes, from that record's ratio alone.
        splitter = SplitterCoefficients.from_reflectance(0.5)
        drain = iterate(Scenario(InteractionMode.FIXED_SPLITTER,
                                 Topology.RIGHT_HALF_CONNECTED, splitter,
                                 amplitudes_from_left_weight(0.5),
                                 max_steps=100))
        crossing = next(r for r in drain.records
                        if r.weights.w_right > 1.0 - 1e-6)
        rho = crossing.amplitudes.a_left / crossing.amplitudes.b_right
        assert crossing.n == 5
        assert rho == pytest.approx(1.358e-4, rel=1e-3)
        eps = 1e-4
        n = 1 + math.ceil(math.log2(math.acosh(1.0 / (2.0 * eps))
                                    / (2.0 * math.atanh(rho))))
        assert n == 17
        back = Scenario(InteractionMode.FIXED_SPLITTER,
                        Topology.BOTH_CONNECTED, splitter, crossing.amplitudes,
                        max_steps=400)
        assert steps_to_converge(
            back, ConvergenceCriterion(BALANCED_TARGET, eps)) == n

    @seed(2009)
    @settings(max_examples=300, deadline=None)
    @example(w1=0.9)  # w_2 = 0.7352941176470588, the closed form's ...89
    @given(w1=st.floats(1e-6, 1.0 - 1e-6))
    def test_coherent_weights_are_the_closed_form(self, w1):
        # README's closed form: Heron's iteration for rho^2 = 1 doubles
        # s = artanh(min(rho_1, 1/rho_1)) each pass, and from pass 2 on the
        # ratio is past 1, so w_n = 1/2 + 1/(2 cosh(2^n s)) for n >= 2
        start = amplitudes_from_left_weight(w1)
        rho = start.a_left / start.b_right
        rho = min(rho, 1.0 / rho)
        s = math.atanh(rho) if rho < 1.0 else math.inf  # balanced: w_n = 1/2
        series = iterate(Scenario(InteractionMode.FIXED_SPLITTER,
                                  Topology.BOTH_CONNECTED, None, start,
                                  max_steps=8)).w_left_series()
        for n in range(2, 9):
            x = math.ldexp(s, n)
            closed = 0.5 + 0.5 / math.cosh(x) if x <= 700.0 else 0.5
            assert abs(series[n - 1] - closed) <= 8 * 2.0 ** -53, (n, w1)

    def test_not_converged_is_a_value(self):
        result = steps_to_converge(measure_scenario(0.9, 5),
                                   ConvergenceCriterion(BALANCED_TARGET,
                                                        1e-6))
        assert isinstance(result, NotConverged)
        assert result.steps == 5
        assert result.final_distance == pytest.approx(0.16384, abs=1e-12)


class TestSwitchingExperiment:
    def test_capture_then_release(self):
        trajectory = iterate(
            unitary_scenario(0.5, 25, Topology.RIGHT_HALF_CONNECTED),
            StepSchedule(((6, Topology.BOTH_CONNECTED),)))
        assert len(trajectory.records) == 25
        captured = trajectory.records[4]
        assert captured.weights.w_right > 1.0 - 1e-6
        assert abs(trajectory.final.weights.w_left - 0.5) < 1e-4

    def test_deeper_capture_escapes_slower(self):
        # one extra draining step leaves w_left near 3e-16; reconnecting
        # flips the state next to the unstable all-left point, and the
        # deviation only grows fourfold per pass, so 20 passes are not
        # enough to get back to balance
        trajectory = iterate(
            unitary_scenario(0.5, 26, Topology.RIGHT_HALF_CONNECTED),
            StepSchedule(((7, Topology.BOTH_CONNECTED),)))
        assert trajectory.final.weights.w_left > 0.99

    def test_measure_mode_switching(self):
        trajectory = iterate(
            Scenario(InteractionMode.MOVABLE_SPLITTER,
                     Topology.RIGHT_HALF_CONNECTED, SP9, WeightPair(0.5, 0.5),
                     max_steps=6),
            StepSchedule(((4, Topology.BOTH_CONNECTED),)))
        w3 = trajectory.records[2].weights.w_left
        assert w3 == pytest.approx(0.5 * SP9.a1_squared ** 2, abs=1e-15)
