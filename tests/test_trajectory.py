"""Trajectory engine: stepping, schedules, convergence, switching runs."""

import gc
import math
import tracemalloc

import pytest

from splitloop import (ConvergenceCriterion, InteractionMode,
                       ModeMismatchError, NotConverged, OutOfRangeError,
                       Scenario, ScheduleConflictError, SplitterCoefficients,
                       StepSchedule, Topology, WeightPair,
                       amplitudes_from_left_weight, iterate,
                       steps_to_converge)

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
    """Bytes that iterate's records hold per record, under tracemalloc,
    and the records."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = iterate(scenario, schedule).records
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return held / len(records), records


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
        held, _ = held_per_record(scenario_of(mode, 0.7, 20_000))
        assert held <= limit

    @pytest.mark.parametrize("mode,limit", [
        (InteractionMode.FIXED_SPLITTER, 420),
        (InteractionMode.MOVABLE_SPLITTER, 290),
    ])
    def test_bytes_held_per_record_off_any_fixed_point(self, mode, limit):
        # a switch every pass makes every run one pass long, so each record
        # holds pairs of its own: 392 and 264 B on CPython 3.11, slotted, and
        # 512 and 344 B for the same types with a __dict__
        halves = (Topology.LEFT_HALF_CONNECTED, Topology.RIGHT_HALF_CONNECTED)
        schedule = StepSchedule(tuple((n, halves[n % 2])
                                      for n in range(1, 20_001)))
        held, records = held_per_record(scenario_of(mode, 0.7, 20_000),
                                        schedule)
        assert len({id(r.weights) for r in records}) == len(records)
        assert held <= limit

    @pytest.mark.parametrize("mode", list(InteractionMode))
    def test_bytes_held_per_record_on_a_fixed_point(self, mode):
        # the record, its time and its step index, about 136 B; the run's
        # one pair of pairs is shared
        held, records = held_per_record(scenario_of(mode, 0.7, 20_000))
        assert len({id(r.weights) for r in records}) < 50
        assert held <= 150

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
