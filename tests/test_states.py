"""Construction, validation and renormalization of the state containers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitloop import (AMPLITUDE_NORM_TOL, WEIGHT_SUM_TOL, AmplitudePair,
                       ConvergenceCriterion, InteractionMode,
                       InvalidStepError, ModeMismatchError, NormalizationError,
                       OutOfRangeError, Scenario, ScheduleConflictError,
                       SplitLoopError, SplitterCoefficients, StepMap,
                       StepSchedule, Topology,
                       Violation, WeightPair, agreement_report,
                       amplitudes_from_left_weight, closed_form_measure,
                       closed_form_measure_both,
                       closed_form_measure_right_half, compare_modes,
                       convergence_order, ensemble_frequencies,
                       fixed_points, induced_weight_map, iterate,
                       step_measure_right_half,
                       steps_to_converge, sweep_initial_conditions,
                       validate_amplitudes, validate_weights, weights_of)
from splitloop import states
from splitloop.states import normalize_pair

INV_SQRT2 = 1.0 / math.sqrt(2.0)

angles = st.floats(0.0, math.pi / 2.0)
weights = st.floats(0.0, 1.0)


@pytest.mark.parametrize("cls", [AmplitudePair, WeightPair])
def test_rounding_undershoot_is_clamped_to_positive_zero(cls):
    low, high = dataclasses.astuple(cls(-1e-13, 1.0))[:2]
    assert (low, high) == (0.0, 1.0)
    assert math.copysign(1.0, low) == 1.0
    high, low = dataclasses.astuple(cls(1.0, -1e-13))[:2]
    assert (high, low) == (1.0, 0.0)
    assert math.copysign(1.0, low) == 1.0


class TestAmplitudePair:
    def test_exact_pythagorean_pair_kept(self):
        state = AmplitudePair(0.6, 0.8)
        assert state.a_left == 0.6
        assert state.b_right == 0.8
        assert state.norm_correction == 0.0

    def test_balanced_pair(self):
        state = AmplitudePair(INV_SQRT2, INV_SQRT2)
        assert abs(state.a_left - INV_SQRT2) < 1e-15
        assert abs(state.norm_correction) < 1e-15

    def test_small_norm_drift_is_renormalized(self):
        state = AmplitudePair(0.6002, 0.8)
        norm = state.a_left ** 2 + state.b_right ** 2
        assert abs(norm - 1.0) < 1e-15
        assert state.norm_correction == pytest.approx(
            math.sqrt(0.6002 ** 2 + 0.8 ** 2) - 1.0)

    def test_three_decimal_pair_accepted(self):
        # (0.949, 0.316) has a squared-norm excess of about 4.6e-4, inside
        # the acceptance band
        state = AmplitudePair(0.949, 0.316)
        assert state.a_left ** 2 + state.b_right ** 2 == pytest.approx(1.0)
        assert state.norm_correction == pytest.approx(
            math.sqrt(0.949 ** 2 + 0.316 ** 2) - 1.0)
        assert state.norm_correction > 0.0

    def test_gross_norm_violation_rejected(self):
        with pytest.raises(NormalizationError) as err:
            AmplitudePair(0.5, 0.5)
        assert err.value.violation.kind == "normalization"
        # deviation is reported in squared-norm units
        assert err.value.violation.deviation == pytest.approx(-0.5)

    def test_negative_component_rejected(self):
        with pytest.raises(OutOfRangeError):
            AmplitudePair(-0.6, 0.8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(OutOfRangeError):
            AmplitudePair(bad, 0.8)

    def test_frozen(self):
        state = AmplitudePair(0.6, 0.8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.a_left = 0.0

    @given(theta=angles)
    def test_trig_pairs_construct_cleanly(self, theta):
        state = AmplitudePair(math.cos(theta), math.sin(theta))
        assert abs(state.a_left ** 2 + state.b_right ** 2 - 1.0) < 1e-15


class TestWeightPair:
    def test_exact_pair(self):
        pair = WeightPair(0.9, 0.1)
        assert pair.w_left == 0.9
        assert pair.w_right == 0.1

    def test_sum_drift_within_band_renormalized(self):
        pair = WeightPair(0.7, 0.30000000000000004)
        assert pair.w_left + pair.w_right == pytest.approx(1.0, abs=1e-15)

    def test_sum_violation_rejected(self):
        with pytest.raises(NormalizationError) as err:
            WeightPair(0.6, 0.6)
        assert err.value.violation.kind == "weight-sum"

    def test_negative_weight_rejected(self):
        with pytest.raises(OutOfRangeError):
            WeightPair(-0.2, 1.2)

    @given(w=weights)
    def test_complement_pairs_construct(self, w):
        pair = WeightPair(w, 1.0 - w)
        assert abs(pair.w_left + pair.w_right - 1.0) < 1e-15


class TestSplitterCoefficients:
    def test_from_reflectance(self):
        splitter = SplitterCoefficients.from_reflectance(0.9)
        assert splitter.a1_squared == pytest.approx(0.9, abs=1e-15)
        assert splitter.b1_squared == pytest.approx(0.1, abs=1e-15)
        assert abs(splitter.a1_squared + splitter.b1_squared - 1.0) < 1e-15

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_from_reflectance_range(self, bad):
        with pytest.raises(OutOfRangeError):
            SplitterCoefficients.from_reflectance(bad)

    def test_direct_construction_validates_norm(self):
        with pytest.raises(NormalizationError):
            SplitterCoefficients(0.9, 0.9)

    @given(p=weights)
    def test_reflectance_round_trip(self, p):
        splitter = SplitterCoefficients.from_reflectance(p)
        assert abs(splitter.a1_squared - p) < 1e-12


class TestValidators:
    def test_validate_amplitudes_ok(self):
        assert validate_amplitudes(0.6, 0.8) is None

    def test_validate_amplitudes_norm(self):
        violation = validate_amplitudes(0.6, 0.6)
        assert isinstance(violation, Violation)
        assert violation.kind == "normalization"

    def test_validate_amplitudes_range(self):
        assert validate_amplitudes(-0.5, 0.8).kind == "range"

    def test_validate_weights(self):
        assert validate_weights(0.25, 0.75) is None
        assert validate_weights(0.25, 0.5).kind == "weight-sum"
        assert validate_weights(1.5, -0.5).kind == "range"

    def test_fixed_tolerance(self):
        # squared norms 1.00064 and 1.001601: inside and outside the 1e-3 band
        assert validate_amplitudes(0.6, 0.8004) is None
        assert validate_amplitudes(0.6, 0.801).kind == "normalization"
        assert AMPLITUDE_NORM_TOL == 1e-3


class TestConversions:
    def test_amplitudes_from_left_weight(self):
        state = amplitudes_from_left_weight(0.25)
        assert state.a_left == pytest.approx(0.5, abs=1e-15)
        assert state.b_right == pytest.approx(math.sqrt(0.75), abs=1e-15)

    @pytest.mark.parametrize("w", [-0.01, 1.01, math.nan])
    def test_left_weight_range(self, w):
        with pytest.raises(OutOfRangeError):
            amplitudes_from_left_weight(w)

    def test_weights_of(self):
        pair = weights_of(AmplitudePair(0.6, 0.8))
        assert pair.w_left == pytest.approx(0.36, abs=1e-15)
        assert pair.w_right == pytest.approx(0.64, abs=1e-15)

    @given(w=weights)
    def test_weight_round_trip(self, w):
        back = weights_of(amplitudes_from_left_weight(w))
        assert abs(back.w_left - w) < 1e-12

    @given(w=weights)
    def test_weights_of_a_weight_pair_is_the_pair(self, w):
        pair = WeightPair(w, 1.0 - w)
        assert weights_of(pair) is pair

    @given(theta=angles)
    def test_weights_of_amplitudes_bit_for_bit(self, theta):
        state = AmplitudePair(math.cos(theta), math.sin(theta))
        a, b = state.a_left, state.b_right
        expected = normalize_pair(a * a, b * b, False)
        pair = weights_of(state)
        assert [pair.w_left.hex(), pair.w_right.hex(),
                pair.sum_correction.hex()] == [x.hex() for x in expected]


SP9 = SplitterCoefficients.from_reflectance(0.9)
BOTH = Topology.BOTH_CONNECTED
MEASURE = InteractionMode.MOVABLE_SPLITTER
WP9 = WeightPair(0.9, 0.1)
AP9 = amplitudes_from_left_weight(0.9)
# past Python's int-to-decimal limit of 4300 digits: repr refuses it
HUGE = 10 ** 5000


def _ensemble():
    return ensemble_frequencies(SP9, BOTH, 2, 10, 0)


# Every call site of the shared argument rules in `states`, and each way a
# state constructor fails, with the class and exact message each raises.
NO_SPLITTER = "movable-splitter maps need SplitterCoefficients, got "
WRONG_STATE = "movable-splitter maps act on WeightPair, got AmplitudePair"


@pytest.mark.parametrize("call,error,message", [
    (lambda: SplitterCoefficients.from_reflectance(1.5), OutOfRangeError,
     "a1_squared out of range: 1.5 not in [0, 1]"),
    (lambda: amplitudes_from_left_weight(math.nan), OutOfRangeError,
     "w_left out of range: nan not in [0, 1]"),
    (lambda: closed_form_measure_both(1.2, SP9, 3), OutOfRangeError,
     "w_left_initial out of range: 1.2 not in [0, 1]"),
    (lambda: closed_form_measure_right_half(-0.1, SP9, 3), OutOfRangeError,
     "w_left_initial out of range: -0.1 not in [0, 1]"),
    (lambda: compare_modes(-0.5, 1e-3), OutOfRangeError,
     "w_left_initial out of range: -0.5 not in [0, 1]"),
    (lambda: closed_form_measure_both(0.9, SP9, 0), InvalidStepError,
     "step index must be an integer >= 1, got 0"),
    (lambda: closed_form_measure_right_half(0.9, SP9, 2.5), InvalidStepError,
     "step index must be an integer >= 1, got 2.5"),
    (lambda: Scenario(MEASURE, BOTH, SP9, WP9, max_steps=2.0),
     OutOfRangeError, "max_steps must be an integer >= 1, got 2.0"),
    (lambda: StepSchedule(((0, BOTH),)), ScheduleConflictError,
     "switch step must be an integer >= 1, got 0"),
    (lambda: ensemble_frequencies(SP9, BOTH, 1.5, 1, 0), OutOfRangeError,
     "steps must be an integer >= 1, got 1.5"),
    (lambda: ensemble_frequencies(SP9, BOTH, 3, 0, 0), OutOfRangeError,
     "n_paths must be an integer >= 1, got 0"),
    (lambda: Scenario(MEASURE, BOTH, SP9, WP9, max_steps=3, period=0.0),
     OutOfRangeError, "period must be positive and finite, got 0.0"),
    (lambda: agreement_report(_ensemble(), [WP9, WP9], sigma_bound=math.nan),
     OutOfRangeError, "sigma_bound must be positive and finite, got nan"),
    (lambda: Scenario(MEASURE, "both", SP9, WP9, max_steps=3),
     ModeMismatchError, "topology must be a Topology, got 'both'"),
    (lambda: Scenario("measure", BOTH, SP9, WP9, max_steps=3),
     ModeMismatchError, "mode must be an InteractionMode, got 'measure'"),
    (lambda: Scenario(MEASURE, BOTH, None, WP9, max_steps=3),
     ModeMismatchError, NO_SPLITTER + "None"),
    (lambda: sweep_initial_conditions(MEASURE, BOTH, (0.2, 0.4), 1e-3),
     ModeMismatchError, NO_SPLITTER + "None"),
    (lambda: StepMap(MEASURE, BOTH, None).apply(WP9),
     ModeMismatchError, NO_SPLITTER + "None"),
    (lambda: step_measure_right_half(WP9, 0.9),
     ModeMismatchError, NO_SPLITTER + "0.9"),
    (lambda: induced_weight_map(MEASURE, BOTH),
     ModeMismatchError, NO_SPLITTER + "None"),
    (lambda: closed_form_measure_both(0.9, None, 3),
     ModeMismatchError, NO_SPLITTER + "None"),
    (lambda: closed_form_measure_right_half(0.9, 0.9, 3),
     ModeMismatchError, NO_SPLITTER + "0.9"),
    (lambda: ensemble_frequencies(None, BOTH, 3, 10, 0),
     ModeMismatchError, NO_SPLITTER + "None"),
    (lambda: ensemble_frequencies(0.9, BOTH, 3, 1, 0),
     ModeMismatchError, NO_SPLITTER + "0.9"),
    (lambda: ensemble_frequencies(SP9, "both", 3, 10, 0),
     ModeMismatchError, "topology must be a Topology, got 'both'"),
    (lambda: ConvergenceCriterion(WP9, math.inf), OutOfRangeError,
     "epsilon must be positive and finite, got inf"),
    (lambda: Scenario(MEASURE, BOTH, SP9, AP9, max_steps=3),
     ModeMismatchError, WRONG_STATE),
    (lambda: StepMap(MEASURE, BOTH, SP9).apply(AP9),
     ModeMismatchError, WRONG_STATE),
    # the splitter is checked before the state
    (lambda: Scenario(MEASURE, BOTH, None, AP9, max_steps=3),
     ModeMismatchError, NO_SPLITTER + "None"),
    (lambda: closed_form_measure("both", 0.9, SP9, 3),
     ModeMismatchError, "topology must be a Topology, got 'both'"),
    # a bool is an int, but not a count or a seed
    (lambda: ensemble_frequencies(SP9, BOTH, True, 5, 0), OutOfRangeError,
     "steps must be an integer >= 1, got True"),
    (lambda: ensemble_frequencies(SP9, BOTH, 3, True, 0), OutOfRangeError,
     "n_paths must be an integer >= 1, got True"),
    (lambda: ensemble_frequencies(SP9, BOTH, 3, 5, True), OutOfRangeError,
     "seed must be a non-negative integer, got True"),
    (lambda: ensemble_frequencies(SP9, BOTH, 3, 1, False), OutOfRangeError,
     "seed must be a non-negative integer, got False"),
    (lambda: Scenario(MEASURE, BOTH, SP9, WP9, max_steps=True),
     OutOfRangeError, "max_steps must be an integer >= 1, got True"),
    (lambda: StepSchedule(((True, BOTH),)), ScheduleConflictError,
     "switch step must be an integer >= 1, got True"),
    (lambda: closed_form_measure_both(0.9, SP9, True), InvalidStepError,
     "step index must be an integer >= 1, got True"),
    # numpy integers are counts and seeds; numpy floats and bools are not
    (lambda: ensemble_frequencies(SP9, BOTH, np.float64(3.0), 1, 0),
     OutOfRangeError,
     "steps must be an integer >= 1, got np.float64(3.0)"),
    (lambda: Scenario(MEASURE, BOTH, SP9, WP9, max_steps=3.0),
     OutOfRangeError, "max_steps must be an integer >= 1, got 3.0"),
    (lambda: Scenario(MEASURE, BOTH, SP9, WP9, max_steps=np.True_),
     OutOfRangeError, "max_steps must be an integer >= 1, got np.True_"),
    (lambda: ensemble_frequencies(SP9, BOTH, 3, 5, np.float64(1.0)),
     OutOfRangeError,
     "seed must be a non-negative integer, got np.float64(1.0)"),
    (lambda: ensemble_frequencies(SP9, BOTH, 3, 1, np.int64(-1)),
     OutOfRangeError,
     "seed must be a non-negative integer, got np.int64(-1)"),
    (lambda: ensemble_frequencies(SP9, BOTH, 3, np.int64(0), 0),
     OutOfRangeError, "n_paths must be an integer >= 1, got np.int64(0)"),
    (lambda: closed_form_measure_both(0.9, SP9, np.float64(3.0)),
     InvalidStepError, "step index must be an integer >= 1, got "
     "np.float64(3.0)"),
    # run arguments of the wrong type are named where they enter
    (lambda: ConvergenceCriterion(None, 1e-3), ModeMismatchError,
     "target must be a WeightPair, got NoneType"),
    (lambda: ConvergenceCriterion(AP9, 1e-3), ModeMismatchError,
     "target must be a WeightPair, got AmplitudePair"),
    (lambda: iterate(Scenario(MEASURE, BOTH, SP9, WP9, max_steps=3),
                     ((2, BOTH),)), ScheduleConflictError,
     "schedule must be a StepSchedule, got tuple"),
    (lambda: StepSchedule(((1,),)), ScheduleConflictError,
     "switch must be a (step, Topology) pair, got (1,)"),
    (lambda: StepSchedule(5), ScheduleConflictError,
     "switches must be a sequence of (step, Topology) pairs, got int"),
    (lambda: StepSchedule(None), ScheduleConflictError,
     "switches must be a sequence of (step, Topology) pairs, got NoneType"),
    (lambda: agreement_report(None, [WP9, WP9]), ModeMismatchError,
     "estimate must be an EnsembleEstimate, got NoneType"),
    (lambda: agreement_report(_ensemble(), None), ModeMismatchError,
     "analytic must be a sequence of WeightPair, got NoneType"),
    (lambda: weights_of(0.5), ModeMismatchError,
     "state must be an AmplitudePair or a WeightPair, got float"),
    (lambda: iterate(None), ModeMismatchError,
     "scenario must be a Scenario, got NoneType"),
    (lambda: steps_to_converge(Scenario(MEASURE, BOTH, SP9, WP9,
                                        max_steps=3), None),
     ModeMismatchError, "criterion must be a ConvergenceCriterion, got "
     "NoneType"),
    (lambda: AmplitudePair(0.6, 0.6), NormalizationError,
     "squared norm 0.72 deviates from 1 by -0.28"),
    (lambda: WeightPair(0.25, 0.5), NormalizationError,
     "weight sum 0.75 deviates from 1 by -0.25"),
    (lambda: AmplitudePair(-0.5, 0.8), OutOfRangeError,
     "a_left must be non-negative, got -0.5"),
    (lambda: WeightPair(math.nan, 0.5), OutOfRangeError,
     "w_left is not finite"),
    # a bound or a weight must be a real number, and no bool
    (lambda: ConvergenceCriterion(WP9, "0.1"), OutOfRangeError,
     "epsilon must be positive and finite, got '0.1'"),
    (lambda: SplitterCoefficients.from_reflectance("0.5"), OutOfRangeError,
     "a1_squared out of range: '0.5' not in [0, 1]"),
    (lambda: amplitudes_from_left_weight(None), OutOfRangeError,
     "w_left out of range: None not in [0, 1]"),
    (lambda: compare_modes("0.6", 1e-3), OutOfRangeError,
     "w_left_initial out of range: '0.6' not in [0, 1]"),
    (lambda: ConvergenceCriterion(WP9, True), OutOfRangeError,
     "epsilon must be positive and finite, got True"),
    (lambda: Scenario(MEASURE, BOTH, SP9, WP9, max_steps=3, period=True),
     OutOfRangeError, "period must be positive and finite, got True"),
    (lambda: closed_form_measure_both(False, SP9, 3), OutOfRangeError,
     "w_left_initial out of range: False not in [0, 1]"),
    (lambda: SplitterCoefficients.from_reflectance(np.True_),
     OutOfRangeError, "a1_squared out of range: np.True_ not in [0, 1]"),
    (lambda: sweep_initial_conditions(MEASURE, BOTH, ["0.5"], 1e-3,
                                      splitter=SP9), OutOfRangeError,
     "grid values must lie strictly inside (0, 1), got '0.5'"),
    (lambda: sweep_initial_conditions(MEASURE, BOTH, [None], 1e-3,
                                      splitter=SP9), OutOfRangeError,
     "grid values must lie strictly inside (0, 1), got None"),
    (lambda: sweep_initial_conditions(MEASURE, BOTH, 0.3, 1e-3,
                                      splitter=SP9), OutOfRangeError,
     "grid must be a sequence of weights, got 0.3"),
    (lambda: convergence_order("0.6"), OutOfRangeError,
     "w_initial out of range: '0.6' not in (0, 1)"),
    (lambda: convergence_order(None), OutOfRangeError,
     "w_initial out of range: None not in (0, 1)"),
    (lambda: convergence_order(True), OutOfRangeError,
     "w_initial out of range: True not in (0, 1)"),
    (lambda: AmplitudePair("0.6", 0.8), OutOfRangeError,
     "a_left must be a real number, got '0.6'"),
    (lambda: AmplitudePair(0.6 + 0j, 0.8), OutOfRangeError,
     "a_left must be a real number, got (0.6+0j)"),
    (lambda: AmplitudePair(0.6, np.True_), OutOfRangeError,
     "b_right must be a real number, got np.True_"),
    (lambda: WeightPair(True, False), OutOfRangeError,
     "w_left must be a real number, got True"),
    (lambda: WeightPair(None, 1.0), OutOfRangeError,
     "w_left must be a real number, got None"),
    (lambda: SplitterCoefficients("0.6", 0.8), OutOfRangeError,
     "a1 must be a real number, got '0.6'"),
    # an analytic series is of weight pairs
    (lambda: agreement_report(_ensemble(), [0.9, 0.82]), ModeMismatchError,
     "analytic entry must be a WeightPair, got float"),
    (lambda: ConvergenceCriterion(WP9, 1e-3).distance(None),
     ModeMismatchError, "weights must be a WeightPair, got NoneType"),
    # an int beyond the float range is no finite bound
    (lambda: ConvergenceCriterion(WP9, 10 ** 400), OutOfRangeError,
     f"epsilon must be positive and finite, got {10 ** 400!r}"),
    (lambda: Scenario(MEASURE, BOTH, SP9, WP9, max_steps=3,
                      period=10 ** 400), OutOfRangeError,
     f"period must be positive and finite, got {10 ** 400!r}"),
    (lambda: agreement_report(_ensemble(), [WP9, WP9],
                              sigma_bound=10 ** 400), OutOfRangeError,
     f"sigma_bound must be positive and finite, got {10 ** 400!r}"),
    # a pair's messages name its own fields; a huge int is not finite
    (lambda: SplitterCoefficients(-0.5, 0.8), OutOfRangeError,
     "a1 must be non-negative, got -0.5"),
    (lambda: SplitterCoefficients(0.6, math.nan), OutOfRangeError,
     "b1 is not finite"),
    (lambda: SplitterCoefficients(0.6, 10 ** 400), OutOfRangeError,
     "b1 is not finite"),
    (lambda: WeightPair(10 ** 400, 0), OutOfRangeError,
     "w_left is not finite"),
    (lambda: WeightPair(0.5, -10 ** 400), OutOfRangeError,
     "w_right is not finite"),
    (lambda: AmplitudePair(10 ** 400, 0), OutOfRangeError,
     "a_left is not finite"),
    # an int too long for a repr is shown by its sign and magnitude
    (lambda: ConvergenceCriterion(WP9, HUGE), OutOfRangeError,
     "epsilon must be positive and finite, got 1.000e+5000"),
    (lambda: ConvergenceCriterion(WP9, -HUGE), OutOfRangeError,
     "epsilon must be positive and finite, got -1.000e+5000"),
    (lambda: Scenario(MEASURE, BOTH, SP9, WP9, max_steps=3, period=HUGE),
     OutOfRangeError, "period must be positive and finite, got 1.000e+5000"),
    (lambda: Scenario(MEASURE, BOTH, SP9, WP9, max_steps=3, period=-HUGE),
     OutOfRangeError,
     "period must be positive and finite, got -1.000e+5000"),
    (lambda: agreement_report(_ensemble(), [WP9, WP9], sigma_bound=HUGE),
     OutOfRangeError,
     "sigma_bound must be positive and finite, got 1.000e+5000"),
    (lambda: agreement_report(_ensemble(), [WP9, WP9], sigma_bound=-HUGE),
     OutOfRangeError,
     "sigma_bound must be positive and finite, got -1.000e+5000"),
    (lambda: Scenario(MEASURE, BOTH, SP9, WP9, max_steps=-HUGE),
     OutOfRangeError, "max_steps must be an integer >= 1, got -1.000e+5000"),
    (lambda: Scenario(MEASURE, BOTH, SP9, WP9, max_steps=HUGE),
     OutOfRangeError, "max_steps * period overflows: 1.000e+5000 * 1.0"),
    (lambda: ensemble_frequencies(SP9, BOTH, -HUGE, 1, 0), OutOfRangeError,
     "steps must be an integer >= 1, got -1.000e+5000"),
    (lambda: ensemble_frequencies(SP9, BOTH, 3, -HUGE, 0), OutOfRangeError,
     "n_paths must be an integer >= 1, got -1.000e+5000"),
    (lambda: ensemble_frequencies(SP9, BOTH, 3, 1, -HUGE), OutOfRangeError,
     "seed must be a non-negative integer, got -1.000e+5000"),
    (lambda: ensemble_frequencies(SP9, BOTH, 3, 1, HUGE), OutOfRangeError,
     "seeds 1.000e+5000..1.000e+5000 exceed the Philox key range "
     "0..2**128 - 1"),
    # past decimal's default exponent range, and shown in milliseconds:
    # converting all of its 3 million digits would take minutes
    (lambda: ensemble_frequencies(SP9, BOTH, 3, 1, -(1 << 10 ** 7)),
     OutOfRangeError,
     "seed must be a non-negative integer, got -9.050e+3010299"),
    (lambda: SplitterCoefficients.from_reflectance(HUGE), OutOfRangeError,
     "a1_squared out of range: 1.000e+5000 not in [0, 1]"),
    (lambda: amplitudes_from_left_weight(HUGE), OutOfRangeError,
     "w_left out of range: 1.000e+5000 not in [0, 1]"),
    (lambda: compare_modes(HUGE, 1e-3), OutOfRangeError,
     "w_left_initial out of range: 1.000e+5000 not in [0, 1]"),
    (lambda: convergence_order(HUGE), OutOfRangeError,
     "w_initial out of range: 1.000e+5000 not in (0, 1)"),
    (lambda: sweep_initial_conditions(MEASURE, BOTH, [HUGE], 1e-3,
                                      splitter=SP9), OutOfRangeError,
     "grid values must lie strictly inside (0, 1), got 1.000e+5000"),
    (lambda: sweep_initial_conditions(MEASURE, BOTH, HUGE, 1e-3,
                                      splitter=SP9), OutOfRangeError,
     "grid must be a sequence of weights, got 1.000e+5000"),
    (lambda: StepSchedule(((HUGE, BOTH), (2, BOTH))), ScheduleConflictError,
     "switch steps must be strictly increasing, got 2 after 1.000e+5000"),
    # a container whose repr Python refuses is named by its type
    (lambda: StepSchedule(((HUGE,),)), ScheduleConflictError,
     "switch must be a (step, Topology) pair, got tuple"),
    (lambda: WeightPair([HUGE], 0.5), OutOfRangeError,
     "w_left must be a real number, got list"),
    (lambda: iterate(Scenario(MEASURE, BOTH, SP9, WP9, max_steps=3),
                     StepSchedule(((HUGE, BOTH),))), ScheduleConflictError,
     "switch at step 1.000e+5000 exceeds max_steps 3"),
    (lambda: closed_form_measure_both(0.9, SP9, -HUGE), InvalidStepError,
     "step index must be an integer >= 1, got -1.000e+5000"),
    (lambda: fixed_points(InteractionMode.FIXED_SPLITTER, HUGE),
     ModeMismatchError, "topology must be a Topology, got 1.000e+5000"),
    (lambda: StepMap(MEASURE, BOTH, HUGE).apply(WP9), ModeMismatchError,
     NO_SPLITTER + "1.000e+5000"),
], ids=["reflectance", "left-weight", "closed-both-w", "closed-right-w",
        "compare-w", "step-index-0", "step-index-2.5", "max-steps",
        "switch-step", "mc-steps", "mc-paths", "period",
        "sigma", "scenario-topology", "scenario-mode",
        "scenario-splitter", "sweep-splitter", "apply-splitter",
        "step-splitter", "weight-map-splitter", "closed-both-splitter",
        "closed-right-splitter", "ensemble-splitter", "path-splitter",
        "ensemble-topology", "epsilon-inf",
        "scenario-state", "apply-state", "scenario-splitter-before-state",
        "closed-topology", "ensemble-steps-bool",
        "mc-paths-bool", "ensemble-seed-bool", "path-seed-bool",
        "max-steps-bool", "switch-step-bool", "step-index-bool", "mc-steps-np-float", "max-steps-float",
        "max-steps-np-bool", "ensemble-seed-np-float", "path-seed-np-negative",
        "ensemble-paths-np-0", "step-index-np-float", "criterion-none",
        "criterion-amplitudes", "schedule-tuple", "schedule-entry",
        "schedule-int", "schedule-none", "agreement-estimate-none",
        "agreement-analytic-none", "weights-of-float", "iterate-none",
        "converge-criterion-none", "amplitude-norm",
        "weight-sum", "amplitude-negative", "weight-not-finite",
        "epsilon-str", "reflectance-str", "left-weight-none", "compare-w-str",
        "epsilon-bool", "period-bool", "closed-both-w-bool",
        "reflectance-np-bool", "grid-str", "grid-none", "grid-scalar",
        "order-str", "order-none", "order-bool", "amplitude-str",
        "amplitude-complex", "amplitude-np-bool", "weight-bool",
        "weight-none", "splitter-str", "agreement-float", "distance-none",
        "epsilon-huge-int", "period-huge-int", "sigma-huge-int",
        "splitter-negative", "splitter-nan", "splitter-huge-int",
        "weight-huge-int", "weight-huge-negative-int",
        "amplitude-huge-int", "epsilon-long-int", "epsilon-long-negative-int",
        "period-long-int", "period-long-negative-int", "sigma-long-int",
        "sigma-long-negative-int", "max-steps-long-negative-int",
        "max-steps-long-int-overflow", "mc-steps-long-negative-int",
        "mc-paths-long-negative-int", "seed-long-negative-int",
        "seed-range-long-int", "seed-giant-negative-int",
        "reflectance-long-int",
        "left-weight-long-int", "compare-w-long-int", "order-long-int",
        "grid-entry-long-int", "grid-scalar-long-int",
        "switch-order-long-int", "switch-entry-long-int",
        "weight-list-long-int", "switch-past-max-steps-long-int",
        "step-index-long-negative-int", "fixed-points-long-int",
        "apply-splitter-long-int"])
def test_argument_rule_class_and_message(call, error, message):
    with pytest.raises(SplitLoopError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


# Each map entry point checks its topology before its splitter.
@pytest.mark.parametrize("call", [
    lambda: Scenario(MEASURE, "both", None, WP9, max_steps=3),
    lambda: StepMap(MEASURE, "both", None).apply(WP9),
    lambda: ensemble_frequencies(None, "both", 3, 10, 0),
    lambda: closed_form_measure("both", 0.9, None, 3),
    lambda: induced_weight_map(MEASURE, "both", None),
], ids=["scenario", "apply", "ensemble", "closed-form", "weight-map"])
def test_a_bad_topology_is_named_before_a_bad_splitter(call):
    with pytest.raises(ModeMismatchError) as info:
        call()
    assert str(info.value) == "topology must be a Topology, got 'both'"


# Values a hand-entered pair may hold: floats (nan, the infinities,
# negative and off-band ones), ints beyond the float range or too long for
# a repr, a list holding one, bools, numpy scalars, None, strings and
# complex numbers.
entered = st.one_of(
    st.floats(), st.floats(-0.1, 1.1), st.integers(-1, 2),
    st.sampled_from([10 ** 400, -10 ** 400, HUGE, -HUGE, [HUGE]]),
    st.booleans(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_), st.none(), st.text(max_size=2),
    st.complex_numbers())


@pytest.mark.parametrize("validate,cls,accepted", [
    (validate_amplitudes, AmplitudePair,
     angles.map(lambda t: (math.cos(t), math.sin(t)))),
    (validate_weights, WeightPair, weights.map(lambda w: (w, 1.0 - w))),
], ids=["amplitudes", "weights"])
@given(data=st.data())
def test_validator_returns_what_the_constructor_raises(validate, cls,
                                                        accepted, data):
    pair = data.draw(st.one_of(
        st.tuples(entered, entered), accepted,
        accepted.map(lambda p: (np.float32(p[0]), np.float64(p[1])))))
    violation = validate(*pair)
    if violation is None:
        cls(*pair)
        return
    with pytest.raises(SplitLoopError) as info:
        cls(*pair)
    assert type(info.value) is (OutOfRangeError if violation.kind == "range"
                                else NormalizationError)
    assert str(info.value) == violation.message


RIGHT = Topology.RIGHT_HALF_CONNECTED


def _all_python_ints(value):
    """Whether no value inside a result (dataclass fields, tuples, lists)
    is a numpy scalar (any np.generic, float or int), so every count or
    seed it holds is a Python int and every real a Python float."""
    if isinstance(value, np.generic):
        return False
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return all(_all_python_ints(v) for v in value)
    return True


# Each entry point, called with numpy integers and with Python ints (int).
@pytest.mark.parametrize("np_int", [np.int64, np.uint64, np.int32])
@pytest.mark.parametrize("call", [
    lambda i: ensemble_frequencies(SP9, BOTH, i(3), i(1), i(7)),
    lambda i: ensemble_frequencies(SP9, BOTH, i(3), i(4), i(5)),
    lambda i: Scenario(MEASURE, BOTH, SP9, WP9, max_steps=i(3)),
    lambda i: iterate(Scenario(MEASURE, BOTH, SP9, WP9, max_steps=i(4)),
                      StepSchedule(((i(2), RIGHT),))),
    lambda i: StepSchedule(((i(2), RIGHT), (i(5), BOTH))),
    lambda i: WeightPair(i(1), i(0)),
    lambda i: compare_modes(0.3, 1e-3, i(10)),
    lambda i: sweep_initial_conditions(MEASURE, BOTH, (0.2, 0.4), 1e-3,
                                       i(6), SP9),
    lambda i: closed_form_measure_both(0.9, SP9, i(3)),
    lambda i: closed_form_measure(RIGHT, 0.9, SP9, i(4)),
], ids=["one-path", "ensemble", "scenario", "iterate", "schedule",
        "weight-pair", "compare", "sweep", "closed-both", "closed-right"])
def test_numpy_integers_give_what_python_ints_give(call, np_int):
    expected = call(int)
    got = call(np_int)
    assert got == expected
    assert _all_python_ints(got)


# Each real-valued argument, called with numpy floats and with the same
# values as Python floats (a float32 0.2 is not the Python float 0.2).
@pytest.mark.parametrize("np_float", [np.float64, np.float32, np.float16])
@pytest.mark.parametrize("call", [
    lambda f: SplitterCoefficients.from_reflectance(f(0.75)),
    lambda f: amplitudes_from_left_weight(f(0.75)),
    lambda f: ConvergenceCriterion(WP9, f(0.125)).epsilon,
    lambda f: iterate(Scenario(MEASURE, BOTH, SP9, WP9, max_steps=3,
                               period=f(0.5))),
    lambda f: compare_modes(f(0.75), f(0.125)),
    lambda f: compare_modes(f(0.7), f(0.01)),
    lambda f: sweep_initial_conditions(MEASURE, BOTH, (f(0.2), f(0.4)),
                                       f(0.01), 50, SP9),
    lambda f: sweep_initial_conditions(InteractionMode.FIXED_SPLITTER, BOTH,
                                       (f(0.2), f(0.4)), f(0.01), 50),
    lambda f: closed_form_measure_both(f(0.75), SP9, 3),
    lambda f: AmplitudePair(f(0.625), f(0.78125)),
    lambda f: WeightPair(f(0.75), f(0.25)),
    lambda f: SplitterCoefficients(f(0.625), f(0.78125)),
    lambda f: convergence_order(f(0.75)),
], ids=["reflectance", "left-weight", "epsilon", "period", "compare",
        "compare-inexact", "sweep-measure", "sweep-unitary", "closed-both",
        "amplitude-pair", "weight-pair", "splitter", "order"])
def test_numpy_floats_give_what_python_floats_give(call, np_float):
    got = call(np_float)
    assert got == call(lambda v: float(np_float(v)))
    assert _all_python_ints(got)


def test_numpy_seed_across_the_key_carry_equals_the_python_run():
    seed = 2 ** 64 - 2  # keys 2**64 - 2 .. 2**64 + 2 carry into the high word
    expected = ensemble_frequencies(SP9, BOTH, 5, 5, seed)
    got = ensemble_frequencies(SP9, BOTH, 5, 5, np.uint64(seed))
    assert got == expected
    assert type(got.base_seed) is int and type(got.n_paths) is int


# Floats at the edges of the rule: signed zeros, subnormals, nan, the
# infinities, and components up to 2 ulps either side of -_RANGE_SLACK.
def _around(value: float, ulps: int) -> list[float]:
    """value and the floats up to ulps steps away from it on either side."""
    low = high = value
    found = [value]
    for _ in range(ulps):
        low, high = math.nextafter(low, -math.inf), math.nextafter(high,
                                                                   math.inf)
        found += [low, high]
    return found


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               math.nan, math.inf, -math.inf, 1.0,
               *_around(-states._RANGE_SLACK, 2)]
# Pairs whose squared norm or sum lies a few ulps either side of its band.
BAND_PAIRS = {
    True: [(x, y) for x in (0.0, 0.6)
           for tol in (AMPLITUDE_NORM_TOL, -AMPLITUDE_NORM_TOL)
           for y in _around(math.sqrt(1.0 + tol - x * x), 3)],
    False: [(x, y) for x in (0.0, 0.5)
            for tol in (WEIGHT_SUM_TOL, -WEIGHT_SUM_TOL)
            for y in _around(1.0 + tol - x, 6)]}
RULES = [(validate_amplitudes, AmplitudePair, True, ("a_left", "b_right")),
         (validate_weights, WeightPair, False, ("w_left", "w_right"))]


def _outcome(make, *args):
    """What make(*args) returns, or the SplitLoopError it raises."""
    try:
        return make(*args)
    except SplitLoopError as error:
        return error


@pytest.mark.parametrize("squared", [True, False], ids=["norm", "sum"])
def test_band_pairs_lie_on_both_sides_of_the_band(squared):
    validate = validate_amplitudes if squared else validate_weights
    outcomes = {validate(*pair) is None for pair in BAND_PAIRS[squared]}
    assert outcomes == {True, False}


@pytest.mark.parametrize("validate,cls,squared,names", RULES,
                         ids=["amplitudes", "weights"])
@given(data=st.data())
def test_validator_constructor_and_normalize_pair_share_one_rule(
        validate, cls, squared, names, data):
    edges = st.sampled_from(EDGE_FLOATS)
    pair = data.draw(st.one_of(
        st.tuples(edges, edges), st.sampled_from(BAND_PAIRS[squared]),
        st.tuples(st.floats(), st.floats()), st.tuples(entered, entered),
        st.tuples(entered, edges), st.tuples(edges, entered)))
    violation = validate(*pair)
    made = _outcome(cls, *pair)
    floats = [states._as_float(value) for value in pair]
    normalized = _outcome(normalize_pair, *floats, squared, names)
    if violation is None:
        assert dataclasses.astuple(made) == normalized
        return
    assert type(made) is (OutOfRangeError if violation.kind == "range"
                          else NormalizationError)
    assert str(made) == violation.message
    assert repr(made.violation) == repr(violation)  # nan != nan
    if all(states._is_real(value) for value in pair):
        assert type(normalized) is type(made)
        assert repr(normalized.violation) == repr(violation)
    else:  # a non-number reads as nan, which the rule refuses
        assert type(normalized) is OutOfRangeError


# Refusals as the validators gave them before the acceptance test moved
# into normalize_pair, class and message included.
A, W = validate_amplitudes, validate_weights
PINNED_REFUSALS = [
    (A, (0.6, 0.6), "normalization", "-0.28",
     "squared norm 0.72 deviates from 1 by -0.28"),
    (A, (-0.5, 0.8), "range", "-0.5", "a_left must be non-negative, got -0.5"),
    (A, (1.0, -1.0000000000000002e-12), "range", "-1.0000000000000002e-12",
     "b_right must be non-negative, got -1.0000000000000002e-12"),
    (A, (math.nan, 1.0), "range", "nan", "a_left is not finite"),
    (A, (0.0, math.inf), "range", "nan", "b_right is not finite"),
    (A, (True, 0.0), "range", "nan", "a_left must be a real number, got True"),
    (A, (10 ** 400, 0.0), "range", "nan", "a_left is not finite"),
    (A, ("x", 1.0), "range", "nan", "a_left must be a real number, got 'x'"),
    (A, (np.float32(0.6), 0.7), "normalization", "-0.14999997138976995",
     "squared norm 0.85000002861023 deviates from 1 by -0.14999997138976995"),
    (W, (0.25, 0.5), "weight-sum", "-0.25",
     "weight sum 0.75 deviates from 1 by -0.25"),
    (W, (1.5, -0.5), "range", "-0.5", "w_right must be non-negative, got -0.5"),
    (W, (-1.0000000000000002e-12, 1.0), "range", "-1.0000000000000002e-12",
     "w_left must be non-negative, got -1.0000000000000002e-12"),
    (W, (0.5, 0.5 + 1.0000000000000002e-9), "weight-sum",
     "1.000000082740371e-09",
     "weight sum 1.000000001 deviates from 1 by 1.000000082740371e-09"),
    (W, (None, 1.0), "range", "nan", "w_left must be a real number, got None"),
    (W, (0.5, np.bool_(True)), "range", "nan",
     "w_right must be a real number, got np.True_"),
    (W, (-math.inf, 1.0), "range", "nan", "w_left is not finite"),
    (W, (0.0, -0.0), "weight-sum", "-1.0",
     "weight sum 0.0 deviates from 1 by -1.0"),
]


@pytest.mark.parametrize("validate,pair,kind,deviation,message",
                         PINNED_REFUSALS)
def test_refusals_keep_their_class_and_message(validate, pair, kind,
                                               deviation, message):
    violation = validate(*pair)
    assert (violation.kind, repr(violation.deviation), violation.message) == (
        kind, deviation, message)
    cls = AmplitudePair if validate is A else WeightPair
    with pytest.raises(OutOfRangeError if kind == "range"
                       else NormalizationError) as raised:
        cls(*pair)
    assert str(raised.value) == message
    assert repr(raised.value.violation) == repr(violation)


@pytest.mark.parametrize("make,refused", [
    (lambda: AmplitudePair(0.6, 0.8), False),
    (lambda: WeightPair(0.25, 0.75), False),
    (lambda: SplitterCoefficients(0.6, 0.8), False),
    (lambda: validate_amplitudes(0.6, 0.8), False),
    (lambda: AmplitudePair(0.6, 0.6), True),
    (lambda: WeightPair(-0.5, 1.5), True),
    (lambda: validate_weights(0.25, 0.5), True),
], ids=["amplitudes", "weights", "splitter", "validator", "off-norm",
        "negative", "off-sum"])
def test_a_construction_runs_the_rule_once(monkeypatch, make, refused):
    calls = dict.fromkeys(("normalize_pair", "_violation"), 0)
    for name in calls:
        def counted(*args, _run=getattr(states, name), _name=name):
            calls[_name] += 1
            return _run(*args)
        monkeypatch.setattr(states, name, counted)
    _outcome(make)
    assert calls == {"normalize_pair": 1, "_violation": int(refused)}
