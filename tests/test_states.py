"""Construction, validation and renormalization of the state containers."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitloop import (AMPLITUDE_NORM_TOL, AmplitudePair, NormalizationError,
                       OutOfRangeError, SplitterCoefficients, Violation,
                       WeightPair, amplitudes_from_left_weight,
                       validate_amplitudes, validate_weights, weights_of)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

angles = st.floats(0.0, math.pi / 2.0)
weights = st.floats(0.0, 1.0)


@pytest.mark.parametrize("cls", [AmplitudePair, WeightPair])
def test_rounding_undershoot_is_clamped_to_positive_zero(cls):
    low, high = dataclasses.astuple(cls(-1e-13, 1.0))[:2]
    assert (low, high) == (0.0, 1.0)
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

    def test_custom_tolerance(self):
        # (0.72, 0.72) has squared norm 1.0368
        assert validate_amplitudes(0.72, 0.72, tol=0.05) is None
        assert validate_amplitudes(0.72, 0.72,
                                   tol=0.02).kind == "normalization"
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
