"""Step maps, fixed points, closed forms and induced 1-D weight maps.

Expected orbit values were computed independently with exact rational
arithmetic (the recurrences stay rational) and with 60-digit floats where
they do not; the engine must land within a few double-precision ulps.
"""

import math
import random
from decimal import Context, Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitloop import (AmplitudePair, InteractionMode, InvalidStepError,
                       ModeMismatchError, OutOfRangeError,
                       SplitterCoefficients, Stability, StepMap, Topology,
                       WeightPair, amplitudes_from_left_weight,
                       closed_form_measure, closed_form_measure_both,
                       closed_form_measure_right_half, fixed_points,
                       induced_weight_map, maps, stable_fixed_point,
                       step_measure_both, step_measure_left_half,
                       step_measure_right_half, step_unitary_both,
                       step_unitary_left_half, step_unitary_right_half,
                       weights_of)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
BALANCED = AmplitudePair(INV_SQRT2, INV_SQRT2)

# rationally exact left weights for the coherent both-connected orbit
# from w = 0.9: 25/34, 289/514, then two more exact iterations
SEQ_A_EXACT = (0.7352941176470589, 0.5622568093385214,
               0.5039061903962647, 0.500015258789059)
# same orbit from w = 0.05: 100/119, ...
SEQ_B_EXACT = (0.8403361344537815, 0.6507513441477873,
               0.5238080916070553, 0.5005674685369333)

interior_weights = st.floats(1e-6, 1.0 - 1e-6)
angles = st.floats(1e-3, math.pi / 2.0 - 1e-3)


def trig_state(theta: float) -> AmplitudePair:
    return AmplitudePair(math.cos(theta), math.sin(theta))


class TestUnitaryBoth:
    def test_orbit_from_heavy_left(self):
        state = amplitudes_from_left_weight(0.9)
        for expected in SEQ_A_EXACT:
            state = step_unitary_both(state)
            assert weights_of(state).w_left == pytest.approx(expected,
                                                             abs=5e-15)

    def test_orbit_from_light_left(self):
        state = amplitudes_from_left_weight(0.05)
        for expected in SEQ_B_EXACT:
            state = step_unitary_both(state)
            assert weights_of(state).w_left == pytest.approx(expected,
                                                             abs=5e-15)

    def test_balanced_state_invariant(self):
        out = step_unitary_both(BALANCED)
        assert abs(out.a_left - INV_SQRT2) < 1e-15
        assert abs(out.b_right - INV_SQRT2) < 1e-15

    def test_all_right_flips_to_all_left_in_one_pass(self):
        out = step_unitary_both(AmplitudePair(0.0, 1.0))
        assert (out.a_left, out.b_right) == (1.0, 0.0)

    def test_all_left_is_fixed(self):
        out = step_unitary_both(AmplitudePair(1.0, 0.0))
        assert (out.a_left, out.b_right) == (1.0, 0.0)

    @given(theta=angles)
    def test_left_weight_at_least_half_after_one_pass(self, theta):
        # 1/(1 + 4w(1-w)) >= 1/2 always: the left loop ends up favored
        out = step_unitary_both(trig_state(theta))
        assert weights_of(out).w_left >= 0.5 - 1e-15

    @given(theta=angles)
    def test_swapping_inputs_gives_identical_successor(self, theta):
        a, b = math.cos(theta), math.sin(theta)
        out = step_unitary_both(AmplitudePair(a, b))
        swapped = step_unitary_both(AmplitudePair(b, a))
        assert (out.a_left, out.b_right) == (swapped.a_left, swapped.b_right)

    @given(theta=angles)
    def test_normalization_preserved(self, theta):
        out = step_unitary_both(trig_state(theta))
        assert abs(out.a_left ** 2 + out.b_right ** 2 - 1.0) < 1e-12


class TestUnitaryHalf:
    def test_right_half_from_balanced(self):
        out = step_unitary_right_half(BALANCED)
        # exact values sin(pi/8), cos(pi/8)
        assert out.a_left == pytest.approx(0.3826834323650898, abs=5e-15)
        assert out.b_right == pytest.approx(0.9238795325112867, abs=5e-15)

    def test_right_half_absorbing_endpoint(self):
        out = step_unitary_right_half(AmplitudePair(0.0, 1.0))
        assert (out.a_left, out.b_right) == (0.0, 1.0)

    def test_left_half_from_balanced_mirrors(self):
        out = step_unitary_left_half(BALANCED)
        assert out.b_right == pytest.approx(0.3826834323650898, abs=5e-15)
        assert out.a_left == pytest.approx(0.9238795325112867, abs=5e-15)

    @given(theta=angles)
    def test_mirror_identity_bitwise(self, theta):
        a, b = math.cos(theta), math.sin(theta)
        right = step_unitary_right_half(AmplitudePair(a, b))
        left = step_unitary_left_half(AmplitudePair(b, a))
        assert (left.a_left, left.b_right) == (right.b_right, right.a_left)

    def test_half_maps_local_normal_forms(self):
        # on a unit pair d = sqrt(1 + 2ab^2): at the captured state the map
        # is a' = a^2 / sqrt(1 + 2ab^2), and the mirror's b' likewise
        rng = random.Random(36)
        worst = 0.0
        for _ in range(10 ** 4):
            theta = rng.uniform(0.0, math.pi / 2.0)
            a, b = math.cos(theta), math.sin(theta)
            form = a * a / math.sqrt(1.0 + 2.0 * a * (b * b))
            right = maps.unitary_right_half_kernel(a, b)[0]
            left = maps.unitary_left_half_kernel(b, a)[1]
            worst = max(worst, abs(right - form) / math.ulp(form),
                        abs(left - form) / math.ulp(form))
        assert worst <= 8.0
        # at the released state the escaping component doubles
        for small in (1e-6, 1e-9, 1e-12):
            big = math.sqrt(1.0 - small * small)
            assert maps.unitary_right_half_kernel(big, small)[1] / small == (
                pytest.approx(2.0, rel=2 * small))
            assert maps.unitary_left_half_kernel(small, big)[0] / small == (
                pytest.approx(2.0, rel=2 * small))

    @given(theta=angles)
    def test_right_half_drains_left_weight(self, theta):
        state = trig_state(theta)
        out = step_unitary_right_half(state)
        assert weights_of(out).w_left <= weights_of(state).w_left + 1e-15


class TestMeasureMaps:
    def test_both_one_step(self):
        splitter = SplitterCoefficients.from_reflectance(0.9)
        out = step_measure_both(WeightPair(0.9, 0.1), splitter)
        expected = splitter.a1_squared * 0.9 + splitter.b1_squared * 0.1
        assert out.w_left == expected
        assert out.w_left == pytest.approx(0.82, abs=1e-14)

    def test_balanced_does_not_evolve(self):
        splitter = SplitterCoefficients.from_reflectance(0.37)
        out = step_measure_both(WeightPair(0.5, 0.5), splitter)
        assert abs(out.w_left - 0.5) < 1e-15

    @given(w=interior_weights, p=st.floats(0.01, 0.99))
    def test_contraction_identity(self, w, p):
        splitter = SplitterCoefficients.from_reflectance(p)
        out = step_measure_both(WeightPair(w, 1.0 - w), splitter)
        factor = abs(splitter.a1_squared - splitter.b1_squared)
        assert abs(out.w_left - 0.5) == pytest.approx(
            factor * abs(w - 0.5), abs=1e-15)

    def test_right_half_absorbs(self):
        splitter = SplitterCoefficients.from_reflectance(0.9)
        out = step_measure_right_half(WeightPair(0.4, 0.6), splitter)
        assert out.w_left == pytest.approx(0.4 * splitter.a1_squared,
                                           abs=1e-15)
        again = step_measure_right_half(WeightPair(0.0, 1.0), splitter)
        assert (again.w_left, again.w_right) == (0.0, 1.0)

    @given(w=interior_weights, p=st.floats(0.01, 0.99))
    def test_half_mirror_identity(self, w, p):
        splitter = SplitterCoefficients.from_reflectance(p)
        mirrored = SplitterCoefficients(splitter.b1, splitter.a1)
        right = step_measure_right_half(WeightPair(w, 1.0 - w), splitter)
        left = step_measure_left_half(WeightPair(1.0 - w, w), mirrored)
        assert (left.w_left, left.w_right) == (right.w_right, right.w_left)


class TestStepMapDispatch:
    @pytest.mark.parametrize("mode,topology", [
        (InteractionMode.FIXED_SPLITTER, Topology.BOTH_CONNECTED),
        (InteractionMode.FIXED_SPLITTER, Topology.RIGHT_HALF_CONNECTED),
        (InteractionMode.FIXED_SPLITTER, Topology.LEFT_HALF_CONNECTED),
    ])
    def test_unitary_dispatch(self, mode, topology):
        splitter = SplitterCoefficients.from_reflectance(0.5)
        state = amplitudes_from_left_weight(0.3)
        out = StepMap(mode, topology, splitter).apply(state)
        direct = {
            Topology.BOTH_CONNECTED: step_unitary_both,
            Topology.RIGHT_HALF_CONNECTED: step_unitary_right_half,
            Topology.LEFT_HALF_CONNECTED: step_unitary_left_half,
        }[topology](state)
        assert (out.a_left, out.b_right) == (direct.a_left, direct.b_right)

    @pytest.mark.parametrize("topology", list(Topology))
    def test_measure_dispatch(self, topology):
        splitter = SplitterCoefficients.from_reflectance(0.7)
        weights = WeightPair(0.3, 0.7)
        out = StepMap(InteractionMode.MOVABLE_SPLITTER, topology,
                      splitter).apply(weights)
        direct = {
            Topology.BOTH_CONNECTED: step_measure_both,
            Topology.RIGHT_HALF_CONNECTED: step_measure_right_half,
            Topology.LEFT_HALF_CONNECTED: step_measure_left_half,
        }[topology](weights, splitter)
        assert (out.w_left, out.w_right) == (direct.w_left, direct.w_right)

    def test_wrong_state_type_raises(self):
        splitter = SplitterCoefficients.from_reflectance(0.5)
        unitary = StepMap(InteractionMode.FIXED_SPLITTER,
                          Topology.BOTH_CONNECTED, splitter)
        with pytest.raises(ModeMismatchError):
            unitary.apply(WeightPair(0.5, 0.5))
        measure = StepMap(InteractionMode.MOVABLE_SPLITTER,
                          Topology.BOTH_CONNECTED, splitter)
        with pytest.raises(ModeMismatchError):
            measure.apply(BALANCED)

    @pytest.mark.parametrize("mode,state,message", [
        (InteractionMode.FIXED_SPLITTER, WeightPair(0.5, 0.5),
         "fixed-splitter maps act on AmplitudePair, got WeightPair"),
        (InteractionMode.MOVABLE_SPLITTER, BALANCED,
         "movable-splitter maps act on WeightPair, got AmplitudePair"),
    ], ids=["fixed", "movable"])
    @pytest.mark.parametrize("topology", list(Topology))
    def test_wrong_state_type_message(self, mode, state, message, topology):
        splitter = SplitterCoefficients.from_reflectance(0.5)
        with pytest.raises(ModeMismatchError) as info:
            StepMap(mode, topology, splitter).apply(state)
        assert str(info.value) == message

    @pytest.mark.parametrize("lookup,message", [
        (lambda: fixed_points(InteractionMode.FIXED_SPLITTER, "both"),
         "topology must be a Topology, got 'both'"),
        (lambda: fixed_points(InteractionMode.FIXED_SPLITTER, ["both"]),
         "topology must be a Topology, got ['both']"),
        (lambda: stable_fixed_point("x", Topology.BOTH_CONNECTED),
         "mode must be an InteractionMode, got 'x'"),
        (lambda: induced_weight_map("unitary", Topology.BOTH_CONNECTED),
         "mode must be an InteractionMode, got 'unitary'"),
        (lambda: maps.raw_step(InteractionMode.MOVABLE_SPLITTER, None,
                               SplitterCoefficients.from_reflectance(0.5)),
         "topology must be a Topology, got None"),
        (lambda: StepMap("unitary", Topology.BOTH_CONNECTED,
                         None).apply(BALANCED),
         "mode must be an InteractionMode, got 'unitary'"),
    ], ids=["fixed_points", "fixed_points-unhashable", "stable_fixed_point",
            "induced_weight_map", "raw_step", "apply"])
    def test_bad_mode_or_topology_is_named(self, lookup, message):
        with pytest.raises(ModeMismatchError) as info:
            lookup()
        assert str(info.value) == message


class TestFixedPoints:
    def test_unitary_both_catalog(self):
        points = fixed_points(InteractionMode.FIXED_SPLITTER,
                              Topology.BOTH_CONNECTED)
        stabilities = {fp.stability for fp in points}
        assert stabilities == {Stability.SUPERATTRACTING, Stability.UNSTABLE}
        attractor = stable_fixed_point(InteractionMode.FIXED_SPLITTER,
                                       Topology.BOTH_CONNECTED)
        assert isinstance(attractor, AmplitudePair)
        assert abs(attractor.a_left - INV_SQRT2) < 1e-15

    def test_all_catalog_points_are_invariant(self):
        splitter = SplitterCoefficients.from_reflectance(0.42)
        for mode in InteractionMode:
            for topology in Topology:
                for fp in fixed_points(mode, topology):
                    out = StepMap(mode, topology, splitter).apply(fp.point)
                    if mode is InteractionMode.FIXED_SPLITTER:
                        before = (fp.point.a_left, fp.point.b_right)
                        after = (out.a_left, out.b_right)
                    else:
                        before = (fp.point.w_left, fp.point.w_right)
                        after = (out.w_left, out.w_right)
                    assert after == pytest.approx(before, abs=1e-12)

    @pytest.mark.parametrize("mode,topology,expected", [
        (InteractionMode.FIXED_SPLITTER, Topology.BOTH_CONNECTED,
         AmplitudePair(math.sqrt(0.5), math.sqrt(0.5))),
        (InteractionMode.FIXED_SPLITTER, Topology.RIGHT_HALF_CONNECTED,
         AmplitudePair(0.0, 1.0)),
        (InteractionMode.FIXED_SPLITTER, Topology.LEFT_HALF_CONNECTED,
         AmplitudePair(1.0, 0.0)),
        (InteractionMode.MOVABLE_SPLITTER, Topology.BOTH_CONNECTED,
         WeightPair(0.5, 0.5)),
        (InteractionMode.MOVABLE_SPLITTER, Topology.RIGHT_HALF_CONNECTED,
         WeightPair(0.0, 1.0)),
        (InteractionMode.MOVABLE_SPLITTER, Topology.LEFT_HALF_CONNECTED,
         WeightPair(1.0, 0.0)),
    ])
    def test_stable_fixed_point_of_every_map(self, mode, topology, expected):
        point = stable_fixed_point(mode, topology)
        assert type(point) is type(expected)
        assert point == expected
        first = fixed_points(mode, topology)[0]
        assert first.point == expected
        assert first.stability is not Stability.UNSTABLE

    def test_half_connected_absorbing_flags(self):
        right = fixed_points(InteractionMode.MOVABLE_SPLITTER,
                             Topology.RIGHT_HALF_CONNECTED)
        assert any(fp.absorbing for fp in right)
        both = fixed_points(InteractionMode.MOVABLE_SPLITTER,
                            Topology.BOTH_CONNECTED)
        assert not any(fp.absorbing for fp in both)


class TestClosedForms:
    def test_both_matches_iteration(self):
        splitter = SplitterCoefficients.from_reflectance(0.9)
        w = WeightPair(0.9, 0.1)
        for n in range(1, 11):
            predicted = closed_form_measure_both(0.9, splitter, n)
            assert w.w_left == pytest.approx(predicted, abs=1e-13)
            w = step_measure_both(w, splitter)

    def test_both_n10_value(self):
        splitter = SplitterCoefficients.from_reflectance(0.9)
        assert closed_form_measure_both(0.9, splitter, 10) == pytest.approx(
            0.5536870912, abs=1e-12)

    def test_right_half_matches_iteration(self):
        splitter = SplitterCoefficients.from_reflectance(0.8)
        w = WeightPair(0.6, 0.4)
        for n in range(1, 11):
            predicted = closed_form_measure_right_half(0.6, splitter, n)
            assert w.w_left == pytest.approx(predicted, abs=1e-13)
            w = step_measure_right_half(w, splitter)

    def test_left_half_matches_iteration(self):
        # acceptance criterion 6's grid and horizon
        grid = [0.1 * k for k in range(1, 10)]
        worst = 0.0
        for w1 in grid:
            for p in grid:
                splitter = SplitterCoefficients.from_reflectance(p)
                w = WeightPair(w1, 1.0 - w1)
                for n in range(1, 201):
                    predicted = closed_form_measure(
                        Topology.LEFT_HALF_CONNECTED, w1, splitter, n)
                    worst = max(worst, abs(w.w_left - predicted))
                    w = step_measure_left_half(w, splitter)
        assert worst <= 1e-12

    @given(w=st.floats(0.0, 1.0), a1sq=st.floats(0.0, 1.0),
           n=st.integers(1, 400))
    def test_bindings_keep_the_written_out_forms_bit_for_bit(self, w, a1sq,
                                                             n):
        # written out here, so no edit of the shared formula can move them;
        # an odd power of the negative rate mirrors the start to 1 - w, and
        # 1 - q near q = 1 comes from log1p and expm1
        splitter = SplitterCoefficients.from_reflectance(a1sq)
        a, b = splitter.a1_squared, splitter.b1_squared
        p = (a - b) ** (n - 1)
        q = abs(p)
        rest = (-math.expm1((n - 1) * math.log1p(abs(a - b) - 1.0))
                if 0.5 < q < 1.0 else 1.0 - q)
        both = 0.5 * rest + (1.0 - w if p < 0.0 else w) * q
        right = w * a ** (n - 1)
        assert closed_form_measure_both(w, splitter, n).hex() == both.hex()
        assert (closed_form_measure_right_half(w, splitter, n).hex()
                == right.hex())

    def test_a_start_near_zero_is_not_lost_to_cancellation(self):
        # a1^2 = 1e-17 rounds the rate to -1, so pass 5 returns the start;
        # w* + (w1 - w*) r^4 evaluated as written cancels to 1/2 - 1/2 = 0.0
        splitter = SplitterCoefficients.from_reflectance(1e-17)
        w = WeightPair(1e-17, 1.0 - 1e-17)
        for _ in range(4):
            w = step_measure_both(w, splitter)
        assert w.w_left == 1e-17
        assert closed_form_measure_both(1e-17, splitter, 5) == 1e-17

    @settings(max_examples=300)
    @given(topology=st.sampled_from(Topology), w=st.floats(0.0, 1.0),
           a1sq=st.floats(0.0, 1.0),
           n=st.integers(1, 400) | st.integers(1, 2 ** 70)
           | st.integers(1, 2 ** 1100))
    @example(topology=Topology.BOTH_CONNECTED, w=6.77809528244747e-15,
             a1sq=0.9999999999555773, n=121)  # once off by 5.1e-9 relative
    @example(topology=Topology.RIGHT_HALF_CONNECTED, w=0.5,
             a1sq=1 - 2 ** -50, n=2 ** 58 + 999)  # n - 1 is no float
    def test_error_against_exact_arithmetic(self, topology, w, a1sq, n):
        # The reference is w* + (s - w*) |r|^(n - 1) in exact rationals, the
        # start s mirrored about w* where r^(n - 1) < 0, and the power to 80
        # digits (flushed to 0 below 1e-1100, far under the float range).
        # Budget: 4 ulps of the exact value, over every n. Near |r| = 1,
        # 1 - |r|^(n - 1) from the rounded power is off by up to 3e7 ulps.
        splitter = SplitterCoefficients.from_reflectance(a1sq)
        _, points, rate = maps._SPECS[InteractionMode.MOVABLE_SPLITTER,
                                     topology]
        fixed = Fraction(points[0].point.w_left)
        r = rate(splitter.a1_squared, splitter.b1_squared)
        q = Fraction(1)
        if n > 1:
            q = Fraction(Context(prec=80, Emin=-1100).power(Decimal(abs(r)),
                                                             n - 1))
        start = Fraction(w)
        if r < 0.0 and (n - 1) % 2:
            start = 2 * fixed - start
        exact = fixed * (1 - q) + start * q
        got = Fraction(closed_form_measure(topology, w, splitter, n))
        assert abs(got - exact) <= 4 * Fraction(math.ulp(float(exact)))

    @pytest.mark.parametrize("n,expected", [
        (2 ** 53 + 2, 0.09999999999999998), (2 ** 53 + 3, 0.9),
    ], ids=["2**53+2", "2**53+3"])
    def test_alternating_sign_follows_the_integer_parity(self, n, expected):
        # a1^2 = 0 gives r = -1: the weight alternates 0.9, 0.1, 0.9, ...
        # (n up to 400 is pinned bit for bit by the test above)
        splitter = SplitterCoefficients.from_reflectance(0.0)
        assert closed_form_measure_both(0.9, splitter, n) == expected

    def test_unit_rate_keeps_the_first_weight_beyond_the_float_range(self):
        # a1^2 = 1 gives r = 1 with both loops connected
        splitter = SplitterCoefficients.from_reflectance(1.0)
        assert closed_form_measure_both(0.9, splitter, 10 ** 400) == 0.9

    @pytest.mark.parametrize("topology,fixed", [
        (Topology.BOTH_CONNECTED, 0.5),
        (Topology.RIGHT_HALF_CONNECTED, 0.0),
        (Topology.LEFT_HALF_CONNECTED, 1.0),
    ])
    def test_step_beyond_the_float_range_gives_the_fixed_weight(self,
                                                                topology,
                                                                fixed):
        splitter = SplitterCoefficients.from_reflectance(0.3)
        assert closed_form_measure(topology, 0.9, splitter, 10 ** 400) == fixed

    @pytest.mark.parametrize("closed_form", [
        closed_form_measure_both, closed_form_measure_right_half,
        *(partial(closed_form_measure, t) for t in Topology),
        partial(closed_form_measure, "both"),  # checked after the arguments
    ])
    def test_validation(self, closed_form):
        splitter = SplitterCoefficients.from_reflectance(0.9)
        for n in (0, 2.5):  # 2.5 once returned a complex number
            with pytest.raises(InvalidStepError):
                closed_form(0.9, splitter, n)
        with pytest.raises(OutOfRangeError):
            closed_form(1.2, splitter, 3)


@pytest.mark.parametrize("topology", list(Topology))
def test_measuring_spec_rows_agree(topology):
    """A measuring row's fixed point, rate and closed form fit its kernel."""
    assert set(maps._SPECS) == {(mode, t) for mode in InteractionMode
                                for t in Topology}
    name, points, rate = maps._SPECS[InteractionMode.MOVABLE_SPLITTER,
                                     topology]
    fixed = points[0].point.w_left
    for a1sq in (0.0, 0.1, 0.5, 0.9, 1.0):
        splitter = SplitterCoefficients.from_reflectance(a1sq)
        a, b = splitter.a1_squared, splitter.b1_squared
        wl, _ = getattr(maps, name)(fixed, 1.0 - fixed, a, b)
        assert abs(wl - fixed) <= 1e-15
        g = induced_weight_map(InteractionMode.MOVABLE_SPLITTER, topology,
                               splitter)
        assert abs(rate(a, b) - (g(1.0) - g(0.0))) <= 1e-15
        for n in range(1, 51):
            assert closed_form_measure(topology, fixed, splitter, n) == fixed


class TestInducedWeightMaps:
    def test_both_form(self):
        f = induced_weight_map(InteractionMode.FIXED_SPLITTER,
                               Topology.BOTH_CONNECTED)
        assert f(0.9) == pytest.approx(25.0 / 34.0, abs=1e-15)
        assert f(0.5) == pytest.approx(0.5, abs=1e-15)
        assert f(0.0) == 1.0

    def test_measure_needs_splitter(self):
        with pytest.raises(ModeMismatchError):
            induced_weight_map(InteractionMode.MOVABLE_SPLITTER,
                               Topology.BOTH_CONNECTED)

    def test_measure_form_matches_step(self):
        splitter = SplitterCoefficients.from_reflectance(0.9)
        g = induced_weight_map(InteractionMode.MOVABLE_SPLITTER,
                               Topology.BOTH_CONNECTED, splitter)
        stepped = step_measure_both(WeightPair(0.3, 0.7), splitter)
        assert g(0.3) == pytest.approx(stepped.w_left, abs=1e-15)

    @pytest.mark.parametrize("topology,formula", [
        (Topology.BOTH_CONNECTED,
         lambda w, a1sq, b1sq: a1sq * w + b1sq * (1.0 - w)),
        (Topology.RIGHT_HALF_CONNECTED, lambda w, a1sq, b1sq: a1sq * w),
        (Topology.LEFT_HALF_CONNECTED,
         lambda w, a1sq, b1sq: w + a1sq * (1.0 - w)),
    ], ids=["both", "right-half", "left-half"])
    @given(w=st.floats(-0.5, 1.5), a1sq=st.floats(0.0, 1.0))
    def test_measure_form_is_the_formula_bit_for_bit(self, topology, formula,
                                                     w, a1sq):
        splitter = SplitterCoefficients.from_reflectance(a1sq)
        g = induced_weight_map(InteractionMode.MOVABLE_SPLITTER, topology,
                               splitter)
        expected = formula(w, splitter.a1_squared, splitter.b1_squared)
        assert g(w).hex() == expected.hex()

    def test_right_half_form_agrees_with_amplitude_route(self):
        g = induced_weight_map(InteractionMode.FIXED_SPLITTER,
                               Topology.RIGHT_HALF_CONNECTED)
        out = step_unitary_right_half(amplitudes_from_left_weight(0.5))
        assert g(0.5) == pytest.approx(weights_of(out).w_left, abs=1e-13)

    @pytest.mark.parametrize("topology,step", [
        (Topology.RIGHT_HALF_CONNECTED, step_unitary_right_half),
        (Topology.LEFT_HALF_CONNECTED, step_unitary_left_half),
    ], ids=["right-half", "left-half"])
    def test_half_forms_agree_with_amplitude_route(self, topology, step):
        g = induced_weight_map(InteractionMode.FIXED_SPLITTER, topology)
        for k in range(101):
            w = k / 100.0
            out = step(amplitudes_from_left_weight(w))
            assert abs(g(w) - weights_of(out).w_left) <= 1e-15, w

    @pytest.mark.parametrize("topology,w", [
        (Topology.RIGHT_HALF_CONNECTED, -1e-6),  # sqrt(w)
        (Topology.LEFT_HALF_CONNECTED, 1.0 + 1e-6),  # sqrt(1 - w)
    ], ids=["right-half", "left-half"])
    def test_half_forms_fail_past_their_square_root(self, topology, w):
        g = induced_weight_map(InteractionMode.FIXED_SPLITTER, topology)
        with pytest.raises(ValueError):
            g(w)

    def test_domain_errors_propagate(self):
        # the right-half form contains sqrt(w), undefined left of zero;
        # the both-connected form is rational and stays evaluable there
        g = induced_weight_map(InteractionMode.FIXED_SPLITTER,
                               Topology.RIGHT_HALF_CONNECTED)
        with pytest.raises(ValueError):
            g(-0.2)


FIXED_SPLITTER_POINTS = [
    (topology, fixed) for topology in Topology
    for fixed in fixed_points(InteractionMode.FIXED_SPLITTER, topology)]


class TestDerivatives:
    @pytest.mark.parametrize(
        "topology,fixed", FIXED_SPLITTER_POINTS,
        ids=[f"{topology.value}-{fixed.stability.value}"
             for topology, fixed in FIXED_SPLITTER_POINTS])
    def test_slope_exceeds_one_exactly_where_unstable(self, topology, fixed):
        f = induced_weight_map(InteractionMode.FIXED_SPLITTER, topology)
        w = weights_of(fixed.point).w_left
        # a one-sided quotient into [0, 1]: past its ends the half-connected
        # forms take the square root of a negative number
        h = 1e-6 if w < 0.5 else -1e-6
        slope = (f(w + h) - f(w)) / h
        unstable = fixed.stability is Stability.UNSTABLE
        assert (abs(slope) > 1.0) == unstable
        # every unstable point repels at 4; the stable ones attract
        # quadratically or faster, so the quotient reads about h
        assert slope == pytest.approx(4.0 if unstable else 0.0, abs=1e-4)

    def test_measure_contraction_slope(self):
        splitter = SplitterCoefficients.from_reflectance(0.9)
        g = induced_weight_map(InteractionMode.MOVABLE_SPLITTER,
                               Topology.BOTH_CONNECTED, splitter)
        expected = splitter.a1_squared - splitter.b1_squared
        assert (g(0.3 + 1e-6) - g(0.3)) / 1e-6 == pytest.approx(expected,
                                                                abs=1e-6)


class TestKernelArrays:
    def test_unitary_kernels_accept_arrays(self):
        from splitloop.maps import unitary_both_kernel
        theta = np.linspace(0.1, 1.4, 257)
        a, b = np.cos(theta), np.sin(theta)
        ap, bp = unitary_both_kernel(a, b)
        assert ap.shape == theta.shape
        assert np.all(np.abs(ap * ap + bp * bp - 1.0) < 1e-12)

    def test_scalar_wrappers_return_floats(self):
        out = step_unitary_both(amplitudes_from_left_weight(0.3))
        assert isinstance(out.a_left, float)
        assert isinstance(out.b_right, float)
