"""Stochastic sampler: per-seed reproducibility, absorption, agreement."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitloop import (GENERATOR_NAME, InteractionMode, LengthMismatchError,
                       OutOfRangeError, Scenario, Side, SplitterCoefficients,
                       Topology, UnsupportedModeError, WeightPair,
                       agreement_report, ensemble_frequencies, iterate,
                       sample_path)

SP9 = SplitterCoefficients.from_reflectance(0.9)


def analytic_weights(splitter, topology, steps):
    scenario = Scenario(InteractionMode.MOVABLE_SPLITTER, topology, splitter,
                        WeightPair(splitter.a1_squared,
                                   1.0 - splitter.a1_squared),
                        max_steps=steps)
    return [r.weights for r in iterate(scenario).records]


class TestSamplePath:
    def test_frozen_path(self):
        # pins the generator stream; a change in seeding or draw order
        # would silently invalidate every seeded result
        path = sample_path(SP9, Topology.BOTH_CONNECTED, 8, 0)
        assert "".join(s.value for s in path.sides) == "LLLLLLRR"
        assert path.seed == 0
        assert GENERATOR_NAME == "philox"

    def test_deterministic_per_seed(self):
        first = sample_path(SP9, Topology.BOTH_CONNECTED, 64, 123)
        second = sample_path(SP9, Topology.BOTH_CONNECTED, 64, 123)
        assert first == second

    def test_path_length(self):
        path = sample_path(SP9, Topology.RIGHT_HALF_CONNECTED, 17, 5)
        assert len(path.sides) == 17

    def test_unitary_mode_refused(self):
        with pytest.raises(UnsupportedModeError):
            sample_path(SP9, Topology.BOTH_CONNECTED, 4, 0,
                        mode=InteractionMode.FIXED_SPLITTER)

    @pytest.mark.parametrize("steps,seed", [(0, 1), (-3, 1), (4, -1)])
    def test_argument_validation(self, steps, seed):
        with pytest.raises(OutOfRangeError):
            sample_path(SP9, Topology.BOTH_CONNECTED, steps, seed)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000))
    def test_right_half_absorbs_into_right(self, seed):
        path = sample_path(SP9, Topology.RIGHT_HALF_CONNECTED, 24, seed)
        sides = path.sides
        if Side.RIGHT in sides:
            first = sides.index(Side.RIGHT)
            assert all(s is Side.RIGHT for s in sides[first:])

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000))
    def test_left_half_absorbs_into_left(self, seed):
        path = sample_path(SP9, Topology.LEFT_HALF_CONNECTED, 24, seed)
        sides = path.sides
        if Side.LEFT in sides:
            first = sides.index(Side.LEFT)
            assert all(s is Side.LEFT for s in sides[first:])

    def test_degenerate_splitter_never_leaves_left(self):
        mirror = SplitterCoefficients.from_reflectance(1.0)
        path = sample_path(mirror, Topology.BOTH_CONNECTED, 32, 9)
        assert all(s is Side.LEFT for s in path.sides)


class TestEnsemble:
    def test_frozen_small_ensemble(self):
        estimate = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 5,
                                        400, 11)
        assert estimate.w_left == (0.9125, 0.8525, 0.7475, 0.71, 0.6825)
        assert estimate.n_paths == 400
        assert estimate.base_seed == 11
        assert estimate.generator == "philox"

    def test_complement_and_stderr(self):
        estimate = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 4,
                                        500, 3)
        for wl, wr, se in zip(estimate.w_left, estimate.w_right,
                              estimate.stderr):
            assert wl + wr == pytest.approx(1.0, abs=1e-15)
            assert se == pytest.approx(math.sqrt(wl * wr / 500), abs=1e-15)

    def test_matches_aggregated_single_paths(self):
        estimate = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 4,
                                        200, 50)
        counts = [0] * 4
        for i in range(200):
            path = sample_path(SP9, Topology.BOTH_CONNECTED, 4, 50 + i)
            for t, side in enumerate(path.sides):
                counts[t] += side is Side.LEFT
        assert estimate.w_left == tuple(c / 200 for c in counts)

    def test_reproducible_and_seed_sensitive(self):
        a = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 6, 300, 42)
        b = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 6, 300, 42)
        c = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 6, 300, 43)
        assert a == b
        assert a.w_left != c.w_left

    def test_path_count_validation(self):
        with pytest.raises(OutOfRangeError):
            ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 4, 0, 1)

    def test_unitary_mode_refused(self):
        with pytest.raises(UnsupportedModeError):
            ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 4, 10, 1,
                                 mode=InteractionMode.FIXED_SPLITTER)


class TestAgreement:
    def test_matches_analytic_series(self):
        estimate = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 8,
                                        20_000, 7)
        rows = agreement_report(
            estimate, analytic_weights(SP9, Topology.BOTH_CONNECTED, 8))
        assert len(rows) == 8
        assert all(row.passed for row in rows)
        assert all(row.z <= 4.0 for row in rows)

    def test_zero_difference_gives_zero_z(self):
        estimate = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 3,
                                        100, 5)
        rows = agreement_report(
            estimate,
            [WeightPair(w, 1.0 - w) for w in estimate.w_left])
        assert [row.z for row in rows] == [0.0, 0.0, 0.0]

    def test_zero_stderr_with_mismatch_is_infinite(self):
        mirror = SplitterCoefficients.from_reflectance(1.0)
        estimate = ensemble_frequencies(mirror, Topology.BOTH_CONNECTED, 3,
                                        50, 2)
        assert estimate.stderr == (0.0, 0.0, 0.0)
        rows = agreement_report(estimate,
                                [WeightPair(0.9, 0.1)] * 3)
        assert all(math.isinf(row.z) and not row.passed for row in rows)

    def test_length_mismatch_rejected(self):
        estimate = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 3,
                                        50, 2)
        with pytest.raises(LengthMismatchError):
            agreement_report(estimate,
                             analytic_weights(SP9, Topology.BOTH_CONNECTED,
                                              5))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -1.0])
    def test_sigma_bound_must_be_finite_and_positive(self, sigma):
        estimate = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 3,
                                        50, 2)
        with pytest.raises(OutOfRangeError):
            agreement_report(estimate,
                             analytic_weights(SP9, Topology.BOTH_CONNECTED,
                                              3), sigma_bound=sigma)

    def test_half_topology_agreement(self):
        estimate = ensemble_frequencies(SP9, Topology.RIGHT_HALF_CONNECTED,
                                        6, 20_000, 13)
        rows = agreement_report(
            estimate,
            analytic_weights(SP9, Topology.RIGHT_HALF_CONNECTED, 6))
        assert all(row.passed for row in rows)
