"""Stochastic sampler: per-seed reproducibility, absorption, agreement."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitloop import montecarlo
from splitloop import (GENERATOR_NAME, InteractionMode, LengthMismatchError,
                       ModeMismatchError, OutOfRangeError, Scenario,
                       SplitterCoefficients, Topology, WeightPair,
                       agreement_report, ensemble_frequencies, iterate)

# a uint64 overflow warning from the key or counter arithmetic fails a test;
# numpy warns with RuntimeWarning. Plain "error" would also raise hypothesis's
# own DeprecationWarning while it reports a failing example, which stops the
# whole pytest session with an INTERNALERROR.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SP9 = SplitterCoefficients.from_reflectance(0.9)
KEYS = 2 ** 128


def analytic_weights(splitter, topology, steps):
    scenario = Scenario(InteractionMode.MOVABLE_SPLITTER, topology, splitter,
                        WeightPair(splitter.a1_squared,
                                   1.0 - splitter.a1_squared),
                        max_steps=steps)
    return [r.weights for r in iterate(scenario).records]


def reference_walk(splitter, topology, steps, n_paths, base_seed):
    """Paths x steps, True in the left loop: one numpy generator per path and
    the column-by-column walk, kept here as an oracle independent of the
    sampler's batched draws, step table and chunking."""
    a1, b1 = splitter.a1_squared, splitter.b1_squared
    uniforms = np.empty((n_paths, steps))
    for i in range(n_paths):
        uniforms[i] = np.random.Generator(
            np.random.Philox(key=base_seed + i)).random(steps)
    in_left = np.empty(uniforms.shape, dtype=bool)
    in_left[:, 0] = uniforms[:, 0] < a1
    for t in range(1, steps):
        prev, u = in_left[:, t - 1], uniforms[:, t]
        if topology is Topology.BOTH_CONNECTED:
            in_left[:, t] = np.where(prev, u < a1, u < b1)
        elif topology is Topology.RIGHT_HALF_CONNECTED:
            in_left[:, t] = prev & (u < a1)
        else:
            in_left[:, t] = prev | (u >= b1)
    return in_left


def path_of(sides):
    """The w_left of a one-path ensemble, its loop at each pass spelled out
    as L and R."""
    return tuple(1.0 if side == "L" else 0.0 for side in sides)


@contextlib.contextmanager
def small_chunks():
    """Sizes shrunk so that a draw block (8 paths of a 64-step slice), a walk
    chunk (16 such paths) and a time slice (64 steps) end a few paths or
    steps away, and both draws run within a slice: the vectorized one for a
    slice of up to 16 steps, the re-keyed one for a longer slice."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "CHUNK_PATH_STEPS", 2 ** 9)
        patch.setattr(montecarlo, "_WALK_PATH_STEPS", 2 ** 10)
        patch.setattr(montecarlo, "VECTOR_MAX_STEPS", 16)
        yield


def walk_chunk_paths(steps):
    """Paths in one walk chunk of an ensemble of `steps` steps."""
    span = min(steps, montecarlo.CHUNK_PATH_STEPS // 8)
    return montecarlo._paths_within(montecarlo._WALK_PATH_STEPS, span)


def traced_peak(*args):
    """The tracemalloc peak, in bytes, of ensemble_frequencies(*args)."""
    tracemalloc.start()
    try:
        ensemble_frequencies(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def sampling_cases(draw):
    """Under small_chunks(): steps on both sides of the draw crossover and of
    one and two time slices, with a short or a long last slice; ensembles on
    both sides of a walk chunk; and base seeds low, just below 2**64 (the
    key carry) and at the top of the key range. Draw blocks and 8-path bytes
    end inside most ensembles."""
    with small_chunks():
        cross = montecarlo.VECTOR_MAX_STEPS
        span = montecarlo.CHUNK_PATH_STEPS // 8
        steps = draw(st.one_of(
            st.sampled_from([1, 2, 4, 5, cross, cross + 1, span, span + 1,
                             span + cross + 1, 2 * span + 1]),
            st.integers(1, 4 * span)))
        chunk = walk_chunk_paths(steps)
    n_paths = draw(st.one_of(
        st.sampled_from([1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1]),
        st.integers(1, 3 * chunk)))
    seed = draw(st.one_of(
        st.integers(0, 2 ** 32),
        st.integers(2 ** 64 - n_paths - 2, 2 ** 64 + 1),
        st.integers(KEYS - n_paths - 2, KEYS - n_paths)))
    return steps, n_paths, seed


class TestOnePath:
    """A single path is an ensemble of one: w_left is 1.0 or 0.0 per pass."""

    # pin the generator stream of each draw method; a change in seeding or
    # draw order would silently invalidate every seeded result
    def test_frozen_vectorized_draw(self):
        estimate = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 8, 1, 0)
        assert estimate.w_left == path_of("LLLLLLRR")
        assert GENERATOR_NAME == "philox"

    def test_frozen_rekeyed_draw(self):
        steps = 129  # the pinned path's length, drawn re-keyed
        assert steps > montecarlo.VECTOR_MAX_STEPS
        estimate = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, steps,
                                        1, 0)
        assert estimate.w_left == path_of(
            "LLLLLLRRRRRRRRRRRRRRRLLRRRRRRRRRRRRRRRLLLRRLLLRRRRRRRRLLLLL"
            "LLLLLLLLLLLLLLLRRRRRRRRRRRLLLLLLLLLRRRRRRRRLLLLLLLLLLLLLRRL"
            "LRRRRRRRRRR")

    @pytest.mark.parametrize("steps,seed", [(0, 1), (-3, 1), (4, -1)])
    def test_argument_validation(self, steps, seed):
        with pytest.raises(OutOfRangeError):
            ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, steps, 1, seed)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000))
    def test_right_half_absorbs_into_right(self, seed):
        w_left = ensemble_frequencies(SP9, Topology.RIGHT_HALF_CONNECTED, 24,
                                      1, seed).w_left
        if 0.0 in w_left:
            first = w_left.index(0.0)
            assert all(w == 0.0 for w in w_left[first:])

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000))
    def test_left_half_absorbs_into_left(self, seed):
        w_left = ensemble_frequencies(SP9, Topology.LEFT_HALF_CONNECTED, 24,
                                      1, seed).w_left
        if 1.0 in w_left:
            first = w_left.index(1.0)
            assert all(w == 1.0 for w in w_left[first:])

    def test_degenerate_splitter_never_leaves_left(self):
        mirror = SplitterCoefficients.from_reflectance(1.0)
        estimate = ensemble_frequencies(mirror, Topology.BOTH_CONNECTED, 32,
                                        1, 9)
        assert estimate.w_left == (1.0,) * 32


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
        counts = [0.0] * 4
        for i in range(200):
            path = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 4, 1,
                                        50 + i)
            counts = [c + w for c, w in zip(counts, path.w_left)]
        assert estimate.w_left == tuple(c / 200 for c in counts)

    def test_reproducible_and_seed_sensitive(self):
        a = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 6, 300, 42)
        b = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 6, 300, 42)
        c = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 6, 300, 43)
        assert a == b
        assert a.w_left != c.w_left

    @settings(max_examples=150, deadline=None)
    @given(topology=st.sampled_from(list(Topology)),
           reflectance=st.floats(0.0, 1.0), case=sampling_cases())
    def test_matches_independent_reference(self, topology, reflectance,
                                           case):
        splitter = SplitterCoefficients.from_reflectance(reflectance)
        steps, n_paths, seed = case
        with small_chunks():
            estimate = ensemble_frequencies(splitter, topology, steps,
                                            n_paths, seed)
            first = ensemble_frequencies(splitter, topology, steps, 1, seed)
        in_left = reference_walk(splitter, topology, steps, n_paths, seed)
        w_left = in_left.mean(axis=0)
        assert estimate.w_left == tuple(float(x) for x in w_left)
        assert estimate.stderr == tuple(
            float(x) for x in np.sqrt(w_left * (1.0 - w_left) / n_paths))
        assert first.w_left == tuple(float(x) for x in in_left[0])

    @pytest.mark.parametrize("n_paths", [1, 7, 13, 21])
    def test_bits_past_the_last_path_are_not_counted(self, n_paths):
        # the left-half wiring's ~b sets the padding bits of the last byte
        splitter = SplitterCoefficients.from_reflectance(0.3)
        wiring = Topology.LEFT_HALF_CONNECTED
        estimate = ensemble_frequencies(splitter, wiring, 6, n_paths, 5)
        in_left = reference_walk(splitter, wiring, 6, n_paths, 5)
        assert estimate.w_left == tuple(float(x)
                                        for x in in_left.mean(axis=0))

    @pytest.mark.parametrize("steps,n_paths", [
        (5, None), (montecarlo.VECTOR_MAX_STEPS + 1, None),
        (montecarlo.CHUNK_PATH_STEPS // 8 + 5, 9)])
    def test_matches_reference_across_a_full_size_chunk(self, steps,
                                                        n_paths):
        # the real sizes, straddling the 2**64 key carry: one path more than
        # a draw block, or a path a few steps longer than a time slice, whose
        # last slice the vectorized draw makes
        if n_paths is None:
            n_paths = montecarlo._paths_within(montecarlo.CHUNK_PATH_STEPS,
                                               steps) + 1
        seed = 2 ** 64 - n_paths // 2
        estimate = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, steps,
                                        n_paths, seed)
        in_left = reference_walk(SP9, Topology.BOTH_CONNECTED, steps,
                                 n_paths, seed)
        assert estimate.w_left == tuple(float(x)
                                        for x in in_left.mean(axis=0))

    def test_seed_range(self):
        top = ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 3, 2,
                                   KEYS - 2)
        assert top.w_left == tuple(float(x) for x in reference_walk(
            SP9, Topology.BOTH_CONNECTED, 3, 2, KEYS - 2).mean(axis=0))
        with pytest.raises(OutOfRangeError, match="Philox key range"):
            ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 3, 2,
                                 KEYS - 1)

    @pytest.mark.parametrize("steps", [100, 1000])
    def test_memory_is_bounded_by_one_chunk(self, steps):
        n_paths = 13_000_000 // steps  # 104 MB of float64 if held at once
        # At most three packed arrays of one walk chunk are alive at once,
        # 1 bit a path step each (a, b and ~b, or the count's spare), and one
        # draw block of CHUNK_PATH_STEPS doubles, whose vectorized draw's
        # uint64 temporaries take up to 48 bytes a double.
        walked = min(n_paths, walk_chunk_paths(steps)) * steps
        bound = 3 * walked // 8 + 48 * montecarlo.CHUNK_PATH_STEPS
        peak = traced_peak(SP9, Topology.BOTH_CONNECTED, steps, n_paths, 1)
        assert n_paths * steps * 8 > 100e6
        assert peak < bound < n_paths * steps  # under a byte a path step

    def test_memory_does_not_grow_with_steps_past_one_slice(self):
        # Past one slice, 1024 paths take no more memory per step than 8
        # paths do: only the per-step counts and the outputs grow.
        span = montecarlo.CHUNK_PATH_STEPS // 8
        one, three = (
            {n_paths: traced_peak(SP9, Topology.BOTH_CONNECTED, steps,
                                  n_paths, 1) for n_paths in (8, 1024)}
            for steps in (span, 3 * span))
        assert three[1024] - one[1024] <= three[8] - one[8]
        assert one[1024] - one[8] > 1024 * span // 8  # the paths' own bytes

    def test_path_count_validation(self):
        with pytest.raises(OutOfRangeError):
            ensemble_frequencies(SP9, Topology.BOTH_CONNECTED, 4, 0, 1)

    @pytest.mark.parametrize("splitter,topology", [
        (SP9, "both"), (None, Topology.BOTH_CONNECTED)],
        ids=["topology", "splitter"])
    def test_bad_topology_or_splitter_fails_before_any_draw(
            self, monkeypatch, splitter, topology):
        def refuse(*args):
            raise AssertionError("drew before the arguments were checked")

        monkeypatch.setattr(montecarlo, "_uniforms", refuse)
        monkeypatch.setattr(montecarlo, "_rekeyed_uniforms", refuse)
        with pytest.raises(ModeMismatchError):
            ensemble_frequencies(splitter, topology, 4, 10, 1)


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
