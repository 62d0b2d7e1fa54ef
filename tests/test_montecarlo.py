"""Stochastic sampler: per-seed reproducibility, absorption, agreement."""

import contextlib
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def calls_to(name, *args):
    """(base seed, key offsets, t0, steps) of each call that
    ensemble_frequencies(*args) makes to montecarlo.<name>, a draw that
    takes those four first: _packed_choices draws a slice of paths,
    _uniforms a block of one. The offsets come as a list."""
    calls = []
    draw = getattr(montecarlo, name)

    def record(base_seed, keys, t0, steps, *rest):
        calls.append((base_seed, keys.tolist(), t0, steps))
        return draw(base_seed, keys, t0, steps, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, name, record)
        ensemble_frequencies(*args)
    return calls


def absorbed_at(in_left, topology):
    """Per path of a reference walk, the first step index on the absorbing
    side (the walk's length if it never gets there): the left side in the
    left-half wiring, the right side in the right-half one."""
    on = in_left == (topology is Topology.LEFT_HALF_CONNECTED)
    return np.where(on.any(axis=1), on.argmax(axis=1), on.shape[1])


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


RIGHT, LEFT = Topology.RIGHT_HALF_CONNECTED, Topology.LEFT_HALF_CONNECTED
# Absorbing ensembles for small_chunks(), as (topology, reflectance, (steps,
# n_paths, seed)) rows of test_matches_independent_reference: 13 paths, in
# one walk chunk, or 21, a chunk of 16 and 5 more; never whole bytes.
# The reflectances that never absorb, absorb every path at pass 1, or all
# but never: 1 - 2**-10 in the right-half wiring, whose first slice is a
# whole time slice, and where one path of the first chunk, keyed across
# 2**64, is absorbed at step 75, in the second slice.
EXTREMES = [(wiring, reflectance, (150, 13, 3))
            for wiring in (RIGHT, LEFT) for reflectance in (0.0, 1.0)] + [
    (RIGHT, 1 - 2 ** -10, (150, 21, 2 ** 64 - 13)),
    (LEFT, 1 - 2 ** -10, (150, 21, 3))]
# The last path absorbed on the first step of a slice (seeds 10 and 760) or
# on its last (1000 and 6114), so that no later slice is drawn: the first
# slice is steps 0-51, the second 52-115.
AT_A_SLICE_END = {(wiring, reflectance, (200, 13, seed)): on
                  for wiring, reflectance in ((RIGHT, 0.95), (LEFT, 0.05))
                  for seed, on in ((10, "first"), (760, "first"),
                                   (1000, "last"), (6114, "last"))}
# Two survivors of the first slice, keyed 2**64 - 1 and 2**64 + 6.
ACROSS_THE_CARRY = [(RIGHT, 0.8, (150, 13, 2 ** 64 - 1)),
                    (LEFT, 0.2, (150, 13, 2 ** 64 - 1))]
# Survivors in each of four slices, in both walk chunks of 21 paths.
PAST_TWO_SLICES = [(RIGHT, 0.99, (197, 21, 25)), (LEFT, 0.01, (197, 21, 25))]
ABSORBING_ROWS = [*EXTREMES, *AT_A_SLICE_END, *ACROSS_THE_CARRY,
                  *PAST_TWO_SLICES]


def absorbing_examples(test):
    """test_matches_independent_reference, given every absorbing row."""
    for topology, reflectance, case in ABSORBING_ROWS:
        test = example(topology=topology, reflectance=reflectance,
                       case=case)(test)
    return test


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

    def test_degenerate_splitter_never_leaves_left(self):
        mirror = SplitterCoefficients.from_reflectance(1.0)
        estimate = ensemble_frequencies(mirror, Topology.BOTH_CONNECTED, 32,
                                        1, 9)
        assert estimate.w_left == (1.0,) * 32


def double_of(word):
    """The double numpy's Generator.random makes of a Philox word."""
    return (word >> 11) * 2.0 ** -53


def packed_bits(words, p):
    """_packed_choices' a-bits for p, one key per word, with the draw
    replaced by `words`."""
    column = np.array(words, dtype=np.uint64).reshape(-1, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_uniforms", lambda *args: column)
        a, _ = montecarlo._packed_choices(
            0, np.arange(len(words), dtype=np.uint32), 0, 1, p, 0.5)
    return np.unpackbits(a[0], count=len(words)).astype(bool).tolist()


MULTIPLY_EDGES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1,
                  0xFFFFFFFF00000000, 0x8000000080000000]


@pytest.mark.parametrize("m", montecarlo._PHILOX_M.tolist(), ids=hex)
def test_mulhilo_is_the_128_bit_product(m):
    randoms = np.random.default_rng(7).integers(2 ** 64, size=10 ** 4,
                                                dtype=np.uint64)
    x = np.concatenate((np.array(MULTIPLY_EDGES, np.uint64), randoms))
    hi, lo = montecarlo._mulhilo(np.uint64(m), x)
    assert list(zip(hi.tolist(), lo.tolist())) == [
        divmod(m * word, 2 ** 64) for word in x.tolist()]


THRESHOLD_EDGES = [0.0, 5e-324, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0]


class TestWordThresholds:
    """A word is compared with ceil(p * 2**53) * 2**11 where numpy would
    compare its double with p: the two pick the same words."""

    @settings(max_examples=500, deadline=None)
    @given(p=st.one_of(st.sampled_from(THRESHOLD_EDGES), st.floats(0.0, 1.0)),
           word=st.integers(0, 2 ** 64 - 1))
    @example(p=0.0, word=0)
    @example(p=5e-324, word=2 ** 11 - 1)
    @example(p=2.0 ** -53, word=2 ** 64 - 1)
    @example(p=0.5, word=2 ** 63 - 1)
    @example(p=1.0 - 2.0 ** -53, word=2 ** 64 - 2 ** 11 - 1)
    @example(p=1.0, word=2 ** 64 - 1)
    def test_a_word_is_below_the_threshold_when_its_double_is_below_p(
            self, p, word):
        threshold = montecarlo._threshold(p)
        words = [word] + [w for w in (threshold - 1, threshold,
                                      threshold + 2047) if 0 <= w < 2 ** 64]
        below = [double_of(w) < p for w in words]
        assert [w < threshold for w in words] == below
        assert packed_bits(words, p) == below

    def test_thresholds_of_the_edges(self):
        assert [montecarlo._threshold(p) for p in THRESHOLD_EDGES] == [
            0, 2 ** 11, 2 ** 11, 2 ** 63, 2 ** 64 - 2 ** 11, 2 ** 64]

    @pytest.mark.parametrize("key", [0, 2 ** 64 - 1, KEYS - 1])
    def test_the_doubles_of_the_words_are_the_generators(self, key):
        words = np.random.Philox(key=key).random_raw(1000)
        doubles = np.random.Generator(np.random.Philox(key=key)).random(1000)
        assert np.array_equal((words >> np.uint64(11)) * 2.0 ** -53, doubles)


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
    @absorbing_examples
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

    @staticmethod
    def slices_of(row):
        """The slices the ensemble of an absorbing row draws, and its
        reference walk."""
        topology, reflectance, (steps, n_paths, seed) = row
        splitter = SplitterCoefficients.from_reflectance(reflectance)
        with small_chunks():
            slices = calls_to("_packed_choices", splitter, topology, steps,
                              n_paths, seed)
        return slices, reference_walk(splitter, topology, steps, n_paths,
                                      seed)

    @pytest.mark.parametrize("row", EXTREMES)
    def test_rows_that_never_absorb_or_absorb_at_once(self, row):
        slices, in_left = self.slices_of(row)
        at = absorbed_at(in_left, row[0])
        if (at == 0).all():  # at pass 1: nothing is left after one slice
            assert {t0 for _, _, t0, _ in slices} == {0}
        elif (at == in_left.shape[1]).all():  # never: all, every slice
            assert [keys for _, keys, _, _ in slices] == [
                list(range(len(at)))] * 3
        else:  # a later slice of a chunk draws fewer paths than its first
            width = {seed: len(keys) for seed, keys, t0, _ in slices
                     if not t0}
            assert any(len(keys) < width[seed]
                       for seed, keys, t0, _ in slices if t0)

    @pytest.mark.parametrize("row", AT_A_SLICE_END)
    def test_rows_whose_last_absorption_ends_a_slice(self, row):
        slices, in_left = self.slices_of(row)
        _, _, t0, steps = slices[-1]
        last = absorbed_at(in_left, row[0]).max()
        assert last == (t0 if AT_A_SLICE_END[row] == "first"
                        else t0 + steps - 1)
        assert t0 + steps < row[2][0]  # the slices after it are not drawn

    @pytest.mark.parametrize("row", ACROSS_THE_CARRY)
    def test_rows_whose_survivors_straddle_the_key_carry(self, row):
        slices, _ = self.slices_of(row)
        narrowed = [[seed + k for k in keys] for seed, keys, t0, _ in slices
                    if t0]
        assert narrowed and all(
            min(keys) < 2 ** 64 <= max(keys) and len(keys) >= 2
            and max(keys) - min(keys) >= len(keys) for keys in narrowed)

    @pytest.mark.parametrize("row", PAST_TWO_SLICES)
    def test_rows_with_survivors_past_two_slices(self, row):
        slices, _ = self.slices_of(row)
        seed = row[2][2]
        for chunk in (seed, seed + 16):
            starts = [t0 for base, keys, t0, _ in slices
                      if base == chunk and keys]
            assert starts == [0, 64, 128, 192]

    @settings(max_examples=40, deadline=None)
    @given(topology=st.sampled_from([RIGHT, LEFT]),
           a1_squared=st.floats(0.0, 1.0, exclude_min=True,
                                exclude_max=True),
           n_paths=st.integers(1, 40), extra=st.integers(0, 64),
           data=st.data())
    def test_half_wirings_absorb_across_the_ensemble(
            self, topology, a1_squared, n_paths, extra, data):
        # Under small_chunks() a first slice ends by step 64, so these
        # ensembles run at least two more slices after it.
        seed = data.draw(st.integers(0, KEYS - n_paths))
        splitter = SplitterCoefficients.from_reflectance(a1_squared)
        with small_chunks():
            steps = 3 * montecarlo.CHUNK_PATH_STEPS // 8 + extra
            w_left = ensemble_frequencies(splitter, topology, steps,
                                          n_paths, seed).w_left
        pairs = list(zip(w_left, w_left[1:]))
        if topology is RIGHT:  # never up, and 0.0 for good once reached
            assert all(w >= later for w, later in pairs)
            absorbed = 0.0
        else:  # never down, and 1.0 for good once reached
            assert all(w <= later for w, later in pairs)
            absorbed = 1.0
        if absorbed in w_left:
            assert set(w_left[w_left.index(absorbed):]) == {absorbed}

    @pytest.mark.parametrize("steps", [1, 4, 5, 48])
    @pytest.mark.parametrize("t0", [0, 8, 4000])
    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 5, KEYS - 40])
    def test_scattered_keys_draw_their_own_streams(self, seed, t0, steps):
        # survivors of a narrowed slice: key offsets with gaps, from t0
        offsets = np.array([0, 3, 4, 9, 30, 31, 39], dtype=np.uint32)
        expected = np.array([
            np.random.Philox(key=seed + k).random_raw(t0 + steps)[t0:]
            for k in offsets.tolist()])
        for draw in (montecarlo._philox_uniforms,
                     montecarlo._rekeyed_uniforms):
            words = draw(seed, offsets, t0, steps)
            assert words.dtype == np.uint64
            assert np.array_equal(words, expected)

    @pytest.mark.parametrize("n_paths", [1, 7, 13, 21, 64, 65, 100])
    def test_bits_past_the_last_path_are_not_counted(self, n_paths):
        # the left-half wiring's ~b sets the padding bits of the last word:
        # 64 fills a word exactly, 65 and 100 pad into a second one
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

    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("steps", [100, 1000])
    def test_memory_is_bounded_by_one_chunk(self, steps, topology):
        n_paths = 13_000_000 // steps  # 104 MB of float64 if held at once
        # At most three packed arrays of one walk chunk are alive at once,
        # 1 bit a path step each (a, b and ~b, or the count's spare), and one
        # draw block of CHUNK_PATH_STEPS doubles, whose vectorized draw's
        # uint64 temporaries take up to 48 bytes a double. A half wiring's
        # survivor index must fit in the same bound.
        walked = min(n_paths, walk_chunk_paths(steps)) * steps
        bound = 3 * walked // 8 + 48 * montecarlo.CHUNK_PATH_STEPS
        peak = traced_peak(SP9, topology, steps, n_paths, 1)
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


class TestDrawCount:
    """The doubles ensemble_frequencies draws, counted at _uniforms."""

    @pytest.mark.parametrize("topology", [RIGHT, LEFT])
    def test_absorbing_ensembles_draw_a_small_share(self, topology):
        # a1^2 = b1^2 = 0.5: about 2500 * 0.5**t paths are left after t steps
        splitter = SplitterCoefficients.from_reflectance(0.5)
        calls = calls_to("_uniforms", splitter, topology, 2000, 2500, 7)
        drawn = sum(steps * len(keys) for _, keys, _, steps in calls)
        assert drawn < 0.05 * 2500 * 2000

    @pytest.mark.parametrize("topology,reflectance", [(RIGHT, 1.0),
                                                      (LEFT, 0.0)])
    def test_never_absorbing_ensembles_draw_each_double_once(
            self, topology, reflectance):
        splitter = SplitterCoefficients.from_reflectance(reflectance)
        seed, n_paths, steps = 2 ** 64 - 1000, 2500, 2000
        drawn = np.zeros((n_paths, steps), dtype=np.int8)
        for base, keys, t0, length in calls_to(
                "_uniforms", splitter, topology, steps, n_paths, seed):
            drawn[np.add(keys, base - seed), t0:t0 + length] += 1
        assert (drawn == 1).all()

    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("steps,n_paths", [
        (5, 5000), (montecarlo.VECTOR_MAX_STEPS, 30001), (1, 9)])
    def test_short_ensembles_draw_as_before(self, topology, steps, n_paths):
        # one slice, drawn a block at a time from the chunk's first key
        assert steps <= montecarlo.VECTOR_MAX_STEPS
        splitter = SplitterCoefficients.from_reflectance(0.5)
        calls = calls_to("_uniforms", splitter, topology, steps, n_paths, 11)
        block = montecarlo._paths_within(montecarlo.CHUNK_PATH_STEPS, steps)
        assert calls == [(11, list(range(start, min(start + block, n_paths))),
                          0, steps) for start in range(0, n_paths, block)]


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

    @staticmethod
    def hand_built(w_left, stderr):
        """An estimate with exactly these per-step w_left and stderr."""
        return montecarlo.EnsembleEstimate(
            tuple(w_left), tuple(1.0 - w for w in w_left), tuple(stderr),
            100, SP9, Topology.BOTH_CONNECTED, 0)

    def test_rows_carry_each_step_and_its_z(self):
        # z = 0.28125 / 0.0625 = 4.5 exactly, then 4.0 exactly, 0, inf, 2.0
        estimate = self.hand_built([0.75, 0.75, 0.5, 0.5, 0.25],
                                   [0.0625, 0.0625, 0.0, 0.0, 0.125])
        analytic = [WeightPair(w, 1.0 - w)
                    for w in (0.46875, 0.5, 0.5, 0.25, 0.5)]
        rows = agreement_report(estimate, analytic)
        assert rows == [
            montecarlo.StepAgreement(1, 0.75, 0.46875, 0.0625, 4.5, False),
            montecarlo.StepAgreement(2, 0.75, 0.5, 0.0625, 4.0, True),
            montecarlo.StepAgreement(3, 0.5, 0.5, 0.0, 0.0, True),
            montecarlo.StepAgreement(4, 0.5, 0.25, 0.0, math.inf, False),
            montecarlo.StepAgreement(5, 0.25, 0.5, 0.125, 2.0, True)]
        assert all(type(row.z) is float and type(row.passed) is bool
                   for row in rows)

    @pytest.mark.parametrize("sigma,passed", [
        (None, [False, True]), (4.0, [False, True]), (4.5, [True, True]),
        (5.0, [True, True]), (3.999, [False, False])])
    def test_a_step_passes_when_z_is_within_the_bound(self, sigma, passed):
        # the default bound is 4.0, and z equal to the bound passes
        estimate = self.hand_built([0.75, 0.75], [0.0625, 0.0625])
        analytic = [WeightPair(0.46875, 0.53125), WeightPair(0.5, 0.5)]
        kwargs = {} if sigma is None else {"sigma_bound": sigma}
        rows = agreement_report(estimate, analytic, **kwargs)
        assert [row.z for row in rows] == [4.5, 4.0]
        assert [row.passed for row in rows] == passed

    def test_every_entry_is_checked(self):
        estimate = self.hand_built([0.5] * 3, [0.05] * 3)
        analytic = [WeightPair(0.5, 0.5)] * 2 + [(0.5, 0.5)]
        with pytest.raises(ModeMismatchError, match="analytic entry must be "
                           "a WeightPair, got tuple"):
            agreement_report(estimate, analytic)

    def test_errors_come_in_order(self):
        # each call has every fault of the next one too, and one more
        estimate = self.hand_built([0.5] * 3, [0.05] * 3)
        short_right = dataclasses.replace(estimate, w_right=(0.5,) * 2)
        uneven = dataclasses.replace(short_right, stderr=(0.05,) * 2)
        bad_entries = [None] * 2
        cases = [
            (("not an estimate", 7, math.nan), ModeMismatchError,
             "estimate must be an EnsembleEstimate, got str"),
            ((uneven, 7, math.nan), ModeMismatchError,
             "analytic must be a sequence of WeightPair, got int"),
            ((uneven, bad_entries, math.nan), OutOfRangeError,
             "sigma_bound must be positive and finite, got nan"),
            ((uneven, bad_entries, 4.0), LengthMismatchError,
             "analytic series has 2 steps, estimate has 3"),
            ((uneven, bad_entries + [None], 4.0), LengthMismatchError,
             "estimate has 3 steps, its stderr 2"),
            ((short_right, bad_entries + [None], 4.0), LengthMismatchError,
             "estimate has 3 steps, its w_right 2"),
            ((estimate, bad_entries + [None], 4.0), ModeMismatchError,
             "analytic entry must be a WeightPair, got NoneType")]
        for args, error, message in cases:
            with pytest.raises(error) as raised:
                agreement_report(*args)
            assert str(raised.value) == message

    def test_an_estimate_of_uneven_tuples_leaves_no_row_unfilled(self):
        # one stderr for two steps would broadcast; it is refused before
        # any row is built, and before the entries are read
        estimate = self.hand_built([0.5, 0.5], [0.05])
        for analytic in ([WeightPair(0.5, 0.5)] * 2, [None] * 2):
            with pytest.raises(LengthMismatchError) as raised:
                agreement_report(estimate, analytic)
            assert str(raised.value) == (
                "estimate has 2 steps, its stderr 1")
