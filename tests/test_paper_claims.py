"""The abstract's claims about the both-connected runs, as tested properties.

The abstract says that a coherent photon tends to equal superposition
whatever its start, that a measured one tends to equal weights, and that
measuring gets there slower. Each test below pins one claim on the domain
where it holds in the float engine, and the inputs where it fails.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitloop import (DegenerateInitialError, InteractionMode, NotConverged,
                       Scenario, SplitterCoefficients, Topology, WeightPair,
                       compare_modes, iterate)


# Tied race (the splitter's a1^2 equals the start's left weight w), with
# d = |w - 1/2|: measuring gives d_n = d (2d)^(n - 1), coherent gives
# d_(n+1) = d_n^2 / (1 - 2 d_n^2) <= 2d d_n, so coherent is never slower.
@settings(max_examples=1000, deadline=None)
@given(w=st.floats(1e-12, 1.0 - 1e-12).filter(lambda w: w != 0.5),
       epsilon=st.floats(1e-12, 1e-1))
def test_tied_race_coherent_converges_and_is_never_slower(w, epsilon):
    race = compare_modes(w, epsilon, 200)
    assert isinstance(race.unitary_steps, int)
    if isinstance(race.measurement_steps, int):
        assert race.unitary_steps <= race.measurement_steps
    else:  # a measuring run that never converges is the slower one
        assert isinstance(race.measurement_steps, NotConverged)


@pytest.mark.parametrize("w", [0.0, 1.0])
def test_pure_states_are_degenerate(w):
    with pytest.raises(DegenerateInitialError):
        compare_modes(w, 1e-3)


def test_measuring_never_converges_once_b1_squared_rounds_to_one():
    a1_squared = 1e-17
    splitter = SplitterCoefficients.from_reflectance(a1_squared)
    assert splitter.b1 * splitter.b1 == 1.0
    assert splitter.a1 * splitter.a1 - splitter.b1 * splitter.b1 == -1.0
    race = compare_modes(a1_squared, 1e-3, 10000)
    assert race.measurement_steps == NotConverged(10000, 0.5)
    assert isinstance(race.unitary_steps, int)
    # rate -1: the weights swap sides on every pass and never approach 1/2
    series = iterate(Scenario(
        InteractionMode.MOVABLE_SPLITTER, Topology.BOTH_CONNECTED, splitter,
        WeightPair(a1_squared, 1.0 - a1_squared), max_steps=6)
    ).w_left_series()
    assert series == [a1_squared, 1.0] * 3


def test_untied_race_can_favor_measurement():
    # a balanced splitter makes the measuring route contract at once
    race = compare_modes(0.9, 1e-3,
                         splitter=SplitterCoefficients.from_reflectance(0.5))
    assert (race.unitary_steps, race.measurement_steps) == (5, 2)
    assert race.ratio == 0.4
