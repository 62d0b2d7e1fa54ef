"""Single-pass step maps of the photon / splitter / fiber-loop system.

Six maps cover {fixed splitter, movable splitter} x {both loops connected,
right half-connected, left half-connected}.

Fixed-splitter (unitary) maps act on amplitude pairs. With both loops
connected, one pass sends (a, b) to

    a' = 1 / (1 + 4 a^2 b^2)^(1/2)
    b' = 2 a b / (1 + 4 a^2 b^2)^(1/2)

Note the nonlinear renormalization: the recombination at the splitter is
deliberately kept in this form, with the growing component folded back and
the state rescaled to unit norm on every pass. Do not "simplify" this to a
linear rotation; the whole convergence behavior lives in that denominator.
With the right loop cut open the passing component is captured there and
only the reflected one keeps interacting:

    a' = a^2 / D,   b' = b (1 + a) / D,   D = (a^4 + b^2 (1 + a)^2)^(1/2)

The left half-connected map is the exact mirror (swap roles of a and b).

Movable-splitter (measuring) maps act on weight pairs; each pass re-splits
the classical probability with the splitter coefficients:

    both connected:       w_L' = a1^2 w_L + b1^2 w_R,   w_R' = 1 - w_L'
    right half-connected: w_L' = a1^2 w_L,              w_R' = b1^2 w_L + w_R
    left half-connected:  w_L' = a1^2 w_R + w_L,        w_R' = b1^2 w_R

The both-connected form is a two-state Markov chain with column-stochastic
matrix [[a1^2, b1^2], [b1^2, a1^2]]; the half-connected forms are absorbing
chains. Fixed-splitter maps ignore the splitter after the initial state has
been formed, movable-splitter maps use it on every pass.

The *_kernel functions are the one copy of each update formula. They take
Python floats (the per-pass path: math.sqrt, math.pow) or numpy arrays
(np.sqrt, np.float_power, np.any), with bit-identical results elementwise.
The array path imports numpy on first use, so float-only callers never
load it.
What differs between the six maps is in one table, `_SPECS[(mode,
topology)]`: the kernel's name, the fixed points and the induced weight
map (fixed splitter) or the weight chain's rate (movable splitter);
`_MODES[mode]` holds the state type and its constructors. The functions
that dispatch, `closed_form_measure` among them, read these tables and do
not branch on the topology. `raw_step` is the per-pass function on validated
floats (kernel, Markov agreement check, `states.normalize_pair`); `StepMap`
and the step_* one-liners are typed wrappers over it. Building it is the
one check of a map's arguments; `Scenario` and the sampler run it too.
`_check_state` is the one rule for the type of a map's state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import Callable, Union

from .errors import (InvalidStepError, ModeMismatchError, NumericDomainError,
                     OutOfRangeError)
from .states import (AmplitudePair, InteractionMode, SplitterCoefficients,
                     Topology, WeightPair, _check_count, _check_splitter,
                     _check_unit, amplitude_pair, normalize_pair, weight_pair)

# Denominator guard for the half-connected unitary maps. Unreachable from a
# normalized state (D >= 1 there), kept as a hard stop for raw kernel input.
_MIN_DENOMINATOR = 1e-30

# Agreement bound between the direct update and its transition-matrix form.
_MARKOV_AGREEMENT = 1e-15


def _sqrt(x):
    """math.sqrt on a float, np.sqrt on an array; both correctly rounded."""
    if isinstance(x, float):
        return math.sqrt(x)
    import numpy as np
    return np.sqrt(x)


def _square(x):
    """x ** 2 through the C library's pow, on a float or elementwise.

    Not x * x: pow rounds differently from the product for some inputs,
    and the per-pass results are pinned to pow. numpy's `**` turns into a
    product, so arrays go through float_power, which calls pow.
    """
    if isinstance(x, float):
        return math.pow(x, 2.0)
    import numpy as np
    return np.float_power(x, 2.0)


def _check_denominator(d, wiring: str) -> None:
    small = d < _MIN_DENOMINATOR
    if not isinstance(small, bool):
        import numpy as np
        small = np.any(small)
    if small:
        raise NumericDomainError(
            f"{wiring} denominator underflow: |D| < 1e-30")


def unitary_both_kernel(a, b):
    """Raw both-connected unitary update; returns (a', b')."""
    d = _sqrt(1.0 + 4.0 * (a * a) * (b * b))
    return 1.0 / d, (2.0 * a) * b / d


def unitary_right_half_kernel(a, b):
    """Raw right-half-connected unitary update; returns (a', b')."""
    d = _sqrt((a * a) * (a * a) + (b * b) * _square(1.0 + a))
    _check_denominator(d, "right-half")
    return (a * a) / d, b * (1.0 + a) / d


def unitary_left_half_kernel(a, b):
    """Raw left-half-connected unitary update, the mirror of the right one.

    Written with the same expression shapes as unitary_right_half_kernel so
    that the mirror identity holds bit for bit, not merely to rounding.
    """
    d = _sqrt((b * b) * (b * b) + (a * a) * _square(1.0 + b))
    _check_denominator(d, "left-half")
    return a * (1.0 + b) / d, (b * b) / d


def measure_both_kernel(w_left, w_right, a1_squared, b1_squared):
    """Raw both-connected measuring update; returns (w_L', w_R')."""
    wl = a1_squared * w_left + b1_squared * w_right
    return wl, 1.0 - wl


def measure_right_half_kernel(w_left, w_right, a1_squared, b1_squared):
    """Raw right-half-connected measuring update (right loop absorbs)."""
    return a1_squared * w_left, b1_squared * w_left + w_right


def measure_left_half_kernel(w_left, w_right, a1_squared, b1_squared):
    """Raw left-half-connected measuring update (left loop absorbs)."""
    return a1_squared * w_right + w_left, b1_squared * w_right


State = Union[AmplitudePair, WeightPair]


class Stability(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    SUPERATTRACTING = "superattracting"


@dataclass(frozen=True)
class FixedPoint:
    """An invariant state of one (mode, topology) map, with its character."""

    point: State
    stability: Stability
    absorbing: bool = False


def _unitary_right_half_weight(w: float) -> float:
    s = math.sqrt(w)  # raises ValueError left of 0
    return w * w / (w * w + (1.0 - w) * (1.0 + s) ** 2)


_FIXED = InteractionMode.FIXED_SPLITTER
_MOVABLE = InteractionMode.MOVABLE_SPLITTER

# Per mode: the state type, its two components, the constructor for values
# normalize_pair has already returned, and the name used in error messages.
_MODES = {_FIXED: (AmplitudePair, attrgetter("a_left", "b_right"),
                   amplitude_pair, "fixed-splitter"),
          _MOVABLE: (WeightPair, attrgetter("w_left", "w_right"),
                     weight_pair, "movable-splitter")}

# Per (mode, topology): the kernel's name, the fixed points (stable point
# first) and the induced weight map (fixed splitter) or the weight chain's
# rate r(a1^2, b1^2) (movable). Kernels are named, not held, so one replaced
# on this module at run time is the one used.
_SPECS = {
    (_FIXED, Topology.BOTH_CONNECTED): ("unitary_both_kernel", (
        FixedPoint(AmplitudePair(math.sqrt(0.5), math.sqrt(0.5)),
                   Stability.SUPERATTRACTING),
        FixedPoint(AmplitudePair(1.0, 0.0), Stability.UNSTABLE),
    ), lambda w: 1.0 / (1.0 + 4.0 * w * (1.0 - w))),
    (_FIXED, Topology.RIGHT_HALF_CONNECTED): ("unitary_right_half_kernel", (
        FixedPoint(AmplitudePair(0.0, 1.0), Stability.STABLE),
        FixedPoint(AmplitudePair(1.0, 0.0), Stability.UNSTABLE),
    ), _unitary_right_half_weight),
    (_FIXED, Topology.LEFT_HALF_CONNECTED): ("unitary_left_half_kernel", (
        FixedPoint(AmplitudePair(1.0, 0.0), Stability.STABLE),
        FixedPoint(AmplitudePair(0.0, 1.0), Stability.UNSTABLE),
    ), lambda w: 1.0 - _unitary_right_half_weight(1.0 - w)),  # the mirror
    (_MOVABLE, Topology.BOTH_CONNECTED): ("measure_both_kernel", (
        FixedPoint(WeightPair(0.5, 0.5), Stability.STABLE),
    ), lambda a1sq, b1sq: a1sq - b1sq),
    (_MOVABLE, Topology.RIGHT_HALF_CONNECTED): ("measure_right_half_kernel", (
        FixedPoint(WeightPair(0.0, 1.0), Stability.STABLE, absorbing=True),
    ), lambda a1sq, b1sq: a1sq),
    (_MOVABLE, Topology.LEFT_HALF_CONNECTED): ("measure_left_half_kernel", (
        FixedPoint(WeightPair(1.0, 0.0), Stability.STABLE, absorbing=True),
    ), lambda a1sq, b1sq: b1sq),
}


def _spec(mode: InteractionMode, topology: Topology):
    """The `_SPECS` entry of one map; ModeMismatchError names a bad key."""
    try:
        return _SPECS[mode, topology]
    except (KeyError, TypeError):  # TypeError: an unhashable argument
        if not isinstance(mode, InteractionMode):
            raise ModeMismatchError(
                f"mode must be an InteractionMode, got {mode!r}") from None
        raise ModeMismatchError(
            f"topology must be a Topology, got {topology!r}") from None


def _check_state(mode: InteractionMode, state: State) -> None:
    """Refuse a state that is not of its mode's type."""
    state_type, _, _, label = _MODES[mode]
    if not isinstance(state, state_type):
        raise ModeMismatchError(f"{label} maps act on {state_type.__name__}, "
                                f"got {type(state).__name__}")


def raw_step(mode: InteractionMode, topology: Topology,
             splitter: SplitterCoefficients | None,
             ) -> Callable[[float, float], tuple[float, float, float]]:
    """The per-pass function of one (mode, topology) map on raw floats.

    It takes the two components of a validated state, (a, b) or
    (w_L, w_R), and returns the next state's components and the correction
    that normalize_pair applied to them. Every check of a typed step runs:
    the kernel's denominator guard, the Markov agreement check of the
    both-connected measuring map, and the range and norm/sum bands. The
    kernel is looked up by name each time raw_step runs. Fixed-splitter maps
    ignore the splitter, which may then be None; movable-splitter maps
    refuse anything but SplitterCoefficients.
    """
    kernel = globals()[_spec(mode, topology)[0]]
    if mode is _FIXED:
        def unitary(a: float, b: float) -> tuple[float, float, float]:
            a, b = kernel(a, b)
            return normalize_pair(a, b, True)
        return unitary
    _check_splitter(splitter)
    a1sq, b1sq = splitter.a1_squared, splitter.b1_squared
    markov = topology is Topology.BOTH_CONNECTED

    def measure(w_left: float, w_right: float) -> tuple[float, float, float]:
        wl, wr = kernel(w_left, w_right, a1sq, b1sq)
        if markov:
            # the direct update must agree with the right loop's matrix row
            matrix_row_right = b1sq * w_left + a1sq * w_right
            if abs(matrix_row_right - wr) > _MARKOV_AGREEMENT:
                raise NumericDomainError(
                    "direct and transition-matrix forms disagree: "
                    f"|{matrix_row_right!r} - {wr!r}| > 1e-15")
        return normalize_pair(wl, wr, False)
    return measure


@dataclass(frozen=True)
class StepMap:
    """Uniform handle on one (mode, topology) update rule.

    The splitter is carried for every mode so call sites stay uniform;
    fixed-splitter maps simply never read it.
    """

    mode: InteractionMode
    topology: Topology
    splitter: SplitterCoefficients | None

    def apply(self, state: State) -> State:
        step = raw_step(self.mode, self.topology, self.splitter)
        _check_state(self.mode, state)
        _, components, make, _ = _MODES[self.mode]
        return make(*step(*components(state)))


def step_unitary_both(state: AmplitudePair) -> AmplitudePair:
    """One fixed-splitter pass with both loops connected."""
    return StepMap(_FIXED, Topology.BOTH_CONNECTED, None).apply(state)


def step_unitary_right_half(state: AmplitudePair) -> AmplitudePair:
    """One fixed-splitter pass with the right loop cut open."""
    return StepMap(_FIXED, Topology.RIGHT_HALF_CONNECTED, None).apply(state)


def step_unitary_left_half(state: AmplitudePair) -> AmplitudePair:
    """One fixed-splitter pass with the left loop cut open."""
    return StepMap(_FIXED, Topology.LEFT_HALF_CONNECTED, None).apply(state)


def step_measure_both(weights: WeightPair,
                      splitter: SplitterCoefficients) -> WeightPair:
    """One movable-splitter pass with both loops connected.

    The update is evaluated both directly and through the transition-matrix
    row for the right loop; the two must agree to 1e-15 or the step aborts.
    """
    return StepMap(_MOVABLE, Topology.BOTH_CONNECTED, splitter).apply(weights)


def step_measure_right_half(weights: WeightPair,
                            splitter: SplitterCoefficients) -> WeightPair:
    """One movable-splitter pass with the right loop absorbing."""
    return StepMap(_MOVABLE, Topology.RIGHT_HALF_CONNECTED,
                   splitter).apply(weights)


def step_measure_left_half(weights: WeightPair,
                           splitter: SplitterCoefficients) -> WeightPair:
    """One movable-splitter pass with the left loop absorbing."""
    return StepMap(_MOVABLE, Topology.LEFT_HALF_CONNECTED,
                   splitter).apply(weights)


def fixed_points(mode: InteractionMode,
                 topology: Topology) -> tuple[FixedPoint, ...]:
    """Analytically known fixed points of the chosen map, stable one first.

    Movable-splitter entries hold for any non-degenerate splitter (both
    coefficients nonzero), which is why no splitter argument appears here.

    With both loops connected the fixed-splitter map has exactly two fixed
    points: the balanced superposition, which is superattracting, and the
    all-reflected state (1, 0), which is unstable. The all-passing state
    (0, 1) is not invariant; a single pass sends it to (1, 0), since with
    b = 1 the recombination puts the full recombined amplitude on the
    reflected side.
    """
    return _spec(mode, topology)[1]


def stable_fixed_point(mode: InteractionMode, topology: Topology) -> State:
    """The unique attracting state of the chosen map."""
    return _spec(mode, topology)[1][0].point


def closed_form_measure(topology: Topology, w_left_initial: float,
                        splitter: SplitterCoefficients, n: int) -> float:
    """Left weight after n passes of the measuring map of one wiring.

    Each wiring is a two-state Markov chain, so pass n applies the (n - 1)th
    power of its 2x2 stochastic matrix to the first weights. With w* the
    stable left weight and r the matrix's second eigenvalue:

        w_L(n) = w* + (w_L(1) - w*) r^(n - 1)

    (w*, r) is (1/2, a1^2 - b1^2) with both loops connected, (0, a1^2) with
    the right loop absorbing and (1, b1^2) with the left one; `_SPECS` holds
    both. Step 1 is the initial weight itself. An independent check on the
    iterated map.
    """
    n = _check_count("step index", n, InvalidStepError)
    _check_unit("w_left_initial", w_left_initial)
    _check_splitter(splitter)
    _, points, rate = _spec(_MOVABLE, topology)
    fixed = points[0].point.w_left
    r = rate(splitter.a1_squared, splitter.b1_squared)
    return fixed + (w_left_initial - fixed) * r ** (n - 1)


closed_form_measure_both = partial(closed_form_measure,
                                   Topology.BOTH_CONNECTED)
closed_form_measure_right_half = partial(closed_form_measure,
                                         Topology.RIGHT_HALF_CONNECTED)


def induced_weight_map(mode: InteractionMode, topology: Topology,
                       splitter: SplitterCoefficients | None = None,
                       ) -> Callable[[float], float]:
    """The one-dimensional map w_L -> w_L' induced on the left weight.

    For fixed-splitter dynamics this is the weight image of the amplitude
    update; the maps evaluate the algebraic form directly so they can
    be probed slightly outside [0, 1] where the expression still makes
    sense (finite-difference derivatives at the ends of the interval).
    Movable-splitter maps require the splitter argument.
    """
    name, _, weight_map = _spec(mode, topology)
    if mode is _FIXED:
        return weight_map
    _check_splitter(splitter)
    kernel = globals()[name]
    a1sq, b1sq = splitter.a1_squared, splitter.b1_squared
    return lambda w: kernel(w, 1.0 - w, a1sq, b1sq)[0]


def map_derivative(f: Callable[[float], float], w: float) -> float:
    """Finite-difference derivative of a 1-D map at a finite w.

    Centered difference with step h = 1e-6 wherever both probe points
    evaluate; falls back to a one-sided difference at a boundary where the
    map's algebraic form stops being real (square root of a negative
    number). A finite w outside [0, 1] is probed like any other.
    """
    if not math.isfinite(w):
        raise OutOfRangeError(f"w must be finite, got {w!r}")
    h = 1e-6
    try:
        fp = f(w + h)
    except ValueError:
        fp = None
    try:
        fm = f(w - h)
    except ValueError:
        fm = None
    if fp is not None and fm is not None:
        return (fp - fm) / (2.0 * h)
    if fp is not None:
        return (fp - f(w)) / h
    if fm is not None:
        return (f(w) - fm) / h
    raise NumericDomainError(
        f"map not evaluable on either side of {w!r} with h={h!r}")
