"""Core value types for the photon / beam-splitter loop system.

Naming convention, fixed here and reused everywhere: the reflected
component of the photon travels the left fiber loop and is always written
first; the passing component travels the right loop and is written second.
Amplitudes are non-negative reals (relative phase is not modeled), weights
are classical probabilities.

All types are immutable. Constructors validate their raw inputs, then
rescale to an exact unit norm (or unit sum) so that downstream arithmetic
never has to compensate for decimal rounding in hand-entered values. The
signed correction that was applied is kept on the instance for inspection
but does not participate in equality.

`normalize_pair` is the one copy of that validate-and-rescale rule. The
constructors call it on what the validators' rule `_entered_violation`
accepts; the trajectory loop calls it on the raw floats of every pass and
wraps the results with `amplitude_pair`/`weight_pair`, which skip both.
The pair types are slotted, so an instance holds no `__dict__`, and those
two fill a bare instance through the slots' own setters: cheaper than
`object.__setattr__`, and a slot left unset raises AttributeError on
reading, with no class default. `_setters` reads a slotted class's setters
from its own `__slots__`, in field order, so no caller lists its fields,
and one maker, `_filled`, binds a pair type's three at import.

The argument rules every module shares are written here once: `_check_*`,
`_as_float`, how a caller's value is read, and `_shown`, how it is shown.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum

from .errors import ModeMismatchError, NormalizationError, OutOfRangeError

# Hand-entered amplitude pairs are often quoted to three decimals, which can
# leave the squared norm off by a few 1e-4. Pairs within this tolerance are
# accepted and renormalized; anything worse is rejected as a real error.
AMPLITUDE_NORM_TOL = 1e-3

# Weight pairs come either from exact arithmetic or from decimal tables that
# sum to 1 exactly, so the acceptance band is much tighter.
WEIGHT_SUM_TOL = 1e-9

# Map outputs may undershoot zero by a rounding error; tolerate and clamp.
_RANGE_SLACK = 1e-12

_new = object.__new__
_set = object.__setattr__


def _is_real(value) -> bool:
    """Whether value is a real number, numpy's included, and no bool."""
    if isinstance(value, (float, int)):  # np.float64 is a float
        return not isinstance(value, bool)
    import numbers  # for the other types only: a cold start skips it
    return isinstance(value, numbers.Real)  # np.bool_ is none


def _as_float(value) -> float:
    """value as a Python float: nan unless _is_real, inf for a huge int."""
    try:
        return float(value) if _is_real(value) else math.nan
    except OverflowError:  # an int beyond the float range
        return math.inf if value > 0 else -math.inf


def _shown(value) -> str:
    """repr(value), or where Python refuses it (a huge int, or a container of
    one) the int as ±d.ddde+N from its 64 top bits, else the type's name."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            return type(value).__name__
        from decimal import MAX_EMAX, Context  # only this path loads it
        shift, ctx = abs(value).bit_length() - 64, Context(Emax=MAX_EMAX)
        return f"{ctx.multiply(value >> shift, ctx.power(2, shift)):.3e}"


def _check_unit(name: str, value: float) -> float:
    """The value as a Python float; refuse one outside [0, 1], NaN, a
    non-number, a bool and a huge int included."""
    if not 0.0 <= _as_float(value) <= 1.0:
        raise OutOfRangeError(f"{name} out of range: {_shown(value)} not in [0, 1]")
    return float(value)


def _as_int(value) -> int | None:
    """value as a Python int if operator.index takes it (numpy integers
    included) and it is no bool, else None."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _check_count(name: str, value: int, error: type = OutOfRangeError) -> int:
    """The count as a Python int; `error` if not an integer >= 1, or a bool."""
    count = _as_int(value)
    if count is None or count < 1:
        raise error(f"{name} must be an integer >= 1, got {_shown(value)}")
    return count


def _check_positive_finite(name: str, value: float) -> float:
    """The bound as a Python float; refuse one that is not positive and
    finite, a non-number, a bool and a huge int included."""
    if not 0.0 < _as_float(value) < math.inf:
        raise OutOfRangeError(
            f"{name} must be positive and finite, got {_shown(value)}")
    return float(value)


def _check_type(name: str, value, kind: type,
                error: type = ModeMismatchError) -> None:
    """Refuse a run argument that is not a `kind`, naming the type it is."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise error(f"{name} must be {article} {kind.__name__}, got "
                    f"{type(value).__name__}")


class Topology(Enum):
    """Fiber wiring of the loop interferometer.

    BOTH_CONNECTED: both loops return their component to the splitter.
    RIGHT_HALF_CONNECTED: the right loop is cut open, so the passing
    component is captured there and only the reflected one keeps cycling.
    LEFT_HALF_CONNECTED: the mirror arrangement, capturing on the left.
    """

    BOTH_CONNECTED = "both"
    RIGHT_HALF_CONNECTED = "right-half"
    LEFT_HALF_CONNECTED = "left-half"


class InteractionMode(Enum):
    """How the splitter meets the photon on every pass.

    FIXED_SPLITTER keeps the splitter rigid, so each pass is a coherent
    (unitary-style) recombination of amplitudes. MOVABLE_SPLITTER lets the
    splitter recoil, which acts as a which-path measurement; the state is
    then a classical weight pair re-split on every pass.
    """

    FIXED_SPLITTER = "unitary"
    MOVABLE_SPLITTER = "measure"


def _check_sampling(steps: int, seed: int,
                    n_paths: int) -> tuple[int, int, int]:
    """(steps, seed, n_paths) of an ensemble as ints; refuse a bad count,
    or seeds seed .. seed + n_paths - 1 outside the 128-bit keys."""
    steps = _check_count("steps", steps)
    first = _as_int(seed)
    if first is None or first < 0:
        raise OutOfRangeError(f"seed must be a non-negative integer, got {_shown(seed)}")
    n_paths = _check_count("n_paths", n_paths)
    if first + n_paths > 2 ** 128:
        raise OutOfRangeError(
            f"seeds {_shown(first)}..{_shown(first + n_paths - 1)} exceed "
            "the Philox key range 0..2**128 - 1")
    return steps, first, n_paths


@dataclass(frozen=True)
class Violation:
    """Structured description of a failed construction check."""

    kind: str  # "range" | "normalization" | "weight-sum"
    deviation: float
    message: str


def _violation(x: float, y: float, squared: bool,
               names: tuple = ()) -> Violation | None:
    """The acceptance rule for two floats: a Violation, or None when fine.

    Both components must be finite and non-negative (up to the range
    slack); the squared norm (squared=True, amplitudes) must lie within
    AMPLITUDE_NORM_TOL of 1, the sum (squared=False, weights) within
    WEIGHT_SUM_TOL. Messages call x and y `names`, else the pair types' fields.
    """
    dev = (x * x + y * y if squared else x + y) - 1.0
    tol = AMPLITUDE_NORM_TOL if squared else WEIGHT_SUM_TOL
    if x >= -_RANGE_SLACK and y >= -_RANGE_SLACK and abs(dev) <= tol:
        return None
    names = names or (("a_left", "b_right") if squared
                      else ("w_left", "w_right"))
    for name, v in zip(names, (x, y)):
        if not math.isfinite(v):
            return Violation("range", float("nan"), f"{name} is not finite")
        if v < -_RANGE_SLACK:
            return Violation("range", v, f"{name} must be non-negative, got {v!r}")
    label = "squared norm" if squared else "weight sum"
    return Violation("normalization" if squared else "weight-sum", dev,
                     f"{label} {1.0 + dev!r} deviates from 1 by {dev!r}")


def _entered_violation(names: tuple, x, y, squared: bool) -> Violation | None:
    """The rule for a hand-entered pair with fields `names`: each value a
    real number and no bool, then `_violation` on their `_as_float`."""
    for name, value in zip(names, (x, y)):
        if not _is_real(value):
            return Violation("range", math.nan,
                             f"{name} must be a real number, got {_shown(value)}")
    return _violation(_as_float(x), _as_float(y), squared, names)


def _error(violation: Violation) -> ValueError:
    """The error a Violation raises, by its kind."""
    return (OutOfRangeError(violation.message) if violation.kind == "range"
            else NormalizationError(violation))


def validate_amplitudes(a_left: float, b_right: float) -> Violation | None:
    """A Violation, or None exactly when AmplitudePair takes the pair."""
    return _entered_violation(("a_left", "b_right"), a_left, b_right, True)


def validate_weights(w_left: float, w_right: float) -> Violation | None:
    """A Violation, or None exactly when WeightPair takes the pair."""
    return _entered_violation(("w_left", "w_right"), w_left, w_right, False)


def normalize_pair(x: float, y: float,
                   squared: bool) -> tuple[float, float, float]:
    """Validate a raw pair and rescale it to unit norm or unit sum.

    squared=True treats (x, y) as amplitudes (unit squared norm, band
    AMPLITUDE_NORM_TOL), squared=False as weights (unit sum, band
    WEIGHT_SUM_TOL). Returns the rescaled pair and the signed correction
    (norm or sum minus 1). Raises OutOfRangeError or NormalizationError with
    the messages of validate_amplitudes / validate_weights.
    """
    violation = _violation(x, y, squared)
    if violation is not None:
        raise _error(violation)
    x = 0.0 if x < 0.0 else x
    y = 0.0 if y < 0.0 else y
    total = math.sqrt(x * x + y * y) if squared else x + y
    return x / total, y / total, total - 1.0


def _normalize_fields(pair, x: str, y: str, correction: str,
                      squared: bool) -> None:
    """The constructors' rule: raise what `_entered_violation` finds in
    fields x and y of a new frozen pair, else rescale them in place through
    normalize_pair and store the correction in `correction`."""
    raw = getattr(pair, x), getattr(pair, y)
    violation = _entered_violation((x, y), *raw, squared)
    if violation is not None:
        raise _error(violation)
    values = normalize_pair(float(raw[0]), float(raw[1]), squared)
    for name, value in zip((x, y, correction), values):
        _set(pair, name, value)


@dataclass(frozen=True, slots=True)
class AmplitudePair:
    """Superposition coefficients (reflected, passing) of the photon state.

    Both components live in [0, 1] and satisfy a_left^2 + b_right^2 = 1
    after construction. `norm_correction` records the signed deviation of
    the raw input norm from 1.
    """

    a_left: float
    b_right: float
    norm_correction: float = field(init=False, repr=False, compare=False,
                                   default=0.0)

    def __post_init__(self) -> None:
        _normalize_fields(self, "a_left", "b_right", "norm_correction", True)


@dataclass(frozen=True, slots=True)
class WeightPair:
    """Classical statistical weights (left loop, right loop), summing to 1."""

    w_left: float
    w_right: float
    sum_correction: float = field(init=False, repr=False, compare=False,
                                  default=0.0)

    def __post_init__(self) -> None:
        _normalize_fields(self, "w_left", "w_right", "sum_correction", False)


@dataclass(frozen=True)
class SplitterCoefficients:
    """Beam-splitter amplitudes: a1 reflects (left), b1 passes (right).

    Same validation and renormalization rules as AmplitudePair. The squared
    coefficients are the per-pass reflection and transmission probabilities.
    """

    a1: float
    b1: float
    norm_correction: float = field(init=False, repr=False, compare=False,
                                   default=0.0)

    def __post_init__(self) -> None:
        _normalize_fields(self, "a1", "b1", "norm_correction", True)

    @property
    def a1_squared(self) -> float:
        return self.a1 * self.a1

    @property
    def b1_squared(self) -> float:
        return self.b1 * self.b1

    @classmethod
    def from_reflectance(cls, a1_squared: float) -> "SplitterCoefficients":
        """Build from the reflection probability a1^2 in [0, 1]."""
        a1_squared = _check_unit("a1_squared", a1_squared)
        return cls(math.sqrt(a1_squared), math.sqrt(1.0 - a1_squared))


def amplitudes_from_left_weight(w_left: float) -> AmplitudePair:
    """Amplitude pair (sqrt(w), sqrt(1 - w)) carrying weight w on the left."""
    w_left = _check_unit("w_left", w_left)
    return AmplitudePair(math.sqrt(w_left), math.sqrt(1.0 - w_left))


def _state_from_left_weight(mode: InteractionMode,
                            w_left: float) -> AmplitudePair | WeightPair:
    """The state of the given mode that carries weight w_left on the left."""
    if mode is InteractionMode.FIXED_SPLITTER:
        return amplitudes_from_left_weight(w_left)
    return WeightPair(w_left, 1.0 - w_left)


def weights_of(state: AmplitudePair | WeightPair) -> WeightPair:
    """Statistical weights of a state of either mode: a weight pair as it
    is, an amplitude pair's (a_left^2, b_right^2) through normalize_pair."""
    if isinstance(state, WeightPair):
        return state
    if not isinstance(state, AmplitudePair):
        raise ModeMismatchError("state must be an AmplitudePair or a "
                                f"WeightPair, got {type(state).__name__}")
    a, b = state.a_left, state.b_right
    return weight_pair(*normalize_pair(a * a, b * b, False))


def _setters(cls: type) -> tuple:
    """The setters of a slotted class's slots, in the order of its
    `__slots__`, which a slotted dataclass lists in field order: each stores
    its value on an instance without the frozen dataclass's __setattr__."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


def _filled(cls: type):
    """The maker of a `cls` pair from values normalize_pair has already
    returned, without the __post_init__ that would validate and rescale
    them again: a bare instance filled through its three slots' setters."""
    set_x, set_y, set_correction = _setters(cls)

    def make(x: float, y: float, correction: float):
        pair = _new(cls)
        set_x(pair, x)
        set_y(pair, y)
        set_correction(pair, correction)
        return pair
    return make


amplitude_pair = _filled(AmplitudePair)
weight_pair = _filled(WeightPair)
