"""Deterministic dynamics of a photon bouncing between two fiber loops.

A beam splitter couples a left and a right loop; each pass applies one of
six step maps (two interaction modes at the splitter, three topologies of
the fibers behind it). The package simulates trajectories bit for bit,
classifies fixed points, measures convergence, and cross-checks the
movable-splitter dynamics against a seeded stochastic ensemble.

The Monte Carlo names load `montecarlo`, and numpy with it, on first
access, so a process that never samples never imports numpy.
"""

import importlib

from .analysis import (ReferenceReport, SequenceComparison, SpeedComparison,
                       SweepCell, SweepResult, compare_modes,
                       convergence_order, reference_sequences,
                       sweep_initial_conditions)
from .errors import (DegenerateInitialError, InvalidStepError,
                     LengthMismatchError, ModeMismatchError,
                     NormalizationError, NumericDomainError, OutOfRangeError,
                     ScheduleConflictError, SplitLoopError,
                     UnsupportedModeError)
from .maps import (FixedPoint, Stability, StepMap, closed_form_measure,
                   closed_form_measure_both, closed_form_measure_right_half,
                   fixed_points, induced_weight_map, map_derivative,
                   stable_fixed_point, step_measure_both,
                   step_measure_left_half, step_measure_right_half,
                   step_unitary_both, step_unitary_left_half,
                   step_unitary_right_half)
from .states import (AMPLITUDE_NORM_TOL, WEIGHT_SUM_TOL, AmplitudePair,
                     InteractionMode, SplitterCoefficients, Topology,
                     Violation, WeightPair, amplitudes_from_left_weight,
                     validate_amplitudes, validate_weights, weights_of)
from .trajectory import (ConvergenceCriterion, NotConverged, Scenario,
                         StepSchedule, Trajectory, TrajectoryRecord,
                         converging_record, iterate, run_switching_experiment,
                         steps_to_converge)

__version__ = "0.1.0"


# The names of __all__ that no import above binds are served by
# `montecarlo`, which loads on first access (PEP 562).
def __getattr__(name: str):
    if name != "montecarlo" and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not `from . import montecarlo`: that looks the submodule up on this
    # package first, which would come back here
    montecarlo = importlib.import_module(f"{__name__}.montecarlo")
    return montecarlo if name == "montecarlo" else getattr(montecarlo, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__) | {"montecarlo"})

__all__ = [
    "AMPLITUDE_NORM_TOL",
    "AmplitudePair",
    "ConvergenceCriterion",
    "DegenerateInitialError",
    "EnsembleEstimate",
    "FixedPoint",
    "GENERATOR_NAME",
    "InteractionMode",
    "InvalidStepError",
    "LengthMismatchError",
    "ModeMismatchError",
    "NormalizationError",
    "NotConverged",
    "NumericDomainError",
    "OutOfRangeError",
    "PhotonPath",
    "ReferenceReport",
    "Scenario",
    "ScheduleConflictError",
    "SequenceComparison",
    "Side",
    "SpeedComparison",
    "SplitLoopError",
    "SplitterCoefficients",
    "Stability",
    "StepAgreement",
    "StepMap",
    "StepSchedule",
    "SweepCell",
    "SweepResult",
    "Topology",
    "Trajectory",
    "TrajectoryRecord",
    "UnsupportedModeError",
    "Violation",
    "WEIGHT_SUM_TOL",
    "WeightPair",
    "agreement_report",
    "amplitudes_from_left_weight",
    "closed_form_measure",
    "closed_form_measure_both",
    "closed_form_measure_right_half",
    "compare_modes",
    "converging_record",
    "convergence_order",
    "ensemble_frequencies",
    "fixed_points",
    "induced_weight_map",
    "iterate",
    "map_derivative",
    "reference_sequences",
    "run_switching_experiment",
    "sample_path",
    "stable_fixed_point",
    "step_measure_both",
    "step_measure_left_half",
    "step_measure_right_half",
    "step_unitary_both",
    "step_unitary_left_half",
    "step_unitary_right_half",
    "steps_to_converge",
    "sweep_initial_conditions",
    "validate_amplitudes",
    "validate_weights",
    "weights_of",
    "__version__",
]
