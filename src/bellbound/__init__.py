"""Tight two-qubit Bell-violation bounds, optimal measurements, and
device-independent randomness certification via moment-matrix SDPs."""

from .bell import (
    Behavior,
    BellExpression,
    MeasurementStrategy,
    TightnessReport,
    behavior_from,
    chained,
    chsh,
    classical_bound,
    ebi,
    expectation,
    optimal_measurements,
    seesaw_max_violation,
    tight_bound,
    tightness_check,
    violation_threshold,
)
from .npa import (
    MomentStructure,
    RandomnessPoint,
    build_moment_structure,
    entropy_crossover,
    max_guessing_probability,
    min_entropy_curve,
    tsirelson_bound,
)
from .sdp import SdpProblem, SdpSolution, dual_certificate_check, gram_problem, solve
from .states import (
    CorrelationData,
    TwoQubitState,
    correlation_data,
    pure_state,
    singlet,
    state_from_correlation,
    werner_state,
)

__version__ = "0.1.0"
