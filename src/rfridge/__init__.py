"""Asymptotic risk theory and Monte Carlo simulation for random-features ridge regression.

The package computes the exact proportional-asymptotics test error, training
error, and coefficient norm of ridge-regularized random-features regression,
and simulates the finite-dimensional model to validate those predictions.
"""

__version__ = "0.1.0"

from .activations import (
    Activation,
    DegenerateActivation,
    HermiteStats,
    QuadratureFailure,
    hermite_stats,
    normal_expectation,
)
from .selfconsistent import (
    InvariantViolation,
    NoConvergence,
    RootSelectionAmbiguous,
    SingularDenominator,
    SpectralPoint,
    chi_scalar_oracle,
    fixed_point_map,
    solve_at,
)
from .risk import (
    ChiDisagreement,
    NonUnimodalWarning,
    PhaseQuantities,
    RiskDecomposition,
    TargetSpec,
    ThresholdSingularity,
    optimal_lambda,
    ridgeless_chi,
    risk_general,
    risk_large_sample,
    risk_ridgeless,
    risk_wide,
    theory_columns,
    wide_omega,
    wide_phase,
    wide_risk_in_omega,
)
from .training import TrainingAsymptotics, training_theory
from .simulate import (
    FitResult,
    IllConditionedWarning,
    InsufficientTrials,
    SMALL_TEST_SET,
    SimConfig,
    SmallTestSetWarning,
    TargetKind,
    Trials,
    aggregate,
    build_design,
    nonlinear_power,
    ridge_fit,
    ridge_path,
    run_trial,
    run_trials,
    sample_sphere,
    substream,
)

__all__ = [name for name in dir() if not name.startswith("_")]
