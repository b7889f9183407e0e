"""Asymptotic training error and coefficient norm of the ridge estimator.

Both quantities are reported per unit of total target power
(F1^2 + Fstar^2 + tau^2): L is the fraction of that power left in the
training residual plus penalty (the objective value), and A is the limit of
mu_star^2 ||a_hat||^2 per unit power.  Multiply by the actual total power to
compare against a simulated experiment, or ask the decomposition of
risk.risk_general for train_error and norm_msq of the target itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .risk import TargetSpec, risk_general


@dataclass(frozen=True)
class TrainingAsymptotics:
    """Normalized training objective L and coefficient norm factor A."""

    L: float
    A: float


def training_theory(
    rho: float,
    zeta_sq: float,
    psi1: float,
    psi2: float,
    lambda_bar: float,
) -> TrainingAsymptotics:
    """Training asymptotics at lambda_bar > 0: the training factors of
    risk_general weighted for the unit-power target TargetSpec.unit(rho)."""
    unit = TargetSpec.unit(rho)
    dec = risk_general(zeta_sq, psi1, psi2, lambda_bar)
    return TrainingAsymptotics(L=dec.train_error(unit), A=dec.norm_msq(unit))
