"""Asymptotic training error and coefficient norm of the ridge estimator.

Both quantities are reported per unit of total target power
(F1^2 + Fstar^2 + tau^2): L is the fraction of that power left in the
training residual plus penalty (the objective value), and A is the limit of
mu_star^2 ||a_hat||^2 per unit power.  Multiply by the actual total power to
compare against a simulated experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .risk import ThresholdSingularity, _e0_vanishes, _e_polynomials, theory_point
from .selfconsistent import InvariantViolation, SpectralPoint


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
    """Training asymptotics at lambda_bar > 0, from one cross-checked theory_point."""
    if not (rho >= 0.0):
        raise ValueError(f"rho must be >= 0 (possibly inf), got {rho}")
    point = theory_point(zeta_sq, psi1, psi2, lambda_bar)
    return training_at(point, rho, zeta_sq, psi1, psi2, lambda_bar)


def training_at(
    point: SpectralPoint, rho: float, zeta_sq: float, psi1: float, psi2: float, lambda_bar: float
) -> TrainingAsymptotics:
    """Training asymptotics from the point solved at xi = i sqrt(psi1 psi2 lambda_bar).

    With nu2 and chi of that point,

        L = (-i nu2) sqrt(lambda_bar psi1 / psi2)
            * [rho/(1+rho) / (1 - chi zeta^2) + 1/(1+rho)],
        A = A1(chi) / E0(chi),

    where A1 combines a signal and a noise polynomial with the same rho
    weights and E0 is the shared denominator of the risk decomposition.
    nu2 must come out purely imaginary before -i nu2 is taken.
    """
    nu2 = point.nu2
    if abs(nu2.real) > 1e-10 * (1.0 + abs(nu2)):
        raise InvariantViolation(f"nu2 = {nu2} is not purely imaginary at xi = {point.xi}")
    chi = point.chi.real

    if math.isinf(rho):
        w_signal, w_noise = 1.0, 0.0
    else:
        w_signal, w_noise = rho / (1.0 + rho), 1.0 / (1.0 + rho)

    z = zeta_sq
    z2 = z * z
    minus_i_nu2 = nu2.imag  # = Re(-i nu2), the mass scale of the residual
    L = (
        minus_i_nu2
        * math.sqrt(lambda_bar * psi1 / psi2)
        * (w_signal / (1.0 - chi * z) + w_noise)
    )

    a1 = w_signal * (
        -(chi * chi) * (chi * z2 - chi * z + psi2 * z + z - chi * psi2 * z2 + 1.0)
    ) + w_noise * (
        chi * chi * (chi * z - 1.0) * (chi * chi * z2 - 2.0 * chi * z + z + 1.0)
    )
    a0 = _e_polynomials(chi, z, psi1, psi2)[0]
    if _e0_vanishes(chi, z, psi1, psi2):
        raise ThresholdSingularity(
            f"norm denominator vanished (a0 = {a0}) at psi1={psi1}, psi2={psi2}, "
            f"lambda_bar={lambda_bar}"
        )
    A = a1 / a0

    if L < -1e-10 or A < -1e-10:
        raise InvariantViolation(f"negative training asymptotics: L={L}, A={A}")
    return TrainingAsymptotics(L=max(L, 0.0), A=max(A, 0.0))
