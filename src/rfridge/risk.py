"""Asymptotic test error of ridge-regularized random-features regression.

The prediction risk decomposes (after centering by the unlearnable power) into
a bias factor B and a variance factor V, both rational in chi:

    R = rho/(1+rho) * B + 1/(1+rho) * V,
    test_error = F1^2 * B + (tau^2 + Fstar^2) * V + Fstar^2,

where rho = F1^2 / (Fstar^2 + tau^2) is the effective signal-to-noise ratio.
B = E1/E0 and V = E2/E0 with the polynomials below, chi evaluated at
xi = i sqrt(psi1 psi2 lambda_bar).  Closed forms are provided for the
ridgeless, infinite-width and infinite-sample limits, together with the phase
quantities deciding whether any positive ridge penalty beats lambda = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .selfconsistent import (
    InvariantViolation,
    SpectralParams,
    SpectralPoint,
    chi_scalar_oracle,
    solve_at,
)

INF = float("inf")


class ThresholdSingularity(ArithmeticError):
    """E0 vanished: the decomposition diverges at the interpolation threshold."""


class ChiDisagreement(ArithmeticError):
    """The fixed-point solver and the quartic oracle returned different chi."""


class DenominatorVanishes(ArithmeticError):
    """A closed-form limit hit a vanishing denominator (not expected for lambda_bar > 0)."""


class NonUnimodalWarning(UserWarning):
    """The risk profile showed more than one local minimum in the pre-scan."""


@dataclass(frozen=True)
class TargetSpec:
    """Power split of the regression target.

    f1_sq is the linear signal power, fstar_sq the nonlinear target power
    (unlearnable by this model family in the proportional regime), tau_sq the
    label noise variance.  rho is derived unless supplied, in which case it
    must match the powers.
    """

    f1_sq: float
    fstar_sq: float = 0.0
    tau_sq: float = 0.0
    rho: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        for name in ("f1_sq", "fstar_sq", "tau_sq"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        denom = self.fstar_sq + self.tau_sq
        if denom > 0.0:
            implied = self.f1_sq / denom
        elif self.f1_sq > 0.0:
            implied = INF
        else:
            raise ValueError("target has no power (f1_sq = fstar_sq = tau_sq = 0)")
        if self.rho is None:
            object.__setattr__(self, "rho", implied)
        elif self.rho != implied and abs(self.rho - implied) > 1e-12 * max(1.0, implied):
            raise ValueError(f"rho = {self.rho} inconsistent with powers (implied {implied})")

    @property
    def total_power(self) -> float:
        return self.f1_sq + self.fstar_sq + self.tau_sq


@dataclass(frozen=True)
class RiskDecomposition:
    """Bias factor, variance factor, and their rho-weighted combination.

    risk_R is None for the limit formulas that do not fix rho; use risk_at.
    threshold_singular marks a diverging decomposition (interpolation
    threshold), in which case the factors are +inf rather than a division by
    a vanishing E0.
    """

    bias_B: float
    var_V: float
    risk_R: float | None = None
    threshold_singular: bool = False

    def risk_at(self, rho: float) -> float:
        if not (rho >= 0.0):
            raise ValueError(f"rho must be >= 0 (possibly inf), got {rho}")
        if self.threshold_singular:
            return INF
        if math.isinf(rho):
            return self.bias_B
        return rho / (1.0 + rho) * self.bias_B + 1.0 / (1.0 + rho) * self.var_V

    def test_error(self, target: TargetSpec) -> float:
        """The asymptotic test error (the second formula of the module docstring)."""
        if self.threshold_singular:
            return INF
        return (
            target.f1_sq * self.bias_B
            + (target.tau_sq + target.fstar_sq) * self.var_V
            + target.fstar_sq
        )


@dataclass(frozen=True)
class PhaseQuantities:
    """Boundary data of the optimal-penalty phase plane at given (zeta_sq, psi2, rho).

    lambda_star is the stationarity point of the wide-limit risk reported
    as-is: a positive value means an interior optimal penalty, a non-positive
    value means the optimum sits at the lambda_bar = 0 boundary.  rho_star is
    the signal-to-noise level at which lambda_star changes sign, and
    zeta_star_sq the activation ratio playing the same role at fixed rho.
    """

    omega0: float
    omega1: float
    rho_star: float
    zeta_star_sq: float
    lambda_star: float


def _horner(coeffs, x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _e0_coeffs(zeta_sq: float, psi1: float, psi2: float) -> tuple[float, ...]:
    """Coefficients of E0, the shared denominator, highest degree in chi first."""
    z = zeta_sq
    z2 = z * z
    z3 = z2 * z
    pp = psi1 * psi2
    return (
        -z3,
        3.0 * z2,
        (pp - psi1 - psi2 + 1.0) * z3 - 2.0 * z2 - 3.0 * z,
        (psi1 + psi2 - 3.0 * pp + 1.0) * z2 + 2.0 * z + 1.0,
        3.0 * pp * z,
        -pp,
    )


def _e_polynomials(chi: float, zeta_sq: float, psi1: float, psi2: float):
    """E0, E1, E2 as Horner evaluations in chi with precomputed zeta_sq powers."""
    z = zeta_sq
    z2 = z * z
    z3 = z2 * z
    pp = psi1 * psi2
    e0 = _horner(_e0_coeffs(z, psi1, psi2), chi)
    e1 = _horner((psi2 * z2, -psi2 * z, pp * z, -pp), chi)
    e2 = _horner(
        (
            z3,
            -3.0 * z2,
            (psi1 - 1.0) * z3 + 2.0 * z2 + 3.0 * z,
            -(psi1 + 1.0) * z2 - 2.0 * z - 1.0,
            0.0,
            0.0,
        ),
        chi,
    )
    return e0, e1, e2


def _e0_vanishes(chi: float, zeta_sq: float, psi1: float, psi2: float) -> bool:
    """Whether E0 is below 1e-12 of the size of its own terms, sum |c_k chi^k|.

    That is the interpolation threshold, where E0 cancels to rounding.  The
    size is E0's own, not that of E1 and E2: all three scale with
    min(psi1, psi2), so an absolute floor would flag well-posed points with a
    tiny shape ratio.
    """
    coeffs = _e0_coeffs(zeta_sq, psi1, psi2)
    size = _horner([abs(c) for c in coeffs], abs(chi))
    return abs(_horner(coeffs, chi)) < 1e-12 * size


def decompose(chi: float, zeta_sq: float, psi1: float, psi2: float, rho=None):
    """B = E1/E0 and V = E2/E0 at a solved chi, with R when rho is given."""
    if _e0_vanishes(chi, zeta_sq, psi1, psi2):
        return RiskDecomposition(INF, INF, INF if rho is not None else None, True)
    e0, e1, e2 = _e_polynomials(chi, zeta_sq, psi1, psi2)
    b, v = e1 / e0, e2 / e0
    r = None
    if rho is not None:
        r = RiskDecomposition(b, v).risk_at(rho)
    return RiskDecomposition(b, v, r)


def theory_point(
    zeta_sq: float,
    psi1: float,
    psi2: float,
    lambda_bar: float,
) -> SpectralPoint:
    """The solved spectral point at xi = i sqrt(psi1 psi2 lambda_bar), lambda_bar > 0.

    Every finite-penalty quantity (B, V, L, A) is a rational function of this
    one point.  solve_at picks the quartic root admissible at the target, and
    chi is cross-checked against the quartic oracle, which instead picks the
    root that continuity from large |xi| reaches: the largest negative
    root, certified by the root branch not turning between it and 0.  A
    disagreement beyond 1e-8 relative to chi is an error, never silently
    reconciled.
    """
    if not (math.isfinite(lambda_bar) and lambda_bar > 0.0):
        raise ValueError(f"lambda_bar must be finite and positive, got {lambda_bar}")
    params = SpectralParams(zeta_sq, psi1, psi2)
    xi = complex(0.0, math.sqrt(psi1 * psi2 * lambda_bar))
    point = solve_at(xi, params)
    chi_or = chi_scalar_oracle(params, lambda_bar)
    if abs(point.chi.real - chi_or) > 1e-8 * abs(chi_or):
        raise ChiDisagreement(
            f"fixed-point chi = {point.chi.real!r} vs quartic-oracle chi = {chi_or!r} "
            f"at (zeta_sq={zeta_sq}, psi1={psi1}, psi2={psi2}, lambda_bar={lambda_bar})"
        )
    return point


def risk_general(
    rho: float,
    zeta_sq: float,
    psi1: float,
    psi2: float,
    lambda_bar: float,
) -> RiskDecomposition:
    """Risk decomposition at finite lambda_bar > 0, from one theory_point."""
    if not (rho >= 0.0):
        raise ValueError(f"rho must be >= 0 (possibly inf), got {rho}")
    point = theory_point(zeta_sq, psi1, psi2, lambda_bar)
    return decompose(point.chi.real, zeta_sq, psi1, psi2, rho)


def test_error(
    target: TargetSpec,
    zeta_sq: float,
    psi1: float,
    psi2: float,
    lambda_bar: float,
) -> float:
    """Asymptotic test error at finite lambda_bar > 0; see RiskDecomposition.test_error."""
    return risk_general(target.rho, zeta_sq, psi1, psi2, lambda_bar).test_error(target)


def ridgeless_chi(zeta_sq: float, psi1: float, psi2: float) -> float:
    """Closed-form chi in the lambda_bar -> 0+ limit; depends on min(psi1, psi2)."""
    psi = min(psi1, psi2)
    z = zeta_sq
    t = psi * z - z - 1.0
    return -(math.sqrt(t * t + 4.0 * z * psi) + t) / (2.0 * z)


def risk_ridgeless(zeta_sq: float, psi1: float, psi2: float) -> RiskDecomposition:
    """Decomposition in the ridgeless limit.

    At psi1 = psi2 the denominator polynomial vanishes identically and both
    factors diverge; that comes back as a threshold_singular result, matching
    the interpolation-threshold blowup.
    """
    chi = ridgeless_chi(zeta_sq, psi1, psi2)
    return decompose(chi, zeta_sq, psi1, psi2)


def wide_omega(zeta_sq: float, psi: float, lambda_bar: float) -> float:
    """Negative root omega of (lb psi + 1) w^2 + (psi z - z - lb psi - 1) w - psi z.

    omega equals zeta_sq * chi in the wide limit; with psi = psi1 in place of
    psi2 the same quadratic drives the large-sample limit.  Strictly
    increasing in lambda_bar (toward 0 from below).
    """
    if not (math.isfinite(lambda_bar) and lambda_bar >= 0.0):
        raise ValueError(f"lambda_bar must be finite and >= 0, got {lambda_bar}")
    z = zeta_sq
    a = lambda_bar * psi + 1.0
    b = psi * z - z - lambda_bar * psi - 1.0
    c = -psi * z
    return (-b - math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


def _wide_denominator(omega: float, psi: float) -> float:
    return (psi - 1.0) * omega**3 + (1.0 - 3.0 * psi) * omega**2 + 3.0 * psi * omega - psi


def risk_wide(zeta_sq: float, psi2: float, lambda_bar: float) -> RiskDecomposition:
    """Decomposition in the infinite-width limit psi1 -> inf, at fixed psi2."""
    omega = wide_omega(zeta_sq, psi2, lambda_bar)
    den = _wide_denominator(omega, psi2)
    num_scale = abs(psi2 * omega - psi2) + abs(omega**3 - omega**2)
    if abs(den) < 1e-12 * (1.0 + num_scale):
        raise DenominatorVanishes(
            f"wide-limit denominator {den} vanished at omega = {omega}"
        )
    return RiskDecomposition((psi2 * omega - psi2) / den, (omega**3 - omega**2) / den)


def risk_large_sample(zeta_sq: float, psi1: float, lambda_bar: float) -> RiskDecomposition:
    """Decomposition in the infinite-sample limit psi2 -> inf, at fixed psi1.

    The variance factor vanishes in this limit; only the bias survives.
    """
    omega = wide_omega(zeta_sq, psi1, lambda_bar)
    den = _wide_denominator(omega, psi1)
    num = (omega**3 - omega**2) / zeta_sq + psi1 * omega - psi1
    if abs(den) < 1e-12 * (1.0 + abs(num)):
        raise DenominatorVanishes(
            f"large-sample denominator {den} vanished at omega = {omega}"
        )
    return RiskDecomposition(num / den, 0.0)


def wide_risk_in_omega(u: float, rho: float, psi2: float) -> float:
    """The wide-limit risk as an explicit function of omega.

    R(omega) = (psi2 rho + u^2) / ((1+rho) (psi2 - 2 u psi2 + u^2 psi2 - u^2))
    with u = omega.  Reparametrizing through omega makes the penalty
    dependence one-dimensional, which is what the phase analysis exploits.
    """
    den = (1.0 + rho) * (psi2 - 2.0 * u * psi2 + u * u * psi2 - u * u)
    return (psi2 * rho + u * u) / den


def wide_phase(zeta_sq: float, psi2: float, rho: float) -> PhaseQuantities:
    """Phase quantities of the wide-limit risk in lambda_bar.

    omega0 is the penalty-free endpoint of the omega path; omega1 the
    stationarity point of the risk profile in omega.  lambda_star maps omega1
    back to a penalty and is reported as-is; it is positive (an interior
    optimum exists) precisely when rho < rho_star, and non-positive (the
    lambda_bar = 0 boundary is optimal) when rho > rho_star.
    """
    if not (math.isfinite(rho) and rho > 0.0):
        raise ValueError(f"rho must be finite and positive, got {rho}")
    z = zeta_sq
    omega0 = wide_omega(z, psi2, 0.0)
    b1 = psi2 * rho - rho - 1.0
    omega1 = -(b1 + math.sqrt(b1 * b1 + 4.0 * psi2 * rho)) / 2.0
    rho_star = (omega0 * omega0 - omega0) / ((1.0 - psi2) * omega0 + psi2)
    zeta_star_sq = (omega1 * omega1 - omega1) / ((1.0 - psi2) * omega1 + psi2)
    lambda_star = (z * psi2 - z * omega1 * psi2 + z * omega1 + omega1 - omega1 * omega1) / (
        (omega1 * omega1 - omega1) * psi2
    )
    # both omegas must re-solve their defining quadratics
    r0 = omega0 * omega0 + (psi2 * z - z - 1.0) * omega0 - psi2 * z
    r1 = omega1 * omega1 + b1 * omega1 - psi2 * rho
    scale = 1.0 + omega0 * omega0 + omega1 * omega1
    if abs(r0) > 1e-10 * scale or abs(r1) > 1e-10 * scale:
        raise InvariantViolation(
            f"phase quadratic residuals too large: {r0:.3e}, {r1:.3e}"
        )
    return PhaseQuantities(omega0, omega1, rho_star, zeta_star_sq, lambda_star)


def optimal_lambda(
    rho: float,
    zeta_sq: float,
    psi1: float,
    psi2: float,
    lambda_max: float,
) -> tuple[float, float]:
    """Minimize the finite-shape risk over lambda_bar in [0, lambda_max].

    The lambda_bar = 0 endpoint is supplied by the ridgeless closed form, the
    interior by risk_general.  A 64-point log pre-scan locates the bracket
    (and warns NonUnimodalWarning if it sees more than one local minimum);
    golden-section search then resolves the minimizer to 1e-6 absolute.
    Returns (lambda_bar_opt, risk_opt).
    """
    if not (math.isfinite(lambda_max) and lambda_max > 0.0):
        raise ValueError(f"lambda_max must be finite and positive, got {lambda_max}")

    def profile(lb: float) -> float:
        if lb <= 0.0:
            return risk_ridgeless(zeta_sq, psi1, psi2).risk_at(rho)
        return risk_general(rho, zeta_sq, psi1, psi2, lb).risk_at(rho)

    grid = np.concatenate(([0.0], np.geomspace(lambda_max * 1e-6, lambda_max, 63)))
    values = [profile(lb) for lb in grid]
    n_minima = sum(
        1
        for i in range(len(grid))
        if (i == 0 or values[i] < values[i - 1])
        and (i == len(grid) - 1 or values[i] < values[i + 1])
    )
    if n_minima > 1:
        warnings.warn(
            f"risk profile has {n_minima} local minima on the pre-scan grid; "
            "the reported optimum is the best bracket only",
            NonUnimodalWarning,
            stacklevel=2,
        )
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = profile(x1), profile(x2)
    while b - a > 1e-6:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = profile(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = profile(x2)
    candidates = [(grid[best], values[best]), (x1, f1), (x2, f2)]
    lb_opt, r_opt = min(candidates, key=lambda t: t[1])
    return float(lb_opt), float(r_opt)
