"""Asymptotic test error, training error and coefficient norm of random-features ridge regression.

Every quantity at a solved chi is a signal factor weighted by F1^2 plus a
noise factor weighted by tau^2 + Fstar^2.  For the prediction risk the
factors are the bias B and the variance V:

    test_error = F1^2 * B + (tau^2 + Fstar^2) * V + Fstar^2,
    R = rho/(1+rho) * B + 1/(1+rho) * V,

where rho = F1^2 / (Fstar^2 + tau^2) is the effective signal-to-noise ratio,
so R is the test error of a unit-power target without Fstar^2.
B = E1/E0 and V = E2/E0 with the polynomials below, chi evaluated at
xi = i sqrt(psi1 psi2 lambda_bar).  The training objective and the
coefficient norm split the same way, without the Fstar^2 offset.  Closed
forms are provided for the ridgeless, infinite-width and infinite-sample
limits, together with the phase quantities deciding whether any positive
ridge penalty beats lambda = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .selfconsistent import (
    InvariantViolation,
    _AxisBatch,
    _distinct,
    _overflow,
    _polish,
    _quartic_coeffs,
    _refuse,
    _stacked_roots,
    attempt,
    require_positive,
)

INF = float("inf")
NAN = float("nan")


class ThresholdSingularity(ArithmeticError):
    """E0 vanished: the decomposition diverges at the interpolation threshold."""


class ChiDisagreement(ArithmeticError):
    """The fixed-point solver and the quartic oracle returned different chi."""


class NonUnimodalWarning(UserWarning):
    """The risk profile has more than one local minimum on [0, lambda_max]."""


@dataclass(frozen=True)
class TargetSpec:
    """Power split of the regression target.

    f1_sq is the linear signal power, fstar_sq the nonlinear target power
    (unlearnable by this model family in the proportional regime), tau_sq the
    label noise variance.
    """

    f1_sq: float
    fstar_sq: float = 0.0
    tau_sq: float = 0.0

    def __post_init__(self):
        for name in ("f1_sq", "fstar_sq", "tau_sq"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.total_power == 0.0:
            raise ValueError("target has no power (f1_sq = fstar_sq = tau_sq = 0)")

    @classmethod
    def unit(cls, rho: float) -> "TargetSpec":
        """The target without Fstar^2 whose signal-to-noise ratio is rho (possibly inf)
        and whose total power is 1: F1^2 = rho/(1+rho), tau^2 = 1/(1+rho)."""
        if not (rho >= 0.0):
            raise ValueError(f"rho must be >= 0 (possibly inf), got {rho}")
        if math.isinf(rho):
            return cls(1.0)
        return cls(rho / (1.0 + rho), tau_sq=1.0 / (1.0 + rho))

    @property
    def rho(self) -> float:
        """The signal-to-noise ratio F1^2 / (Fstar^2 + tau^2), inf without noise."""
        denom = self.fstar_sq + self.tau_sq
        return self.f1_sq / denom if denom > 0.0 else INF

    @property
    def total_power(self) -> float:
        return self.f1_sq + self.fstar_sq + self.tau_sq

    def weigh(self, signal: float, noise: float) -> float:
        """F1^2 * signal + (tau^2 + Fstar^2) * noise."""
        return self.f1_sq * signal + (self.tau_sq + self.fstar_sq) * noise


@dataclass(frozen=True)
class RiskDecomposition:
    """Signal and noise factors of every asymptotic quantity at one solved chi.

    bias_B and var_V are those of the test error, train_signal and
    train_noise those of the training objective (residual plus penalty), and
    norm_signal and norm_noise those of mu_star^2 ||a_hat||^2.  The
    closed-form limits carry no training factors (nan).  threshold_singular
    marks a diverging decomposition (interpolation threshold): B and V are
    +inf rather than a division by a vanishing E0, and the training error
    and norm raise ThresholdSingularity.
    """

    bias_B: float
    var_V: float
    train_signal: float
    train_noise: float
    norm_signal: float
    norm_noise: float
    threshold_singular: bool = False

    def risk_at(self, rho: float) -> float:
        """R, the test error of the unit-power target TargetSpec.unit(rho)."""
        return self.test_error(TargetSpec.unit(rho))

    def test_error(self, target: TargetSpec) -> float:
        """The asymptotic test error (_test_errors)."""
        return float(_test_errors(target, self.bias_B, self.var_V, self.threshold_singular))

    def train_error(self, target: TargetSpec) -> float:
        """The asymptotic training objective, residual plus penalty, per sample."""
        self._require_finite()
        return target.weigh(self.train_signal, self.train_noise)

    def norm_msq(self, target: TargetSpec) -> float:
        """The limit of mu_star^2 ||a_hat||^2."""
        self._require_finite()
        return target.weigh(self.norm_signal, self.norm_noise)

    def _require_finite(self):
        if self.threshold_singular:
            raise ThresholdSingularity(
                "E0 vanished: the training error and norm diverge at the interpolation threshold"
            )


# the decomposition where E0 vanishes: B and V diverge, no training factors
_AT_THRESHOLD = RiskDecomposition(INF, INF, NAN, NAN, NAN, NAN, True)


def _test_errors(target: TargetSpec, bias, var, threshold) -> np.ndarray:
    """The test error (the first formula of the module docstring) of B and V,
    inf where threshold holds, elementwise."""
    with np.errstate(invalid="ignore"):
        return np.where(threshold, INF, target.weigh(bias, var) + target.fstar_sq)


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


def _e_coeffs(zeta_sq: float, psi1: float, psi2: float) -> tuple[tuple, tuple]:
    """Coefficients of E1 and E2, the numerators of B and V, highest degree in
    chi first."""
    z = zeta_sq
    z2 = z * z
    z3 = z2 * z
    pp = psi1 * psi2
    e1 = (psi2 * z2, -psi2 * z, pp * z, -pp)
    e2 = (
        z3,
        -3.0 * z2,
        (psi1 - 1.0) * z3 + 2.0 * z2 + 3.0 * z,
        -(psi1 + 1.0) * z2 - 2.0 * z - 1.0,
        0.0,
        0.0,
    )
    return e1, e2


def _e_polynomials(chi: float, zeta_sq: float, psi1: float, psi2: float):
    """E0, E1, E2 as Horner evaluations in chi, and the size of E0's own terms,
    sum |c_k chi^k| (_e0_vanishes), all elementwise over arrays."""
    coeffs = _e0_coeffs(zeta_sq, psi1, psi2)
    e1, e2 = _e_coeffs(zeta_sq, psi1, psi2)
    return (
        _horner(coeffs, chi),
        _horner(e1, chi),
        _horner(e2, chi),
        _horner([abs(c) for c in coeffs], abs(chi)),
    )


def _e0_vanishes(e0, size):
    """Whether E0 = e0 is at most 1e-12 of the size of its own terms, both
    finite, elementwise.

    That is the interpolation threshold, where E0 cancels to rounding.  The
    size is E0's own, not that of E1 and E2: all three scale with
    min(psi1, psi2), so an absolute floor would flag well-posed points with a
    tiny shape ratio.  Where E0 or its size is not finite, E0's terms have
    overflowed and nothing is known of the cancellation: that is no threshold.
    """
    return np.isfinite(e0) & np.isfinite(size) & (abs(e0) <= 1e-12 * size)


class _FactorColumns:
    """RiskDecomposition's six factors at chi as columns, rows x 6 (B, V inf
    and the rest nan where E0 vanished: threshold), and errors, {row:
    exception}: those given, else, off the threshold, the row's overflow
    (_overflow) where E0, E1, E2 or a factor is not finite, else its negative
    training factors.  m = (-i nu2) sqrt(lambda_bar psi1 / psi2) is the
    residual's mass (risk_general); without it (None), as in the ridgeless
    limit, the training factors are nan and go unchecked."""

    def __init__(self, chi, m, z, psi1, psi2, rows: list[tuple], errors: dict):
        self.chi = chi
        with np.errstate(all="ignore"):
            e0, e1, e2, size = _e_polynomials(chi, z, psi1, psi2)
            self.threshold = _e0_vanishes(e0, size)
            z2 = z * z
            a_signal = -(chi * chi) * (chi * z2 - chi * z + psi2 * z + z - chi * psi2 * z2 + 1.0)
            a_noise = chi * chi * (chi * z - 1.0) * (chi * chi * z2 - 2.0 * chi * z + z + 1.0)
            parts = (np.full((len(chi), 4), NAN) if m is None else
                     np.array([m / (1.0 - chi * z), m, a_signal / e0, a_noise / e0]).T)
            self.factors = np.column_stack([e1 / e0, e2 / e0, np.where(0.0 > parts, 0.0, parts)])
        self.factors[self.threshold] = INF, INF, NAN, NAN, NAN, NAN
        # without m there are no training factors to check
        checked = np.column_stack([e0, e1, e2, self.factors])[:, :5 if m is None else None]
        overflowed = ~self.threshold & ~np.isfinite(checked).all(axis=1)
        # min(parts) < -1e-10, where a nan first part hides the others
        negative = ~self.threshold & ~np.isnan(parts[:, 0]) & (parts < -1e-10).any(axis=1)

        def refusal(k):
            if overflowed[k]:
                named = dict(zip(("zeta_sq", "psi1", "psi2", "lambda_bar"), rows[k]))
                return _overflow(f"the decomposition at chi = {chi[k].item()!r}", **named)
            return InvariantViolation(
                f"negative training factors {tuple(parts[k].tolist())} at "
                f"psi1={rows[k][1]}, psi2={rows[k][2]}, lambda_bar={rows[k][3]}")

        self.errors = _refuse(dict(errors), np.flatnonzero(overflowed | negative).tolist(), refusal)

    def decomposition(self, k: int) -> RiskDecomposition:
        """Row k's RiskDecomposition; raises the row's error."""
        if k in self.errors:
            raise self.errors[k]
        if self.threshold[k]:
            return _AT_THRESHOLD
        return RiskDecomposition(*self.factors[k].tolist())


class _RiskColumns(_FactorColumns):
    """risk_general over (zeta_sq, psi1, psi2, lambda_bar) rows, as columns:
    solve (selfconsistent._AxisBatch) and _FactorColumns at its chi and
    training mass.  point_errors holds each row's error of the solved point,
    {row: exception}: the solve's, else the oracle's, else the 1e-8
    cross-check's; errors adds the decomposition's (_FactorColumns)."""

    def __init__(self, rows: list[tuple]):
        self.solve = solve = _AxisBatch(rows)
        chi, oracle = solve.chi, solve.oracle
        z, psi1, psi2, lambda_bar = solve.values.T
        # a failing row's columns mean nothing and must not warn
        with np.errstate(all="ignore"):
            apart = np.abs(chi - oracle) > 1e-8 * np.abs(oracle)
            m = solve.t2 * np.sqrt(lambda_bar * psi1 / psi2)
        # a row's solve error comes before its oracle's, and both before the cross-check's
        self.point_errors = _refuse(dict(solve.point_errors), solve.chi_errors, solve.chi_errors.get)
        _refuse(self.point_errors, np.flatnonzero(apart).tolist(), lambda k: ChiDisagreement(
            f"fixed-point chi = {chi[k].item()!r} vs quartic-oracle chi = "
            f"{oracle[k].item()!r} at (zeta_sq={rows[k][0]}, psi1={rows[k][1]}, "
            f"psi2={rows[k][2]}, lambda_bar={rows[k][3]})"))
        super().__init__(chi, m, z, psi1, psi2, rows, self.point_errors)


def risk_general(
    zeta_sq: float,
    psi1: float,
    psi2: float,
    lambda_bar: float,
) -> RiskDecomposition:
    """The decomposition at finite lambda_bar > 0, training factors included,
    from the point solve_at finds at xi = i sqrt(psi1 psi2 lambda_bar).

    chi is cross-checked against the quartic oracle, which instead picks the
    root that continuity from large |xi| reaches: the largest negative root,
    certified by the root branch not turning between it and 0.  A
    disagreement beyond 1e-8 relative to chi is an error (ChiDisagreement),
    never silently reconciled.

    With nu2 and chi of that point and m = (-i nu2) sqrt(lambda_bar psi1 / psi2),
    the mass scale of the residual,

        train_signal = m / (1 - chi zeta^2),   train_noise = m,
        norm_signal = A_signal(chi) / E0(chi), norm_noise = A_noise(chi) / E0(chi),

    with the two numerator polynomials of _FactorColumns and E0 the shared
    denominator.  solve_at has checked that nu2 is purely imaginary.
    This is row 0 of a batch of one (_RiskColumns).
    """
    return _RiskColumns([(zeta_sq, psi1, psi2, lambda_bar)]).decomposition(0)


def ridgeless_chi(zeta_sq: float, psi1: float, psi2: float) -> float:
    """Closed-form chi in the lambda_bar -> 0+ limit; depends on min(psi1, psi2)."""
    require_positive(zeta_sq=zeta_sq, psi1=psi1, psi2=psi2)
    return float(_ridgeless_chi(zeta_sq, psi1, psi2))


@np.errstate(all="ignore")
def _negative_root(a, b, c):
    """The negative root of a w^2 + b w + c, a > 0 > c, elementwise: 2c / (sqrt(D) - b)
    where b < 0, since -b - sqrt(D) cancels there once 4ac is small next to b^2, and
    (-b - sqrt(D)) / 2a where b >= 0 or D = b^2 - 4ac overflows (a root of -inf, refused)."""
    d = np.sqrt(b * b - 4.0 * a * c)
    return np.where((b < 0.0) & (d < INF), 2.0 * c / (d - b), (-b - d) / (2.0 * a))


@np.errstate(all="ignore")
def _ridgeless_chi(zeta_sq, psi1, psi2):
    """ridgeless_chi elementwise, without its validation: the negative root of
    zeta_sq chi^2 + (psi zeta_sq - zeta_sq - 1) chi - psi, psi = min(psi1, psi2)."""
    psi = np.minimum(psi1, psi2)
    return _negative_root(zeta_sq, psi * zeta_sq - zeta_sq - 1.0, -psi)


@np.errstate(all="ignore")
def _lambda_bar(chi, zeta_sq, psi1, psi2):
    """The penalty at which a real chi < 0 solves the quartic, elementwise.

    On the axis the quartic reads N(chi) + u^2 D(chi) = 0, with N the quartic
    at u = 0 (_quartic_coeffs) and D = chi (1 - zeta^2 chi)^2, so with
    u^2 = psi1 psi2 lambda_bar the penalty is -N(chi) / (D(chi) psi1 psi2):
    the oracle's g(chi) over psi1 psi2 (selfconsistent.chi_scalar_oracle).
    """
    n = _horner(np.moveaxis(_quartic_coeffs(zeta_sq, psi1, psi2, 0.0), -1, 0), chi)
    return -n / (chi * (1.0 - zeta_sq * chi) ** 2 * psi1 * psi2)


def risk_ridgeless(zeta_sq: float, psi1: float, psi2: float) -> RiskDecomposition:
    """Decomposition in the ridgeless limit, a batch of one (_ridgeless_columns).

    At psi1 = psi2 the denominator polynomial vanishes identically and both
    factors diverge; that comes back as a threshold_singular result, matching
    the interpolation-threshold blowup.
    """
    return _ridgeless_columns([(zeta_sq, psi1, psi2)]).decomposition(0)


def _ridgeless_columns(rows: list[tuple]) -> _FactorColumns:
    """_FactorColumns at ridgeless_chi, without a training mass, over
    (zeta_sq, psi1, psi2) rows; a row's validation error (ridgeless_chi's) comes first."""
    values = np.array(rows, dtype=float).reshape(-1, 3)
    invalid = ~(np.isfinite(values) & (values > 0.0)).all(axis=1)
    rejected = {k: attempt(ridgeless_chi, *rows[k]) for k in np.flatnonzero(invalid).tolist()}
    return _FactorColumns(_ridgeless_chi(*values.T), None, *values.T, rows, rejected)


def wide_omega(zeta_sq: float, psi: float, lambda_bar: float) -> float:
    """Negative root omega of (lb psi + 1) w^2 + (psi z - z - lb psi - 1) w - psi z.

    omega equals zeta_sq * chi in the wide limit; with psi = psi1 in place of
    psi2 the same quadratic drives the large-sample limit.  Strictly
    increasing in lambda_bar (toward 0 from below).
    """
    require_positive(zeta_sq=zeta_sq, psi=psi)
    if not (math.isfinite(lambda_bar) and lambda_bar >= 0.0):
        raise ValueError(f"lambda_bar must be finite and >= 0, got {lambda_bar}")
    z = zeta_sq
    a = lambda_bar * psi + 1.0
    b = psi * z - z - lambda_bar * psi - 1.0
    return float(_negative_root(a, b, -psi * z))


def risk_wide(zeta_sq: float, psi2: float, lambda_bar: float) -> RiskDecomposition:
    """Decomposition in the infinite-width limit psi1 -> inf, at fixed psi2
    (_limit_decomposition)."""
    return _limit_decomposition(True, zeta_sq, psi2, lambda_bar)


def risk_large_sample(zeta_sq: float, psi1: float, lambda_bar: float) -> RiskDecomposition:
    """Decomposition in the infinite-sample limit psi2 -> inf, at fixed psi1
    (_limit_decomposition), where only the bias survives."""
    return _limit_decomposition(False, zeta_sq, psi1, lambda_bar)


def _limit_decomposition(wide: bool, zeta_sq: float, psi: float, lambda_bar: float):
    """The wide limit's decomposition at psi = psi2, or else the large-sample
    limit's at psi = psi1.  Over omega = wide_omega, one denominator den and
    c = omega^3 - omega^2, B = (psi omega - psi) / den and V = c / den in the
    wide limit, B = (c / zeta^2 + psi omega - psi) / den and V = 0 in the
    large-sample limit.  Where den or a numerator is not finite, or a Python
    float power overflows, a ValueError names the row (_overflow).  A V whose
    cubic underflows to 0 is +0.0, not the -0.0 of +0 over a negative den.

    den never vanishes.  With a = -omega > 0, omega's quadratic reads
    (lambda_bar psi + 1) a (a + 1) = zeta^2 (psi (1 + a) - a) > 0, so
    x = a / (1 + a) < min(psi, 1), x^2 < psi and den = (1 + a)^3 (x^2 - psi) < 0;
    on seeded rows |den| stays above 0.3 of the sum of its terms' sizes."""
    name, label = ("psi2", "wide-limit") if wide else ("psi1", "large-sample")
    require_positive(**{"zeta_sq": zeta_sq, name: psi})
    omega = wide_omega(zeta_sq, psi, lambda_bar)
    try:
        den = (psi - 1.0) * omega**3 + (1.0 - 3.0 * psi) * omega**2 + 3.0 * psi * omega - psi
        cubic = omega**3 - omega**2
    except OverflowError:
        den = cubic = NAN
    bias_num = psi * omega - psi if wide else cubic / zeta_sq + psi * omega - psi
    if not all(map(math.isfinite, (den, bias_num, cubic))):
        raise _overflow(f"the {label} decomposition",
                        **{"zeta_sq": zeta_sq, name: psi, "lambda_bar": lambda_bar})
    return RiskDecomposition(bias_num / den, cubic / den + 0.0 if wide else 0.0,
                             NAN, NAN, NAN, NAN)


def theory_columns(variant, zeta_sq, psi1, psi2, lambda_bar, rho,
                   powers: TargetSpec | None = None) -> tuple[dict, dict]:
    """The theory columns of a table of rows, and each failing row's error as
    {row: exception}.

    Each argument holds one entry per row, nan where the row's variant does
    not use it.  variant names the row's formula, and an unknown name is
    refused before any row is computed.  The "general" rows are risk_general's,
    solved in one batch (_RiskColumns), and the "ridgeless" rows
    risk_ridgeless' closed form, one batch of the same evaluator
    (_FactorColumns); a "wide" or "lsamp" row is risk_wide's or
    risk_large_sample's scalar closed form.  The closed forms have no
    training factors.  The columns, numpy arrays by name, are bias_B and
    var_V; risk_R, the test error of TargetSpec.unit(rho), weighed once per
    distinct rho, where any rho is not nan; and with powers test_error,
    train_error and norm_msq, weighed once with them.  A row's error is its
    variant's, else its rho's, else, with powers, a general threshold row's
    ThresholdSingularity; a failing row's cells mean nothing.
    """
    variant = np.asarray(variant, dtype=str)
    known = np.isin(variant, ["general", "ridgeless", "wide", "lsamp"])
    if not known.all():
        raise ValueError(f"unknown theory variant {variant[~known][0].item()!r}")
    table = np.array([zeta_sq, psi1, psi2, lambda_bar], dtype=float).T.tolist()
    # RiskDecomposition's six factors per row; a closed form has no training factors
    factors = np.full((len(variant), 6), NAN)
    threshold = np.zeros(len(variant), dtype=bool)
    errors = {}
    for name, build, width in (("general", _RiskColumns, 4), ("ridgeless", _ridgeless_columns, 3)):
        rows = np.flatnonzero(variant == name).tolist()
        if rows:
            batch = build([table[k][:width] for k in rows])
            factors[rows], threshold[rows] = batch.factors, batch.threshold
            errors.update((rows[j], error) for j, error in batch.errors.items())
    # a wide or large-sample row is its closed form's scalar call
    for k in np.flatnonzero((variant == "wide") | (variant == "lsamp")).tolist():
        z, p1, p2, lb = table[k]
        wide = variant[k] == "wide"
        dec = attempt(_limit_decomposition, wide, z, p2 if wide else p1, lb)
        if isinstance(dec, Exception):
            errors[k] = dec
        else:
            factors[k, :2] = dec.bias_B, dec.var_V
    bias, var = factors[:, 0], factors[:, 1]
    columns = {"bias_B": bias, "var_V": var}
    rho = np.asarray(rho, dtype=float)
    if not np.isnan(rho).all():
        columns["risk_R"] = risk_R = np.full(len(variant), NAN)
        for value in set(rho[~np.isnan(rho)].tolist()):
            rows, unit = rho == value, attempt(TargetSpec.unit, value)
            if isinstance(unit, Exception):
                _refuse(errors, np.flatnonzero(rows).tolist(), lambda k: unit)
            else:
                risk_R[rows] = _test_errors(unit, bias[rows], var[rows], threshold[rows])
    if powers is not None:
        _refuse(errors, np.flatnonzero(threshold & (variant == "general")).tolist(),
                lambda k: attempt(_AT_THRESHOLD.train_error, powers))
        columns["test_error"] = _test_errors(powers, bias, var, threshold)
        columns["train_error"] = powers.weigh(factors[:, 2], factors[:, 3])
        columns["norm_msq"] = powers.weigh(factors[:, 4], factors[:, 5])
    return columns, errors


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
    lambda_bar = 0 boundary is optimal) when rho > rho_star.  Where any of
    the five is not finite, a ValueError names the row (_overflow).
    """
    require_positive(zeta_sq=zeta_sq, psi2=psi2, rho=rho)
    z = zeta_sq
    omega0 = wide_omega(z, psi2, 0.0)
    omega1 = wide_omega(rho, psi2, 0.0)
    # omega (omega - 1) = s ((1 - psi2) omega + psi2) holds at s = zeta_sq for
    # omega0 and at s = rho for omega1, so each quantity is exact in the inputs
    rho_star, zeta_star_sq = float(z), float(rho)
    lambda_star = (z - rho) / (rho * psi2)
    if not all(map(math.isfinite, (omega0, omega1, rho_star, zeta_star_sq, lambda_star))):
        raise _overflow("the phase quantities", zeta_sq=zeta_sq, psi2=psi2, rho=rho)
    # both omegas must re-solve their defining quadratics
    r0 = omega0 * omega0 + (psi2 * z - z - 1.0) * omega0 - psi2 * z
    r1 = omega1 * omega1 + (psi2 * rho - rho - 1.0) * omega1 - psi2 * rho
    scale = 1.0 + omega0 * omega0 + omega1 * omega1
    if abs(r0) > 1e-10 * scale or abs(r1) > 1e-10 * scale:
        raise InvariantViolation(
            f"phase quadratic residuals too large: {r0:.3e}, {r1:.3e}"
        )
    return PhaseQuantities(omega0, omega1, rho_star, zeta_star_sq, lambda_star)


def _stationary_chis(rho: float, zeta_sq: float, psi1: float, psi2: float) -> np.ndarray:
    """The real roots of S = N' E0 - N E0' with N = a E1 + b E2, where the
    rational R(chi) = N / E0 is stationary, each polished on S (_polish).  An S
    that is not finite, or that np.roots rejects, raises a ValueError naming
    the row (_overflow)."""
    e1, e2 = _e_coeffs(zeta_sq, psi1, psi2)
    e0 = np.array(_e0_coeffs(zeta_sq, psi1, psi2))
    with np.errstate(all="ignore"):
        n = TargetSpec.unit(rho).weigh(np.array((0.0, 0.0) + e1), np.array(e2))
        # the chi^9 terms of the two products cancel exactly: drop their rounding
        s = (np.convolve(np.polyder(n), e0) - np.convolve(n, np.polyder(e0)))[1:]
        (roots,), (failed,) = _stacked_roots(s[None])
    if failed:
        raise _overflow("the stationarity polynomial S", rho=rho, zeta_sq=zeta_sq, psi1=psi1,
                        psi2=psi2, into="its companion matrix" if np.isfinite(s).all()
                        else "the float range")
    real = np.abs(roots.imag) <= 1e-9 * np.abs(roots)
    return _polish(s[:, None], roots.real[real])


def optimal_lambda(
    rho: float,
    zeta_sq: float,
    psi1: float,
    psi2: float,
    lambda_max: float,
) -> tuple[float, float]:
    """Minimize the finite-shape risk over lambda_bar in [0, lambda_max].

    The penalty reaches R only through chi, which rises strictly with
    lambda_bar from the ridgeless chi at lambda_bar = 0 toward 0 (the oracle
    certifies that the root branch does not turn), and R(chi) = N / E0 with
    N = a E1 + b E2 (a = rho/(1+rho), b = 1/(1+rho)) is rational.  So R is
    stationary in lambda_bar exactly at the real roots of the polynomial
    S = N' E0 - N E0' (degree at most 8: its chi^9 terms cancel) between the
    ridgeless chi and 0.  They are factored and polished as the solver's
    quartics are (_stacked_roots, _polish), kept when real
    (|imag| <= 1e-9 |root|) and distinct (1e-10 relative, as solve_at
    counts its points), and mapped back to penalties through the quartic
    (_lambda_bar).  Those inside (0, lambda_max) are solved together with
    lambda_max as one batch, each certified and cross-checked as risk_general
    does; a certified chi more than 1e-8 relative from its root raises
    InvariantViolation.  The answer is the lowest R among lambda_bar = 0 (the
    ridgeless closed form), those rows and lambda_max.  R is monotone between
    consecutive candidates, so their local minima are exactly those of R on
    [0, lambda_max]; more than one warns NonUnimodalWarning.
    Returns (lambda_bar_opt, risk_opt).
    """
    require_positive(lambda_max=lambda_max, zeta_sq=zeta_sq, psi1=psi1, psi2=psi2)
    # one ridgeless row: its chi here, its R (or its error) at the endpoint below
    ridgeless = _ridgeless_columns([(zeta_sq, psi1, psi2)])
    # a root returned twice would give two equal values, neither a strict minimum
    chi = np.array(_distinct(np.sort(_stationary_chis(rho, zeta_sq, psi1, psi2)).tolist()))
    chi = chi[(ridgeless.chi[0] < chi) & (chi < 0.0)]
    lbs = _lambda_bar(chi, zeta_sq, psi1, psi2)
    inside = (0.0 < lbs) & (lbs < lambda_max)
    chi, lbs = chi[inside].tolist(), lbs[inside].tolist()
    risks = _RiskColumns([(zeta_sq, psi1, psi2, lb) for lb in lbs + [lambda_max]])
    for k, (root, lb) in enumerate(zip(chi, lbs)):
        if k in risks.point_errors:
            raise risks.point_errors[k]
        certified = risks.solve.chi[k].item()
        if abs(certified - root) > 1e-8 * abs(root):
            raise InvariantViolation(
                f"the certified chi = {certified!r} at lambda_bar = {lb!r} differs from the "
                f"searched chi = {root!r} by more than 1e-8 relative"
            )
    grid = [0.0] + lbs + [lambda_max]
    values = [ridgeless.decomposition(0).risk_at(rho)]
    if risks.errors:
        raise risks.errors[min(risks.errors)]
    values += _test_errors(TargetSpec.unit(rho), *risks.factors.T[:2], risks.threshold).tolist()
    n_minima = sum(
        1
        for i in range(len(grid))
        if (i == 0 or values[i] < values[i - 1])
        and (i == len(grid) - 1 or values[i] < values[i + 1])
    )
    if n_minima > 1:
        warnings.warn(
            f"risk profile has {n_minima} local minima on [0, lambda_max]; "
            "the reported optimum is the global one",
            NonUnimodalWarning,
            stacklevel=2,
        )
    best = int(np.argmin(values))
    return float(grid[best]), float(values[best])
