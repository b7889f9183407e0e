"""Coupled self-consistent equations behind the asymptotic risk formulas.

The pair (nu1, nu2) solves, at a spectral argument xi in the upper half plane,

    nu1 = psi1 * (-xi - nu2 - zeta^2 nu2 / (1 - zeta^2 nu1 nu2))^-1
    nu2 = psi2 * (-xi - nu1 - zeta^2 nu1 / (1 - zeta^2 nu1 nu2))^-1

and every asymptotic quantity in this package is a rational function of the
product chi = nu1 * nu2 evaluated at xi = i sqrt(psi1 psi2 lambda_bar).  chi
is a root of a quartic, and both routes here start from its real negative
roots, each polished by Newton on the quartic (_negative_roots).  They differ
only in how they choose among them: solve_at keeps the root whose pair lies
in the upper half plane and checks that pair on the coupled map, to a
residual of 1e-12 relative to each component; the oracle keeps the largest
root, certified as the one continuity from large |xi| reaches by the absence
of a turning point of the root branch.  Callers cross-check one against the
other.  solve_points takes a whole batch of targets through one stacked
eigvals call per polynomial degree; solve_at and chi_scalar_oracle run the
same code on a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SingularDenominator(ArithmeticError):
    """The map was evaluated where 1 - zeta^2 nu1 nu2 vanishes."""


class NoConvergence(RuntimeError):
    """No single admissible quartic root gave a pair that passes the checks at xi."""

    def __init__(self, message: str, xi: complex):
        super().__init__(f"{message} (xi = {xi})")
        self.xi = xi


class InvariantViolation(RuntimeError):
    """A solution invariant (half-plane membership, norm bound, realness) failed."""


class RootSelectionAmbiguous(RuntimeError):
    """The quartic oracle could not certify one root as the branch continuity reaches."""


class InconsistentChi(RuntimeError):
    """The reconstructed pair does not multiply back to the supplied chi."""


def require_positive(**values: float) -> None:
    """Raise ValueError naming the first of values that is not finite and > 0."""
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {v}")


@dataclass(frozen=True)
class SpectralParams:
    """Shape ratios and activation amplitude ratio defining one model family.

    psi1 = features per dimension, psi2 = samples per dimension,
    zeta_sq = (linear amplitude / nonlinear amplitude)^2 of the activation.
    """

    zeta_sq: float
    psi1: float
    psi2: float

    def __post_init__(self):
        require_positive(zeta_sq=self.zeta_sq, psi1=self.psi1, psi2=self.psi2)

    def swapped(self) -> "SpectralParams":
        return SpectralParams(self.zeta_sq, self.psi2, self.psi1)


# the largest map residual, relative to each component, that solve_at accepts
_TOL = 1e-12


@dataclass(frozen=True)
class SpectralPoint:
    """A converged solution at one xi, with chi = nu1 * nu2 and the map residual
    relative to each component, max_k |F_k(nu) - nu_k| / |nu_k|."""

    xi: complex
    nu1: complex
    nu2: complex
    chi: complex
    residual: float


def fixed_point_map(
    nu1: complex, nu2: complex, xi: complex, params: SpectralParams
) -> tuple[complex, complex]:
    """One application of the self-consistency map at xi."""
    z = params.zeta_sq
    den = 1.0 - z * nu1 * nu2
    if abs(den) < 1e-14:
        raise SingularDenominator(
            f"1 - zeta_sq nu1 nu2 = {den} at nu1={nu1}, nu2={nu2}"
        )
    f1 = params.psi1 / (-xi - nu2 - z * nu2 / den)
    f2 = params.psi2 / (-xi - nu1 - z * nu1 / den)
    return f1, f2


def _residual(nu1, nu2, xi, params) -> float:
    """The map residual relative to each component, the larger of the two."""
    f1, f2 = fixed_point_map(nu1, nu2, xi, params)
    return max(abs(f1 - nu1) / abs(nu1), abs(f2 - nu2) / abs(nu2))


def _checked_point(xi, nu1, nu2, res, params) -> SpectralPoint:
    """The solution at xi, after the half-plane, norm-bound and axis checks."""
    if nu1.imag <= 0.0 or nu2.imag <= 0.0:
        raise InvariantViolation(f"solution left the upper half plane at xi = {xi}")
    # relative slack for rounding, which scales with |nu| however small it is
    bound_slack = 1.0 + 1e-9
    if (
        abs(nu1) > bound_slack * params.psi1 / xi.imag
        or abs(nu2) > bound_slack * params.psi2 / xi.imag
    ):
        raise InvariantViolation(
            f"|nu| exceeds psi / Im(xi) at xi = {xi}: |nu1|={abs(nu1)}, |nu2|={abs(nu2)}"
        )
    chi = nu1 * nu2
    # on the imaginary axis the solution is purely imaginary and chi <= 0
    axis_tol = 1e-10
    if (
        abs(nu1.real) > axis_tol * (1.0 + abs(nu1))
        or abs(nu2.real) > axis_tol * (1.0 + abs(nu2))
        or abs(chi.imag) > axis_tol * (1.0 + abs(chi))
        or chi.real > axis_tol
    ):
        raise InvariantViolation(
            f"imaginary-axis structure lost at xi = {xi}: nu1={nu1}, nu2={nu2}"
        )
    return SpectralPoint(xi=xi, nu1=nu1, nu2=nu2, chi=chi, residual=res)


def _pair_from_chi(chi: float, params: SpectralParams, u: float) -> tuple[complex, complex]:
    """The pair a chi <= 0 determines at xi = i u, by the coupled equations' sum / product:

    nu_k = i (psi_k - s) / u with s = -zeta^2 chi / (1 - zeta^2 chi) - chi.
    """
    z = params.zeta_sq
    s = -z * chi / (1.0 - z * chi) - chi
    return complex(0.0, (params.psi1 - s) / u), complex(0.0, (params.psi2 - s) / u)


def _polish_root(coeffs: list, chi: float) -> float:
    """A real root of the polynomial coeffs (highest degree first) after up to
    six Newton steps, by Horner on Python floats.

    eigvals resolves a root only to the rounding of the largest coefficient,
    so when the coefficients span ~1e50 a tiny root comes back as 0.0 or with
    the wrong sign; Newton restores it, and six steps bring copies of one root
    that started from 0.0 together to rounding.
    """
    for _ in range(6):
        p = dp = 0.0
        for c in coeffs:
            dp = dp * chi + p
            p = p * chi + c
        if dp == 0.0:
            break
        step = p / dp
        # a step that leaves chi unchanged would repeat to the last one
        if not math.isfinite(step) or chi - step == chi:
            break
        chi -= step
    return chi


def unwrap(outcome):
    """The value of an outcome (a value, or the exception computing it raised),
    raising the exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def attempt(fn, *args):
    """fn(*args) as an outcome: its value, or the exception it raised.

    A batch keeps each row's exception with that row, so a caller that
    unwraps the rows in order raises the first failing row's exception.
    """
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _eigvals(matrices: np.ndarray) -> list:
    """Each matrix's eigenvalues as a list, from one stacked eigvals call.

    eigvals raises for the whole stack when one matrix is not finite or LAPACK
    fails on it; then each matrix is factored alone, and the one that fails
    holds its own LinAlgError instead of failing the others.
    """
    try:
        return np.linalg.eigvals(matrices).tolist()
    except np.linalg.LinAlgError as exc:
        if len(matrices) == 1:
            return [exc]
        return [_eigvals(m[None])[0] for m in matrices]


def _stacked_roots(polys: np.ndarray) -> list:
    """np.roots of each row of polys (highest degree first) as an outcome: the
    roots as a list, or the LinAlgError np.roots raises on that row.

    As in np.roots, a row sheds its leading and trailing zero coefficients,
    the latter coming back as roots at 0, and eigvals factors the companion
    matrix of what is left.  The rows left with one degree share one stacked
    call (_eigvals), and LAPACK factors each matrix on its own, so every row's
    roots are bitwise those of np.roots.
    """
    k = polys.shape[1] - 1
    degrees = {}
    for row, coeffs in enumerate(polys.tolist()):
        kept = [j for j, c in enumerate(coeffs) if c != 0.0]
        # an all-zero row keeps no coefficient and, as in np.roots, has no roots
        degrees.setdefault((kept[0], kept[-1]) if kept else (k, k), []).append(row)
    roots = [None] * len(polys)
    for (lo, hi), rows in degrees.items():
        m = hi - lo
        found = [[] for _ in rows]
        if m > 0:
            p = polys[rows, lo:hi + 1]
            companion = np.zeros((len(rows), m, m))
            companion[:, 0] = -p[:, 1:] / p[:, :1]
            companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
            found = _eigvals(companion)
        for row, r in zip(rows, found):
            roots[row] = r if isinstance(r, Exception) else r + [0.0] * (k - hi)
    return roots


def _negative_roots(polynomial: list, roots: list) -> list[float]:
    """Of the roots found for the quartic polynomial, the real ones, each
    polished by _polish_root, that are negative afterwards; copies are kept."""
    real = [r.real for r in roots if r.imag == 0.0]
    return [chi for chi in (_polish_root(polynomial, r) for r in real) if chi < 0.0]


def _axis_roots(params: list[SpectralParams], u: list[float]) -> list[tuple]:
    """Per row, the negative roots of the quartic at xi = i u (_negative_roots)
    and the roots of chi_scalar_oracle's quintic, each as an outcome.

    One _quartic_coeffs call builds every row's quartic at the target and at
    u = 0 (N, from which the quintic is formed), and one stacked eigvals call
    per degree (_stacked_roots) factors all of them.  A quartic with a
    coefficient that is not finite is left out of the stack; its row holds a
    ValueError naming psi1, psi2 and the product psi1 psi2 lambda_bar (= u^2)
    that overflowed.
    """
    z, psi1, psi2 = (
        np.array([getattr(p, name) for p in params], dtype=float)[:, None]
        for name in ("zeta_sq", "psi1", "psi2")
    )
    u = np.array(u, dtype=float)[:, None]
    # a term that overflows is reported by its row's outcome, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        # per row, N (the quartic at u = 0) and the quartic at the target
        coeffs = _quartic_coeffs(z, psi1, psi2, np.hstack([np.zeros_like(u), u * u]))
        n4, n3, n2, n1, n0 = coeffs[:, 0].T
        z = z[:, 0]
        quintics = np.stack(
            [-z * n4, 3.0 * n4, 2.0 * n3 + z * n2, n2 + 2.0 * z * n1, 3.0 * z * n0, -n0], axis=-1
        )
    quartics = coeffs[:, 1]
    finite = np.isfinite(quartics).all(axis=1)
    solved = iter(_stacked_roots(quartics[finite]))
    outcomes = []
    for p, u_k, polynomial, ok, turns in zip(
        params, u[:, 0].tolist(), quartics.tolist(), finite, _stacked_roots(quintics)
    ):
        roots = next(solved) if ok else _overflowed(p, u_k)
        negative = roots if isinstance(roots, Exception) else _negative_roots(polynomial, roots)
        outcomes.append((negative, turns))
    return outcomes


def _overflowed(params: SpectralParams, u: float) -> ValueError:
    """The error of a row whose quartic has a coefficient beyond the float range."""
    return ValueError(
        f"the product psi1 psi2 lambda_bar = {u * u!r} overflowed the quartic in chi "
        f"at psi1 = {params.psi1!r}, psi2 = {params.psi2!r}, zeta_sq = {params.zeta_sq!r}"
    )


def _require_axis(xi: complex) -> None:
    if not (xi.imag > 0.0):
        raise ValueError(f"xi must have positive imaginary part, got {xi}")
    if xi.real != 0.0:
        raise ValueError(f"solve_at solves on the imaginary axis only, got xi = {xi}")


def solve_at(xi: complex, params: SpectralParams) -> SpectralPoint:
    """Solve the coupled equations at xi = i u on the imaginary axis, u > 0.

    Every theory point lies there, and there chi = nu1 nu2 is a root of the
    quartic _quartic_coeffs.  Of its real roots, polished on the quartic,
    those that are negative (_negative_roots) are candidates; one is
    admissible when its pair (_pair_from_chi) lies in the upper half
    plane.  The smaller component of that pair cancels when its psi_k is
    tiny, so it is rebuilt as chi over the larger one, which for a root of the
    quartic has the same sign; equal components are both rebuilt as
    sqrt(-chi).  Each admissible pair is checked, as built, on
    the coupled map: its residual relative to each component must be at most
    1e-12, which also guards the quartic's coefficients.  The answer is the
    one distinct point (chi within 1e-10 relative) that meets the residual and
    passes the half-plane, norm-bound and axis checks; none or several raise
    NoConvergence.  This is solve_points' selection for a batch of one.
    """
    _require_axis(xi)
    ((negative, _),) = _axis_roots([params], [xi.imag])
    return _select(xi, params, negative)


def _select(xi: complex, params: SpectralParams, negative) -> SpectralPoint:
    """solve_at's point at xi from the outcome of the quartic's negative roots."""
    u = xi.imag
    admissible, best, points = 0, math.inf, []
    for chi in unwrap(negative):
        nu1, nu2 = _pair_from_chi(chi, params, u)
        larger = max(nu1.imag, nu2.imag)
        if not larger > 0.0:
            continue
        if nu1.imag == nu2.imag:
            # equal components both cancel alike; sqrt(-chi) keeps the pair symmetric
            nu1 = nu2 = complex(0.0, math.sqrt(-chi))
        else:
            smaller = complex(0.0, -chi / larger)
            nu1, nu2 = (nu1, smaller) if nu1.imag == larger else (smaller, nu2)
        if min(nu1.imag, nu2.imag) == 0.0:
            continue
        admissible += 1
        try:
            res = _residual(nu1, nu2, xi, params)
            best = min(best, res)
            if res > _TOL:
                continue
            point = _checked_point(xi, nu1, nu2, res, params)
        except (InvariantViolation, SingularDenominator):
            continue
        if all(abs(point.chi - p.chi) > 1e-10 * abs(p.chi) for p in points):
            points.append(point)
    if len(points) != 1:
        raise NoConvergence(
            f"{admissible} admissible quartic roots give {len(points)} distinct "
            f"checked points; best relative map residual {best:.3e}",
            xi,
        )
    return points[0]


def _axis_target(zeta_sq, psi1, psi2, lambda_bar) -> tuple[SpectralParams, complex]:
    """The checked parameters of one row and its xi = i sqrt(psi1 psi2 lambda_bar)."""
    require_positive(lambda_bar=lambda_bar)
    params = SpectralParams(zeta_sq, psi1, psi2)
    xi = complex(0.0, math.sqrt(psi1 * psi2 * lambda_bar))
    _require_axis(xi)
    return params, xi


def solve_points(rows) -> list[tuple]:
    """solve_at's point and chi_scalar_oracle's chi at xi = i sqrt(psi1 psi2
    lambda_bar) for every (zeta_sq, psi1, psi2, lambda_bar) row, each as an
    outcome; a row that fails validation holds its ValueError in both.

    The rows share one _axis_roots call, so every quartic and quintic of the
    batch comes from one stacked eigvals call per degree.  Each row is then
    selected (solve_at) and certified (chi_scalar_oracle) on its own from the
    same polished negative roots, so its outcomes are bitwise those of the
    single calls.
    """
    targets = [attempt(_axis_target, *row) for row in rows]
    valid = [t for t in targets if not isinstance(t, Exception)]
    solved = iter(_axis_roots([params for params, _ in valid], [xi.imag for _, xi in valid]))
    outcomes = []
    for row, target in zip(rows, targets):
        if isinstance(target, Exception):
            outcomes.append((target, target))
            continue
        (params, xi), (negative, turns) = target, next(solved)
        outcomes.append(
            (attempt(_select, xi, params, negative), attempt(_certify, row[3], negative, turns))
        )
    return outcomes


# ---------------------------------------------------------------------------
# scalar quartic oracle
# ---------------------------------------------------------------------------

def _quartic_coeffs(zeta_sq, psi1, psi2, u_sq) -> np.ndarray:
    """Coefficients (degree 4 down to 0) of the polynomial chi must satisfy.

    Eliminating nu1 and nu2 from the coupled equations at xi = i u leaves
    P1(chi) P2(chi) + u^2 chi (1 - zeta^2 chi)^2 = 0 with
    P_k(chi) = zeta^2 chi^2 + (zeta^2 psi_k - zeta^2 - 1) chi - psi_k.
    The arguments broadcast against each other; the result has their shape
    and one more axis, of length 5, holding the coefficients.
    """
    z, psi1, psi2, u_sq = (np.asarray(v, dtype=float) for v in (zeta_sq, psi1, psi2, u_sq))
    b1 = z * psi1 - z - 1.0
    b2 = z * psi2 - z - 1.0
    terms = (
        z * z,
        z * (b1 + b2) + u_sq * z * z,
        b1 * b2 - z * (psi1 + psi2) - 2.0 * u_sq * z,
        -b1 * psi2 - b2 * psi1 + u_sq,
        psi1 * psi2,
    )
    coeffs = np.empty(np.broadcast(*terms).shape + (5,))
    for k, term in enumerate(terms):
        coeffs[..., k] = term
    return coeffs


def chi_scalar_oracle(params: SpectralParams, lambda_bar: float) -> float:
    """chi at xi = i sqrt(psi1 psi2 lambda_bar), via the quartic it satisfies.

    chi is the root reached by continuity in u from its large-u asymptote
    chi ~ -psi1 psi2 / u^2; the quartic can have several real negative roots
    at the target, so the sign filter alone does not identify it.  The branch
    is found from a certificate at the target alone.  On the axis the quartic
    reads N(chi) + u^2 D(chi) = 0 with N = P1 P2 and D = chi (1 - zeta^2 chi)^2,
    so a real chi < 0 is a root exactly when u^2 = g(chi) := -N / D.  g has no
    pole on chi < 0 and rises to +inf as chi -> 0-, which is the asymptote, so
    lowering u from infinity follows g's branch leftward from 0-.  Let chi* be
    the largest of the target quartic's negative roots, each polished on the
    quartic (_negative_roots).  If g has no critical point on [chi*, 0), the
    branch is monotone there and ends at chi*.  On chi < 0, g' vanishes
    exactly at the real roots of the quintic

        chi N'(chi) (1 - zeta^2 chi) - N(chi) (1 - 3 zeta^2 chi),

    which is N' D - N D' with its factor (1 - zeta^2 chi) divided out.  A
    root of it in [chi*, 0) is where two real roots collide, and the branch
    would have left the real axis before reaching the target.

    Every test is relative to |chi*|: roots within 1e-10 |chi*| of each other
    are copies of one root, as in solve_at, and the quintic's roots count as
    real within 1e-9 of their size.  Raises RootSelectionAmbiguous when no
    root is negative, when the quintic has a real root in [chi*, 0), or when
    a distinct negative root lies within 1e-8 |chi*| of chi*, the tolerance
    of the cross-check against solve_at.  This is solve_points' certificate
    for a batch of one.
    """
    require_positive(lambda_bar=lambda_bar)
    u = math.sqrt(params.psi1 * params.psi2 * lambda_bar)
    ((negative, turns),) = _axis_roots([params], [u])
    return _certify(lambda_bar, negative, turns)


def _certify(lambda_bar: float, negative, turns) -> float:
    """chi_scalar_oracle's chi from the outcomes of the target quartic's
    negative roots and of the quintic's roots."""
    roots = unwrap(negative)
    if not roots:
        raise RootSelectionAmbiguous(f"no real non-positive root at lambda_bar = {lambda_bar}")
    chi = max(roots)
    for c in unwrap(turns):
        if abs(c.imag) <= 1e-9 * abs(c) and chi <= c.real < 0.0:
            raise RootSelectionAmbiguous(
                f"the root branch turns at chi = {c.real!r} in [{chi!r}, 0), "
                f"so it leaves the real axis above lambda_bar = {lambda_bar}"
            )
    for r in roots:
        if 1e-10 * -chi < chi - r < 1e-8 * -chi:
            raise RootSelectionAmbiguous(
                f"roots {chi!r} and {r!r} both admissible within 1e-8 relative"
            )
    return chi


def nu_from_chi(
    chi: float, params: SpectralParams, lambda_bar: float
) -> tuple[complex, complex]:
    """Reconstruct (nu1, nu2) at xi = i sqrt(psi1 psi2 lambda_bar) from chi.

    The pair is _pair_from_chi's.  Its product must reproduce chi; that only
    happens when chi actually solves the quartic, so the check guards against
    a wrong branch.
    """
    if not (math.isfinite(lambda_bar) and lambda_bar > 0.0):
        raise ValueError(f"lambda_bar must be finite and positive, got {lambda_bar}")
    if chi > 0.0:
        raise ValueError(f"chi must be <= 0, got {chi}")
    z = params.zeta_sq
    if 1.0 - z * chi <= 0.0:
        raise ValueError(f"1 - zeta_sq chi must be positive, got {1.0 - z * chi}")
    nu1, nu2 = _pair_from_chi(chi, params, math.sqrt(params.psi1 * params.psi2 * lambda_bar))
    if abs(nu1 * nu2 - chi) > 1e-8 * abs(chi):
        raise InconsistentChi(
            f"nu1 nu2 = {nu1 * nu2} differs from chi = {chi}; "
            "chi does not solve the self-consistent equations at this lambda_bar"
        )
    if nu1.imag <= 0.0 or nu2.imag <= 0.0:
        raise InconsistentChi(
            f"reconstructed pair leaves the upper half plane: nu1={nu1}, nu2={nu2}"
        )
    return nu1, nu2
