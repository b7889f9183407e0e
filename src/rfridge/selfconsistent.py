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
of a turning point of the root branch: a quintic with no root between that
root and 0, which the signs of its Bernstein coefficients prove for most
rows without factoring it (_clear_of_roots).  Callers cross-check one
against the other.  _AxisBatch solves a whole batch of targets as arrays:
one stacked eigvals call for the quartics and one for the quintics the sign
test cannot clear, then the polish, the selection and the certificate
elementwise over every row; solve_at and chi_scalar_oracle read row 0 of a
batch of one.
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


def require_positive(**values: float) -> None:
    """Raise ValueError naming the first of values that is not finite and > 0."""
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {v}")


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
    nu1: complex, nu2: complex, xi: complex, zeta_sq: float, psi1: float, psi2: float
) -> tuple[complex, complex]:
    """One application of the self-consistency map at xi."""
    den = 1.0 - zeta_sq * nu1 * nu2
    if abs(den) < 1e-14:
        raise SingularDenominator(
            f"1 - zeta_sq nu1 nu2 = {den} at nu1={nu1}, nu2={nu2}"
        )
    f1 = psi1 / (-xi - nu2 - zeta_sq * nu2 / den)
    f2 = psi2 / (-xi - nu1 - zeta_sq * nu1 / den)
    return f1, f2


def _residual(t1, t2, u, zeta_sq, psi1, psi2):
    """fixed_point_map's residual relative to each component, the larger of
    the two, at pairs (i t1, i t2) on the axis xi = i u, elementwise.

    On the axis the map's complex arithmetic is real arithmetic on the
    imaginary parts: 1 - zeta^2 nu1 nu2 = 1 + zeta^2 t1 t2 =: D and
    F_1 = i psi1 / -(-u - t2 - zeta^2 t2 / D), F_2 likewise.  Written in the
    map's operation order, each value is bitwise that of fixed_point_map on
    the same pair as long as the map's complex arithmetic stays finite.  Near
    the float limit (|nu1| about 1e308) that arithmetic overflows, and the
    map's residual is inf or nan where this one is finite.  For t_k > 0,
    D >= 1, so the map's singular denominator cannot arise.
    """
    den = 1.0 + zeta_sq * t1 * t2
    f1 = -psi1 / (-u - t2 - zeta_sq * t2 / den)
    f2 = -psi2 / (-u - t1 - zeta_sq * t1 / den)
    r1 = np.abs(f1 - t1) / t1
    r2 = np.abs(f2 - t2) / t2
    return np.where(r2 > r1, r2, r1)


@np.errstate(all="ignore")
def _polish(columns: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Real roots chi (nan for none) after up to six Newton steps, by Horner,
    each on its own polynomial: column j of columns holds root j's
    coefficients, highest degree first.

    eigvals resolves a root only to the rounding of the largest coefficient,
    so when the coefficients span ~1e50 a tiny root comes back as 0.0 or with
    the wrong sign; Newton restores it, and six steps bring copies of one root
    that started from 0.0 together to rounding.  A root stops for good at the
    step where the derivative is 0, the step is not finite (an overflow, which
    does not warn), or it leaves chi unchanged (it would repeat to the last
    one), so every root takes the steps the same scalar loop would, bitwise.
    """
    moving = ~np.isnan(chi)
    first, *rest = columns
    for _ in range(6):
        if not moving.any():
            break
        # Horner from p = dp = 0: after the leading coefficient dp is +0.0
        dp, p = 0.0, 0.0 * chi + first
        for c in rest:
            dp = dp * chi + p
            p = p * chi + c
        # a zero derivative makes the step infinite or nan, so it stops too
        step = p / dp
        moved = chi - step
        moving &= np.isfinite(step) & (moved != chi)
        np.copyto(chi, moved, where=moving)
    return chi


def attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


# the padding of a row of roots: neither part is a number
_NAN = complex(math.nan, math.nan)


def _stacked_roots(polys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.roots of each finite row of polys (highest degree first), as the rows
    of a complex array padded with nan, and a boolean column marking the rows
    that are not finite or that np.roots rejects (their row is all nan).

    A row that is not finite fails without a call to np.roots, whose
    companion matrix would either hold it (and be rejected) or, with an
    infinite leading coefficient, be all zeros and give roots that mean
    nothing.  The finite rows whose first and last coefficients are
    nonzero, which np.roots would not trim, and whose companion matrix is
    finite share one stacked eigvals call on their companion matrices; LAPACK
    factors each matrix on its own, so their roots are bitwise those of
    np.roots.  Every other finite row, and every row of a stack that eigvals
    rejects, is np.roots' own.
    """
    roots = np.full((len(polys), polys.shape[1] - 1), _NAN)
    failed = ~np.isfinite(polys).all(axis=1)
    stacked = ~failed & (polys[:, 0] != 0.0) & (polys[:, -1] != 0.0)
    companions = _companions(polys[stacked])
    bounded = np.isfinite(companions).all(axis=(1, 2))
    stacked[stacked] = bounded
    try:
        roots[stacked] = np.linalg.eigvals(companions[bounded])
    except np.linalg.LinAlgError:
        stacked[:] = False
    for k in np.flatnonzero(~stacked & ~failed).tolist():
        try:
            found = np.roots(polys[k])
        except np.linalg.LinAlgError:
            failed[k] = True
        else:
            roots[k, :len(found)] = found
    return roots, failed


# _BERNSTEIN[i, k] = C(i, k) / C(5, k): row i weighs a quintic's power
# coefficients on [0, 1], lowest degree first, into its i-th Bernstein coefficient
_BERNSTEIN = np.array([[math.comb(i, k) / math.comb(5, k) for k in range(6)] for i in range(6)])
# the smallest normal float
_TINY = np.finfo(float).tiny


def _clear_of_roots(quintics: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Whether each row's quintic in quintics (highest degree first) provably
    has no root on [top, 0], top < 0 a column of one value per row.

    chi = top t maps t in [0, 1] onto the interval, and the quintic in t is
    the sum of its Bernstein coefficients b_i, each weighing a nonnegative
    basis polynomial, which sum to 1; so a row whose six b_i share one sign
    has no root there (the convex hull property).  A b_i counts as signed when
    it clears 1e-12 of the sum of its terms' sizes, far above the rounding of
    that sum.  A term c_k top^k whose power underflowed can have lost up to
    |c_k| times the smallest normal float, and a product or sum that
    underflows a few subnormal steps, so both count in the sizes too.  A row
    with a term that is not finite is not cleared.
    """
    # the quintic's coefficients in t, c_k top^k, lowest degree first; b_i
    # weighs them by row i of _BERNSTEIN, in any order of summation
    c = quintics[:, ::-1]
    a = c * np.vander(top[:, 0], 6, increasing=True)
    b = a @ _BERNSTEIN.T
    margin = 1e-12 * ((np.abs(a) + _TINY * np.abs(c)) @ _BERNSTEIN.T) + 2.0 ** -1060
    return (b > margin).all(axis=1) | (b < -margin).all(axis=1)


def _companions(polys: np.ndarray) -> np.ndarray:
    """The companion matrix of each row of polys, as np.roots builds it."""
    rows, m = polys.shape[0], polys.shape[1] - 1
    companion = np.zeros((rows, m, m))
    companion[:, 0] = -polys[:, 1:] / polys[:, :1]
    companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
    return companion


def _negative_roots(polys: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Of the roots found for each row's quartic in polys (rows x roots), the
    real ones, each polished on that quartic (_polish), that are negative
    afterwards, in place; nan everywhere else.  Copies are kept."""
    chi = _polish(polys.T[:, :, None], np.where(roots.imag == 0.0, roots.real, np.nan))
    return np.where(chi < 0.0, chi, np.nan)


def _number(value):
    """value, or the Python number a numpy scalar (or 0-d array) holds, so an
    error names np.float64(2.0) as 2.0."""
    return value.item() if isinstance(value, (np.generic, np.ndarray)) else value


def _overflow(quantity: str, *, into: str = "the float range", **row) -> ValueError:
    """The error of a row whose quantity overflowed into the float range or a
    companion matrix (np.roots'), naming the row's parameters in order."""
    named = ", ".join(f"{name} = {_number(value)!r}" for name, value in row.items())
    return ValueError(f"{quantity} overflowed {into} at {named}")


def _refuse(errors: dict, rows, refusal) -> dict:
    """errors, with refusal(k) added for each of rows (indices) that has no
    error yet: a row keeps its first error, and a later one is never built."""
    for k in rows:
        if k not in errors:
            errors[k] = refusal(k)
    return errors


class _AxisBatch:
    """solve_at's point and chi_scalar_oracle's chi for a batch of (zeta_sq,
    psi1, psi2, lambda_bar) rows, as columns: values (the rows as floats), u
    (the target xi = i u), t1 and t2 (the pair nu_k = i t_k), residual, chi
    (nu1 nu2, real) and oracle (the certified chi).  point_errors and
    chi_errors hold, as {row: exception}, solve_at's and the oracle's error
    of each failing row, built for that row alone; a row's columns mean
    nothing where it has one.

    Every row is solved, as one table of rows by candidate roots.  One
    _quartic_coeffs call builds each row's quartic at the target and at
    u = 0 (N, from which the oracle's quintic is formed), and one stacked
    eigvals call (_stacked_roots) factors every quartic.  The quintic is only
    asked whether it has a root on [chi*, 0]: the sign test (_clear_of_roots)
    answers no for a row whose six Bernstein coefficients on that interval
    share one sign, each clearing 1e-12 of the sum of its terms' sizes.  Only
    the rows it cannot clear that have a chi* and no error yet fall back on a
    second stacked call, over their quintics alone, and on the test of the
    quintic's real roots in [chi*, 0).  A row that fails validation keeps
    that error (_rejected); otherwise a row whose quartic is not finite, or
    whose quartic np.roots rejects, or whose quintic the fallback finds not
    finite or rejected, fails with a ValueError naming it (_overflow).  A row
    keeps its first error (_refuse).  Every other step is elementwise, so a
    row's outcome does not depend on the rest of the batch.
    """

    def __init__(self, rows):
        self.values = values = np.array(rows, dtype=float).reshape(-1, 4)
        z, psi1, psi2, lambda_bar = values.T
        # a failing row's columns, and a term that overflows, are reported by
        # the row's outcome, not as a warning
        with np.errstate(all="ignore"):
            self.u = u = np.sqrt(psi1 * psi2 * lambda_bar)
            valid = (np.isfinite(values) & (values > 0.0)).all(axis=1) & (u > 0.0)
            # per row, N (the quartic at u = 0) and the quartic at the target
            u_sq = np.zeros((len(u), 2))
            u_sq[:, 1] = u * u
            coeffs = _quartic_coeffs(z[:, None], psi1[:, None], psi2[:, None], u_sq)
            n4, n3, n2, n1, n0 = coeffs[:, 0].T
            quintics = np.array(
                [-z * n4, 3.0 * n4, 2.0 * n3 + z * n2, n2 + 2.0 * z * n1, 3.0 * z * n0, -n0]
            ).T
            quartics = coeffs[:, 1]
            roots, failed_roots = _stacked_roots(quartics)
            chi = _negative_roots(quartics, roots)

        def unfactored(polynomial, k):
            return _overflow(f"the {polynomial} in chi", into="its companion matrix",
                             psi1=rows[k][1], psi2=rows[k][2], zeta_sq=rows[k][0],
                             **{"psi1 psi2 lambda_bar": u_sq[k, 1].item()})

        # a failing quartic is both outcomes' first error; each is built once,
        # validation's before the overflow's before np.roots' rejection
        finite = np.isfinite(quartics).all(axis=1)
        failed = {k: _rejected(*rows[k], u[k].item()) if not valid[k]
                  else _overflow(f"the product psi1 psi2 lambda_bar = {u_sq[k, 1].item()!r}",
                                 into="the quartic in chi", psi1=rows[k][1], psi2=rows[k][2],
                                 zeta_sq=rows[k][0]) if not finite[k]
                  else unfactored("quartic", k)
                  for k in np.flatnonzero(~valid | failed_roots).tolist()}
        self.point_errors, self.chi_errors = failed, dict(failed)
        with np.errstate(all="ignore"):
            self._select_arrays(chi, z[:, None], psi1[:, None], psi2[:, None], u[:, None])
            self._certify_arrays(chi, quintics, rows,
                                 lambda k: unfactored("oracle's quintic", k))

    def _select_arrays(self, chi, z, psi1, psi2, u):
        # each row's parameters broadcast over its candidate roots, one per
        # column of chi: the pair a root chi determines, by the coupled
        # equations' sum and product, is nu_k = i t_k with
        # t_k = (psi_k - s) / u and s = -zeta^2 chi / (1 - zeta^2 chi) - chi
        s = -z * chi / (1.0 - z * chi) - chi
        t1 = (psi1 - s) / u
        t2 = (psi2 - s) / u
        # the smaller component cancels when its psi_k is tiny, so it is
        # rebuilt as chi over the larger one; equal components both cancel
        # alike, and sqrt(-chi) keeps the pair symmetric
        second = t2 > t1
        larger = np.where(second, t2, t1)
        equal = t1 == t2
        symmetric = np.sqrt(-chi)
        smaller = -chi / larger
        t1, t2 = (np.where(equal, symmetric, np.where(second, smaller, t1)),
                  np.where(equal, symmetric, np.where(second, t2, smaller)))
        # admissible: the pair lies in the upper half plane, both t_k > 0
        admissible = (larger > 0.0) & (np.minimum(t1, t2) > 0.0)
        res = np.full(chi.shape, np.inf)
        res[admissible] = _residual(*(np.broadcast_to(v, chi.shape)[admissible]
                                      for v in (t1, t2, u, z, psi1, psi2)))
        # relative slack for rounding, which scales with |nu| however small it is
        bound = 1.0 + 1e-9
        checked = (admissible & ~(res > _TOL) & ~(t1 > bound * psi1 / u)
                   & ~(t2 > bound * psi2 / u))
        # chi = nu1 nu2 = (i t1)(i t2), real and negative for t_k > 0, which
        # is the axis structure
        pair = 0.0 - t1 * t2
        first = np.arange(len(chi)), checked.argmax(axis=1)
        # one distinct point: every checked root after the first is a copy of it
        at = pair[first][:, None]
        distinct = checked & (np.abs(pair - at) > 1e-10 * np.abs(at))
        self.t1, self.t2, self.residual, self.chi = t1[first], t2[first], res[first], pair[first]
        solved = checked.any(axis=1) & ~distinct.any(axis=1)
        best = np.where(np.isnan(res), np.inf, res).min(axis=1)
        _refuse(self.point_errors, np.flatnonzero(~solved).tolist(), lambda k: NoConvergence(
            f"{admissible[k].sum()} admissible quartic roots give "
            f"{len(_distinct(pair[k][checked[k]].tolist()))} distinct checked "
            f"points; best relative map residual {best[k]:.3e}", complex(0.0, self.u[k].item())))

    def _certify_arrays(self, chi, quintics, rows, unfactored):
        # the largest negative root chi*; the distinct roots within 1e-8 |chi*|
        # below chi*
        found = ~np.isnan(chi)
        top = np.where(found, chi, -np.inf).max(axis=1)[:, None]
        gap = top - chi
        rival = (1e-10 * -top < gap) & (gap < 1e-8 * -top)
        # the quintic's real roots in [chi*, 0), factored only for the rows
        # with a chi* and no error yet whose quintic the sign test cannot clear
        undecided = found.any(axis=1) & ~_clear_of_roots(quintics, top)
        undecided[list(self.chi_errors)] = False
        turns = np.full((len(chi), quintics.shape[1] - 1), _NAN)
        turn_failed = np.zeros(len(chi), dtype=bool)
        if undecided.any():
            turns[undecided], turn_failed[undecided] = _stacked_roots(quintics[undecided])
        turning = ((np.abs(turns.imag) <= 1e-9 * np.hypot(turns.real, turns.imag))
                   & (top <= turns.real) & (turns.real < 0.0))
        self.oracle = top[:, 0]
        failing = ~found.any(axis=1) | turn_failed | turning.any(axis=1) | rival.any(axis=1)

        def uncertified(k):
            lambda_bar, chi_top = rows[k][3], top[k, 0].item()
            if not found[k].any():
                message = f"no real non-positive root at lambda_bar = {lambda_bar}"
            elif turn_failed[k]:
                return unfactored(k)
            elif turning[k].any():
                message = (f"the root branch turns at chi = "
                           f"{turns.real[k, turning[k].argmax()].item()!r} in [{chi_top!r}, 0), "
                           f"so it leaves the real axis above lambda_bar = {lambda_bar}")
            else:
                message = (f"roots {chi_top!r} and {chi[k, rival[k].argmax()].item()!r} both "
                           "admissible within 1e-8 relative")
            return RootSelectionAmbiguous(message)

        _refuse(self.chi_errors, np.flatnonzero(failing).tolist(), uncertified)

    def point(self, k: int) -> SpectralPoint:
        """Row k's SpectralPoint, from its columns."""
        nu1, nu2 = complex(0.0, self.t1[k].item()), complex(0.0, self.t2[k].item())
        return SpectralPoint(xi=complex(0.0, self.u[k].item()), nu1=nu1, nu2=nu2,
                             chi=nu1 * nu2, residual=self.residual[k].item())


def _distinct(chis: list[float]) -> list[float]:
    """chis in order, less each one within 1e-10 relative of one kept before it."""
    points = []
    for c in chis:
        if all(abs(c - p) > 1e-10 * abs(p) for p in points):
            points.append(c)
    return points


def solve_at(zeta_sq: float, psi1: float, psi2: float, lambda_bar: float) -> SpectralPoint:
    """Solve the coupled equations at xi = i u, u = sqrt(psi1 psi2 lambda_bar).

    Every theory point lies there, and there chi = nu1 nu2 is a root of the
    quartic _quartic_coeffs.  Of its real roots, polished on the quartic,
    those that are negative (_negative_roots) are candidates.  A candidate
    determines the pair nu_k = i t_k, with t_k = (psi_k - s) / u and
    s = -zeta^2 chi / (1 - zeta^2 chi) - chi, and is admissible when that
    pair lies in the upper half plane.  The smaller component of that pair
    cancels when its psi_k is tiny, so it is rebuilt as chi over the larger
    one, which for a root of the quartic has the same sign; equal components
    are both rebuilt as sqrt(-chi).  Each admissible pair is checked, as
    built, on the coupled map: its residual relative to each component must
    be at most 1e-12, which also guards the quartic's coefficients.  The
    answer is the one distinct point (chi within 1e-10 relative) that meets
    the residual and passes the half-plane and norm-bound checks; none or
    several raise NoConvergence.  This is row 0 of a batch of one (_AxisBatch).
    """
    batch = _AxisBatch([(zeta_sq, psi1, psi2, lambda_bar)])
    if batch.point_errors:
        raise batch.point_errors[0]
    return batch.point(0)


def _rejected(zeta_sq, psi1, psi2, lambda_bar, u: float) -> ValueError:
    """The error of a row that fails validation: its first parameter that is
    not finite and positive, or else its product psi1 psi2 lambda_bar = u^2,
    which underflowed to 0 and left the target xi = i u on the real axis."""
    try:
        require_positive(lambda_bar=lambda_bar, zeta_sq=zeta_sq, psi1=psi1, psi2=psi2)
    except ValueError as exc:
        return exc
    zeta_sq, psi1, psi2, lambda_bar = map(_number, (zeta_sq, psi1, psi2, lambda_bar))
    return ValueError(
        f"the product psi1 psi2 lambda_bar = {u * u!r} underflowed, leaving the target "
        f"xi = i sqrt(psi1 psi2 lambda_bar) on the real axis, at psi1 = {psi1!r}, "
        f"psi2 = {psi2!r}, lambda_bar = {lambda_bar!r}, zeta_sq = {zeta_sq!r}"
    )


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


def chi_scalar_oracle(zeta_sq: float, psi1: float, psi2: float, lambda_bar: float) -> float:
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

    That question needs no roots where a sign test settles it: substituting
    chi = chi* t, the quintic on t in [0, 1] is a convex combination of its
    six Bernstein coefficients, so when all six share one sign, each clearing
    1e-12 of the sum of its terms' sizes (far above their rounding), it has
    no root on [chi*, 0] and the branch is certified.  Only a row the test
    cannot clear falls back on factoring the quintic (np.roots' roots) and
    testing its real roots in [chi*, 0).

    Every test is relative to |chi*|: roots within 1e-10 |chi*| of each other
    are copies of one root, as in solve_at, and the quintic's roots count as
    real within 1e-9 of their size.  Raises RootSelectionAmbiguous when no
    root is negative, when the fallback finds a real root of the quintic in
    [chi*, 0), or when
    a distinct negative root lies within 1e-8 |chi*| of chi*, the tolerance
    of the cross-check against solve_at.  This is row 0 of a batch of one
    (_AxisBatch).
    """
    batch = _AxisBatch([(zeta_sq, psi1, psi2, lambda_bar)])
    if batch.chi_errors:
        raise batch.chi_errors[0]
    return batch.oracle[0].item()
