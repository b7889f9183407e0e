"""Quartic solver and scalar quartic oracle: frozen values, invariants, agreement."""

import collections
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rfridge.risk
import rfridge.selfconsistent
from rfridge.risk import (
    ChiDisagreement,
    RiskDecomposition,
    TargetSpec,
    ridgeless_chi,
    risk_general,
    theory_columns,
)
from rfridge.selfconsistent import (
    InvariantViolation,
    NoConvergence,
    RootSelectionAmbiguous,
    SingularDenominator,
    SpectralPoint,
    _AxisBatch,
    attempt,
    chi_scalar_oracle,
    fixed_point_map,
    require_positive,
    solve_at,
)

# Extended-precision references, frozen from a 50-digit evaluation of the
# same equations (damped iteration to 1e-40, root tracked over 4000 nodes).
MAP_REF = (0.1865381322013723j, 0.2895519742991764j)
CHI_TRACKED = -1.17092773058736536  # zeta_sq=2.7519, psi=(2,3), lambda_bar=0.01
CHI_PLAIN = -1.049821365663834615  # zeta_sq=1, psi=(2,3), lambda_bar=0.1

# (zeta_sq, psi1, psi2)
PARAMS_A = ZETA_A, PSI1_A, PSI2_A = (2.7519, 2.0, 3.0)


def _lambda_at(shape, u):
    """The lambda_bar whose target xi = i sqrt(psi1 psi2 lambda_bar) is i u, to rounding."""
    return u * u / (shape[1] * shape[2])


def _quartic(z, p1, p2, u_sq, chi):
    b1 = z * p1 - z - 1.0
    b2 = z * p2 - z - 1.0
    P1 = z * chi**2 + b1 * chi - p1
    P2 = z * chi**2 + b2 * chi - p2
    return P1 * P2 + u_sq * chi * (1.0 - z * chi) ** 2


def test_map_at_origin_matches_large_xi_asymptote():
    K = 10.0
    f1, f2 = fixed_point_map(0.0, 0.0, complex(0.0, K), *PARAMS_A)
    assert f1 == pytest.approx(complex(0.0, PSI1_A / K), abs=1e-15)
    assert f2 == pytest.approx(complex(0.0, PSI2_A / K), abs=1e-15)


def test_map_frozen_pair():
    f1, f2 = fixed_point_map(0.1j, 0.2j, 10.0j, *PARAMS_A)
    assert f1 == pytest.approx(MAP_REF[0], abs=1e-15)
    assert f2 == pytest.approx(MAP_REF[1], abs=1e-15)


def test_map_singular_denominator():
    with pytest.raises(SingularDenominator):
        fixed_point_map(1.0j, -1.0j * (1.0 - 1e-16), 10.0j, 1.0, 2.0, 3.0)


def test_solve_at_residual_within_tolerance():
    point = solve_at(*PARAMS_A, _lambda_at(PARAMS_A, 10.0))
    assert point.residual <= 1e-12
    f1, f2 = fixed_point_map(point.nu1, point.nu2, point.xi, *PARAMS_A)
    assert abs(f1 - point.nu1) <= 1e-12
    assert abs(f2 - point.nu2) <= 1e-12
    assert point.nu1.imag > 0.0 and point.nu2.imag > 0.0


def test_solve_at_large_xi_asymptote():
    point = solve_at(*PARAMS_A, _lambda_at(PARAMS_A, 1e6))
    assert abs(point.xi * point.nu1 + PSI1_A) <= 1e-3
    assert abs(point.xi * point.nu2 + PSI2_A) <= 1e-3


def test_solve_at_symmetric_shapes_give_equal_components():
    params = (1.7, 2.5, 2.5)
    point = solve_at(*params, _lambda_at(params, 1.3))
    assert abs(point.nu1 - point.nu2) <= 1e-12 * abs(point.nu1)


def test_solve_at_swap_symmetry():
    lambda_bar = _lambda_at(PARAMS_A, 0.7)
    a = solve_at(ZETA_A, PSI1_A, PSI2_A, lambda_bar)
    b = solve_at(ZETA_A, PSI2_A, PSI1_A, lambda_bar)
    assert abs(a.nu1 - b.nu2) <= 1e-12 * abs(a.nu1)
    assert abs(a.nu2 - b.nu1) <= 1e-12 * abs(a.nu2)


def test_solve_at_chi_matches_tracked_reference():
    point = solve_at(*PARAMS_A, 0.01)
    assert point.chi.real == pytest.approx(CHI_TRACKED, rel=1e-9)
    assert abs(point.chi.imag) <= 1e-9


def test_solve_at_norm_bound_holds():
    for h in (0.3, 1.0, 30.0):
        point = solve_at(*PARAMS_A, _lambda_at(PARAMS_A, h))
        u = point.xi.imag
        assert abs(point.nu1) <= (1.0 + 1e-9) * PSI1_A / u
        assert abs(point.nu2) <= (1.0 + 1e-9) * PSI2_A / u


def test_solve_at_rejects_lower_half_plane():
    # xi = i sqrt(psi1 psi2 lambda_bar) leaves the upper half plane when
    # lambda_bar is not positive, or when the product underflows to 0
    with pytest.raises(ValueError, match="^lambda_bar must be finite and positive, got -4.0$"):
        solve_at(*PARAMS_A, -4.0)
    underflow = re.escape(
        "the product psi1 psi2 lambda_bar = 0.0 underflowed, leaving the target "
        "xi = i sqrt(psi1 psi2 lambda_bar) on the real axis, at psi1 = 1e-200, "
        "psi2 = 1e-200, lambda_bar = 1e-10, zeta_sq = 1.0"
    )
    with pytest.raises(ValueError, match=f"^{underflow}$"):
        solve_at(1.0, 1e-200, 1e-200, 1e-10)
    with pytest.raises(ValueError, match=f"^{underflow}$"):
        chi_scalar_oracle(1.0, 1e-200, 1e-200, 1e-10)
    # numpy scalars are named as the Python numbers they hold
    with pytest.raises(ValueError, match=f"^{underflow}$"):
        risk_general(*map(np.float64, (1.0, 1e-200, 1e-200, 1e-10)))


def _chi_50_digits(zeta_sq, psi1, psi2, u):
    """chi at xi = i u from a 50-digit solve that never starts from solve_at's answer.

    With x = -chi and s = zeta^2 x / (1 + zeta^2 x) + x, the quartic over
    (1 + zeta^2 x)^2 reads h(x) = (psi1 - s)(psi2 - s) - u^2 x.  The pair
    nu_k = i (psi_k - s) / u lies in the upper half plane exactly when
    s < min(psi1, psi2), that is for x in (0, x_max); there both factors are
    positive and falling, so h falls from psi1 psi2 > 0 to -u^2 x_max < 0 and
    has exactly one root.  Bisection in log x brackets it within a factor 2,
    and Newton, kept inside the bracket, finishes it.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        z, p1, p2, u = (mpmath.mpf(v) for v in (zeta_sq, psi1, psi2, u))
        m = min(p1, p2)
        b = 1 + z - z * m
        # the positive root of s(x) = m, that is of z x^2 + b x - m = 0
        x_max = 2 * m / (b + mpmath.sqrt(b * b + 4 * z * m))

        def h(x):
            s = z * x / (1 + z * x) + x
            ds = z / (1 + z * x) ** 2 + 1
            return (p1 - s) * (p2 - s) - u * u * x, -ds * (p1 + p2 - 2 * s) - u * u

        lo, hi = x_max * mpmath.mpf(10) ** -250, x_max
        assert h(lo)[0] > 0
        while hi > 2 * lo:
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if h(mid)[0] > 0 else (lo, mid)
        x, eps = hi, mpmath.mpf(10) ** -25
        for _ in range(200):
            f, df = h(x)
            if f == 0 or hi - lo <= eps * hi:
                return float(-x)
            lo, hi = (x, hi) if f > 0 else (lo, x)
            step = f / df
            if abs(step) <= eps * x:
                return float(-(x - step))
            x = x - step if lo < x - step < hi else (lo + hi) / 2
        raise AssertionError("the 50-digit reference did not converge")


def test_single_calls_over_the_wide_box_match_50_digits():
    # zeta_sq in [1e-3, 1e3], psi1 and psi2 in [1e-14, 1e6] and lambda_bar in
    # [1e-12, 1e60], log-uniform: tiny components, tiny chi and quartic
    # coefficients spanning ~1e50, where a residual that is not relative to
    # |nu| cannot tell a wrong root from the right one.  Every row solves,
    # and passes the cross-check of the two routes
    box = np.log([[1e-3, 1e3], [1e-14, 1e6], [1e-14, 1e6], [1e-12, 1e60]])
    points = np.exp(np.random.default_rng(7).uniform(box[:, 0], box[:, 1], (1000, 4)))
    for row in points.tolist():
        point, chi = solve_at(*row), chi_scalar_oracle(*row)
        ref = _chi_50_digits(*row[:3], point.xi.imag)
        assert point.chi.real == pytest.approx(ref, rel=1e-13, abs=0.0), row
        assert chi == pytest.approx(point.chi.real, rel=1e-8, abs=0.0), row


def _same_outcomes(batch, singles):
    """Values equal bitwise; an exception equal in type and message."""
    assert len(batch) == len(singles)
    for got, expected in zip(batch, singles):
        if isinstance(expected, Exception):
            assert type(got) is type(expected) and str(got) == str(expected)
        else:
            assert got == expected


def _batch_outcomes(rows):
    """solve_at's and chi_scalar_oracle's outcome at each row, read from one
    _AxisBatch of all rows: the row's error, else its point or its chi."""
    batch = _AxisBatch(rows)
    points = [batch.point_errors[k] if k in batch.point_errors else batch.point(k)
              for k in range(len(rows))]
    return points, [batch.chi_errors.get(k, chi) for k, chi in enumerate(batch.oracle.tolist())]


# a target per group of RiskDecomposition's factors that weighs them out of
# theory_columns: with the other factor finite, 1 f + 0 g is f exactly
_WEIGHED_FACTORS = (
    (None, {"bias_B": "bias_B", "var_V": "var_V"}),
    (TargetSpec(1.0), {"train_error": "train_signal", "norm_msq": "norm_signal"}),
    (TargetSpec(0.0, tau_sq=1.0), {"train_error": "train_noise", "norm_msq": "norm_noise"}),
)


def _same_columns(rows, expected):
    """theory_columns of the rows as general rows against risk_general's
    outcome at each row, expected: the same errors, in type and message,
    and on every other row each factor bitwise (_WEIGHED_FACTORS)."""
    n = len(rows)
    table = ["general"] * n, *np.array(rows, dtype=float).reshape(n, 4).T, np.full(n, math.nan)
    _, errors = theory_columns(*table)
    _same_outcomes([errors.get(k) for k in range(n)],
                   [e if isinstance(e, Exception) else None for e in expected])
    solved = [k for k in range(n) if k not in errors]
    for powers, factors in _WEIGHED_FACTORS:
        columns, _ = theory_columns(*table, powers)
        for column, factor in factors.items():
            np.testing.assert_array_equal(columns[column][solved],
                                          [getattr(expected[k], factor) for k in solved])


RELU_ZETA_SQ = math.pi / (math.pi - 2.0)


@pytest.mark.parametrize("points", [
    pytest.param(np.exp(np.random.default_rng(7).uniform(*np.log(
        [[1e-3, 1e-14, 1e-14, 1e-12], [1e3, 1e6, 1e6, 1e60]]), (1000, 4))), id="wide-box"),
    pytest.param(np.array([(RELU_ZETA_SQ, p, 3.0, 0.0110078)
                           for p in np.geomspace(0.5, 10.0, 161)]), id="benchmark-curve"),
])
def test_theory_columns_equal_single_calls_bitwise(points):
    # the wide box of test_single_calls_over_the_wide_box_match_50_digits
    # and the benchmark's psi1 curve, solved as one batch
    rows = points.tolist()
    points, chis = _batch_outcomes(rows)
    _same_outcomes(points, [attempt(solve_at, *row) for row in rows])
    _same_outcomes(chis, [attempt(chi_scalar_oracle, *row) for row in rows])
    _same_columns(rows, [attempt(risk_general, *row) for row in rows])


def unwrap(outcome):
    """The value of an outcome (a value, or the exception computing it
    raised), raising the exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _reference_polish(coeffs, chi):
    """Up to six Newton steps on the polynomial coeffs, by Horner on Python floats."""
    for _ in range(6):
        p = dp = 0.0
        for c in coeffs:
            dp = dp * chi + p
            p = p * chi + c
        if dp == 0.0:
            break
        step = p / dp
        if not math.isfinite(step) or chi - step == chi:
            break
        chi -= step
    return chi


def _reference_select(xi, shape, negative):
    """solve_at's selection, one candidate at a time in complex arithmetic;
    shape is (zeta_sq, psi1, psi2)."""
    u = xi.imag
    psi1, psi2 = shape[1:]
    admissible, best, points = 0, math.inf, []
    for chi in unwrap(negative):
        nu1, nu2 = _pair_from_chi(chi, shape, u)
        larger = max(nu1.imag, nu2.imag)
        if not larger > 0.0:
            continue
        if nu1.imag == nu2.imag:
            nu1 = nu2 = complex(0.0, math.sqrt(-chi))
        else:
            smaller = complex(0.0, -chi / larger)
            nu1, nu2 = (nu1, smaller) if nu1.imag == larger else (smaller, nu2)
        if min(nu1.imag, nu2.imag) == 0.0:
            continue
        admissible += 1
        f1, f2 = fixed_point_map(nu1, nu2, xi, *shape)
        res = max(abs(f1 - nu1) / abs(nu1), abs(f2 - nu2) / abs(nu2))
        best = min(best, res)
        if res > 1e-12 or nu1.imag <= 0.0 or nu2.imag <= 0.0:
            continue
        if abs(nu1) > (1.0 + 1e-9) * psi1 / u or abs(nu2) > (1.0 + 1e-9) * psi2 / u:
            continue
        chi = nu1 * nu2
        if abs(chi.imag) > 1e-10 * (1.0 + abs(chi)) or chi.real > 1e-10:
            continue
        if all(abs(chi - p.chi) > 1e-10 * abs(p.chi) for p in points):
            points.append(SpectralPoint(xi=xi, nu1=nu1, nu2=nu2, chi=chi, residual=res))
    if len(points) != 1:
        raise NoConvergence(
            f"{admissible} admissible quartic roots give {len(points)} distinct "
            f"checked points; best relative map residual {best:.3e}",
            xi,
        )
    return points[0]


def _reference_certify(lambda_bar, negative, turns):
    """chi_scalar_oracle's certificate, one root at a time."""
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


def _reference_decomposition(point, zeta_sq, psi1, psi2, lambda_bar):
    """risk_general's decomposition of a solved point, in Python floats."""
    point = unwrap(point)
    chi = point.chi.real
    z = zeta_sq
    e0, e1, e2, size = rfridge.risk._e_polynomials(chi, z, psi1, psi2)
    if rfridge.risk._e0_vanishes(e0, size):
        return rfridge.risk.RiskDecomposition(math.inf, math.inf, *[math.nan] * 4, True)
    overflow = rfridge.risk._overflow(f"the decomposition at chi = {chi!r}", zeta_sq=zeta_sq,
                                      psi1=psi1, psi2=psi2, lambda_bar=lambda_bar)
    # off the threshold a zero E0 has terms beyond the float range, and B
    # would not be finite: Python's division raises where numpy's gives inf
    if e0 == 0.0:
        raise overflow
    z2 = z * z
    m = point.nu2.imag * math.sqrt(lambda_bar * psi1 / psi2)
    a_signal = -(chi * chi) * (chi * z2 - chi * z + psi2 * z + z - chi * psi2 * z2 + 1.0)
    a_noise = chi * chi * (chi * z - 1.0) * (chi * chi * z2 - 2.0 * chi * z + z + 1.0)
    parts = (m / (1.0 - chi * z), m, a_signal / e0, a_noise / e0)
    factors = (e1 / e0, e2 / e0, *(max(p, 0.0) for p in parts))
    if not all(map(math.isfinite, (e0, e1, e2, *factors))):
        raise overflow
    if min(parts) < -1e-10:
        raise InvariantViolation(
            f"negative training factors {parts} at psi1={psi1}, psi2={psi2}, "
            f"lambda_bar={lambda_bar}"
        )
    return rfridge.risk.RiskDecomposition(*factors)


def _cross_checked(row: tuple, point, chi_or) -> SpectralPoint:
    """The solved point of one row, once its chi agrees with the oracle's."""
    point, chi_or = unwrap(point), unwrap(chi_or)
    if abs(point.chi.real - chi_or) > 1e-8 * abs(chi_or):
        zeta_sq, psi1, psi2, lambda_bar = row
        raise ChiDisagreement(
            f"fixed-point chi = {point.chi.real!r} vs quartic-oracle chi = {chi_or!r} "
            f"at (zeta_sq={zeta_sq}, psi1={psi1}, psi2={psi2}, lambda_bar={lambda_bar})"
        )
    return point


def _reference_row(zeta_sq, psi1, psi2, lambda_bar):
    """solve_at's and chi_scalar_oracle's outcomes, the cross-checked point and
    risk_general's outcome at one row, computed the way they were before the
    array batch: np.roots of the row's own quartic and
    quintic, a scalar Newton polish of each real root, and the selection,
    certificate and decomposition one candidate at a time."""
    sc = rfridge.selfconsistent
    try:
        require_positive(lambda_bar=lambda_bar, zeta_sq=zeta_sq, psi1=psi1, psi2=psi2)
        u = math.sqrt(psi1 * psi2 * lambda_bar)
        if u == 0.0:
            raise ValueError(
                "the product psi1 psi2 lambda_bar = 0.0 underflowed, leaving the target "
                f"xi = i sqrt(psi1 psi2 lambda_bar) on the real axis, at psi1 = {psi1!r}, "
                f"psi2 = {psi2!r}, lambda_bar = {lambda_bar!r}, zeta_sq = {zeta_sq!r}"
            )
    except ValueError as exc:
        return (exc, exc), exc, exc
    xi = complex(0.0, u)
    with np.errstate(all="ignore"):
        n_coeffs, quartic = sc._quartic_coeffs(zeta_sq, psi1, psi2, [0.0, u * u]).tolist()
        real = attempt(lambda: [r.real for r in np.roots(quartic).tolist() if r.imag == 0.0])
    shape = {"psi1": psi1, "psi2": psi2, "zeta_sq": zeta_sq}
    unfactored = {"into": "its companion matrix", **shape, "psi1 psi2 lambda_bar": u * u}
    if not all(math.isfinite(c) for c in quartic):
        negative = sc._overflow(f"the product psi1 psi2 lambda_bar = {u * u!r}",
                                into="the quartic in chi", **shape)
    elif isinstance(real, np.linalg.LinAlgError):
        negative = sc._overflow("the quartic in chi", **unfactored)
    else:
        negative = [c for c in (_reference_polish(quartic, r) for r in real) if c < 0.0]
    n4, n3, n2, n1, n0 = n_coeffs
    z = zeta_sq
    quintic = [-z * n4, 3.0 * n4, 2.0 * n3 + z * n2, n2 + 2.0 * z * n1, 3.0 * z * n0, -n0]
    with np.errstate(all="ignore"):
        turns = attempt(lambda: np.roots(quintic).tolist())
    # with a leading -inf, np.roots gives five zero roots and a passing certificate
    if not all(math.isfinite(c) for c in quintic) or isinstance(turns, np.linalg.LinAlgError):
        turns = sc._overflow("the oracle's quintic in chi", **unfactored)
    row = (zeta_sq, psi1, psi2, lambda_bar)
    solved = (attempt(_reference_select, xi, row[:3], negative),
              attempt(_reference_certify, lambda_bar, negative, turns))
    point = attempt(_cross_checked, row, *solved)
    return solved, point, attempt(_reference_decomposition, point, *row)


@pytest.mark.parametrize("perturb", [None, (1, 1.001), (2, 1.01), (3, -1.0)],
                         ids=["exact", "cubic-0.1%", "quadratic-1%", "linear-flipped"])
def test_the_batch_equals_the_per_row_reference(perturb, monkeypatch):
    # the first 1,000 points of the wide box, and the same points with one
    # quartic coefficient perturbed so that rows fail in the selection (70,
    # 280 and 1,000 NoConvergence rows) and, with the linear coefficient
    # flipped, in the certificate too: every outcome of the batch, from
    # the solve and the oracle to the decomposition, is bitwise the
    # reference's value or an exception equal in type and message.  No row reaches the cross-check;
    # test_the_cross_check_raises_the_reference_disagreement does
    box = np.log([[1e-3, 1e3], [1e-14, 1e6], [1e-14, 1e6], [1e-12, 1e60]])
    points = np.exp(np.random.default_rng(7).uniform(box[:, 0], box[:, 1], (1000, 4)))
    if perturb is not None:
        coeffs = rfridge.selfconsistent._quartic_coeffs

        def perturbed(*args):
            row = coeffs(*args).copy()
            row[..., perturb[0]] *= perturb[1]
            return row

        monkeypatch.setattr(rfridge.selfconsistent, "_quartic_coeffs", perturbed)
    expected = [_reference_row(*point) for point in points.tolist()]
    for k, outcomes in enumerate(_batch_outcomes(points.tolist())):
        _same_outcomes(outcomes, [row[0][k] for row in expected])
    _same_columns(points.tolist(), [row[2] for row in expected])
    kinds = collections.Counter(type(outcome).__name__ for row in expected
                                for outcome in (*row[0], row[2]))
    if perturb is None:
        assert kinds["RiskDecomposition"] == 1000
    else:
        assert kinds["NoConvergence"] + kinds["RootSelectionAmbiguous"] >= 100


@np.errstate(over="ignore")
def test_stacked_roots_are_np_roots_row_by_row():
    # rows that np.roots trims to other degrees (leading or trailing zeros, a
    # constant, all zeros) and one it rejects, stacked among ordinary quartics
    polys = np.array([
        [1.0, -3.0, 2.0, 5.0, 1.0],
        [0.0, 1.0, 2.0, 3.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 2.0, 0.0],
        [2.0, 1.0, 0.0, 0.0, 0.0],
        [1.0, np.inf, 1.0, 1.0, 1.0],
        [3.0, -1.0, 4.0, 1.0, -5.0],
        # finite, but its companion matrix overflows, so it is kept out of the stack
        [1e-300, 1e300, 1.0, 1.0, 1.0],
    ])
    found, failed = rfridge.selfconsistent._stacked_roots(polys)
    assert failed.tolist() == [False] * 5 + [True, False, True]
    for k, (row, roots) in enumerate(zip(polys, found.tolist())):
        try:
            expected = np.roots(row).tolist()
        except np.linalg.LinAlgError:
            assert failed[k]
            expected = []
        else:
            assert not failed[k]
        # a row's roots come first, nan pads it to the degree of polys
        assert roots[:len(expected)] == expected
        assert all(math.isnan(r.real) and math.isnan(r.imag) for r in roots[len(expected):])


def test_a_row_that_is_not_finite_fails_alone():
    # psi1 psi2 lambda_bar overflows, so u^2 and the row's quartic are inf; at
    # 1e307 the product is finite but its zeta^4 multiple, a coefficient, is not:
    # those rows, and only those, fail by name, whatever np.roots makes of them
    points = [(RELU_ZETA_SQ, p, 3.0, 0.01) for p in (0.5, 2.0, 8.0)]
    points.insert(1, (RELU_ZETA_SQ, 2.0, 3.0, 1e308))
    points.insert(3, (RELU_ZETA_SQ, 2.0, 3.0, 1e307))
    singles = [attempt(risk_general, *point) for point in points]
    for failed, product in ((singles[1], "inf"), (singles[3], "6e+307")):
        assert type(failed) is ValueError
        assert str(failed) == (
            f"the product psi1 psi2 lambda_bar = {product} overflowed the quartic in chi "
            f"at psi1 = 2.0, psi2 = 3.0, zeta_sq = {RELU_ZETA_SQ!r}"
        )
    assert all(isinstance(singles[k], RiskDecomposition) for k in (0, 2, 4))
    _same_columns(points, singles)


def test_rows_the_stack_cannot_take_are_np_roots_own(monkeypatch):
    # zeta^4 underflows to a leading 0 in the first row's quartic and quintic;
    # the second row's quartic and quintic are finite but their companion
    # matrices overflow, and the third row's quintic is not finite (its third
    # coefficient is -inf, and the last row's leading one): those rows fail
    # by the polynomial's name, and every row is the per-row reference's,
    # which factors each finite polynomial with np.roots.  Only the first two
    # rows' quartics leave the stack for np.roots: the sign test clears the
    # first row's quintic, the second row's quartic has already failed, the
    # quintics that are not finite fail without a call, and the last row's
    # quartic is stacked.
    points = [(1e-170, 2.0, 3.0, 0.01), (0.5, 1e154, 1e154, 1e-300),
              (1e20, 1e-20, 1e256, 1e-188), (RELU_ZETA_SQ, 2.0, 3.0, 0.01),
              (1e120, 1.0, 2.0, 0.01)]
    expected = [_reference_row(*point) for point in points]
    roots, calls = np.roots, []
    monkeypatch.setattr(np, "roots", lambda p: calls.append(len(p)) or roots(p))
    for k, outcomes in enumerate(_batch_outcomes(points)):
        _same_outcomes(outcomes, [row[0][k] for row in expected])
    assert calls == [5, 5]
    _same_columns(points, [row[2] for row in expected])
    assert isinstance(expected[0][1], SpectralPoint)
    assert str(expected[1][1]) == (
        "the quartic in chi overflowed its companion matrix at psi1 = 1e+154, psi2 = 1e+154, "
        "zeta_sq = 0.5, psi1 psi2 lambda_bar = 100000000.0")
    for k in (2, 4):
        assert str(expected[k][1]).startswith("the oracle's quintic in chi overflowed")
    assert all(type(row[1]) is ValueError for row in expected[1:3] + expected[4:])


def test_rows_that_are_not_finite_reach_no_np_roots(monkeypatch):
    # a negative psi1 makes u, and with it the row's quartic and quintic, nan:
    # the row keeps its validation error and costs no np.roots call
    roots, calls = np.roots, []
    monkeypatch.setattr(np, "roots", lambda p: calls.append(len(p)) or roots(p))
    columns, errors = theory_columns(["general"] * 3, [2.0] * 3, [-1.0, 2.0, -1.0], [3.0] * 3,
                                     [0.01] * 3, [math.nan] * 3)
    assert calls == []
    assert sorted(errors) == [0, 2] and all(type(e) is ValueError for e in errors.values())
    assert str(errors[0]) == "psi1 must be finite and positive, got -1.0"
    assert math.isfinite(columns["bias_B"][1]) and math.isfinite(columns["var_V"][1])


def test_an_overflowing_companion_matrix_leaves_the_other_rows_stacked(monkeypatch):
    # the benchmark's 161-point curve plus one row whose quartic and quintic
    # companion matrices overflow: np.roots factors that row's quartic, which
    # fails, and nothing else, and the curve's rows keep their stack and
    # outcomes; the sign test clears every curve row's quintic
    curve = [(RELU_ZETA_SQ, p, 3.0, 0.0110078) for p in np.geomspace(0.5, 10.0, 161).tolist()]
    expected = _batch_outcomes(curve)
    eigvals, shapes = np.linalg.eigvals, []
    roots, calls = np.roots, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(np.shape(a)) or eigvals(a))
    monkeypatch.setattr(np, "roots", lambda p: calls.append(len(p)) or roots(p))
    with np.errstate(over="ignore"):
        outcomes = _batch_outcomes(curve + [(0.5, 1e154, 1e154, 1e-300)])
    for got, want in zip(outcomes, expected):
        assert got[:161] == want
        assert type(got[161]) is ValueError
        assert str(got[161]).startswith("the quartic in chi overflowed its companion matrix")
    assert calls == [5]
    assert shapes == [(161, 4, 4)]


def test_the_cross_check_raises_the_reference_disagreement(monkeypatch):
    # the oracle of every 20th row of the benchmark curve, scaled 1e-6 past
    # the 1e-8 the cross-check allows: each such row holds exactly the
    # per-row reference's ChiDisagreement, and every other row its single call's
    curve = [(RELU_ZETA_SQ, p, 3.0, 0.0110078) for p in np.geomspace(0.5, 10.0, 161).tolist()]
    flagged = slice(0, None, 20)
    risks = [risk_general(*row) for row in curve]
    for k in range(len(curve))[flagged]:
        chi = chi_scalar_oracle(*curve[k]) * (1.0 + 1e-6)
        risks[k] = attempt(_cross_checked, curve[k], solve_at(*curve[k]), chi)
        assert type(risks[k]) is ChiDisagreement
    certify = rfridge.selfconsistent._AxisBatch._certify_arrays

    def perturbed(batch, *args):
        certify(batch, *args)
        batch.oracle[flagged] *= 1.0 + 1e-6

    monkeypatch.setattr(rfridge.selfconsistent._AxisBatch, "_certify_arrays", perturbed)
    _same_columns(curve, risks)


def test_a_row_that_fails_validation_keeps_that_error():
    # every row of a batch takes the stacked solve; rows that fail validation
    # and whose polynomials also fail (not finite, or rejected by np.roots),
    # interleaved with valid rows, hold exactly their single call's
    # validation error, the valid rows their single call's value, and no
    # failing row's columns warn (a RuntimeWarning fails the suite)
    points = [(RELU_ZETA_SQ, 2.0, 3.0, 0.01), (RELU_ZETA_SQ, -1.0, 3.0, 1e308),
              (RELU_ZETA_SQ, 4.0, 3.0, 0.05), (RELU_ZETA_SQ, 1e154, 1e154, -1e-300),
              (math.nan, 2.0, 3.0, 0.01), (RELU_ZETA_SQ, 0.5, 3.0, 0.02),
              (RELU_ZETA_SQ, 2.0, 3.0, 0.0), (RELU_ZETA_SQ, 0.0, 3.0, 0.01),
              (RELU_ZETA_SQ, 8.0, 3.0, 1.0)]
    refused = {1: "psi1 must be finite and positive, got -1.0",
               3: "lambda_bar must be finite and positive, got -1e-300",
               4: "zeta_sq must be finite and positive, got nan",
               6: "lambda_bar must be finite and positive, got 0.0",
               7: "psi1 must be finite and positive, got 0.0"}
    singles = [[attempt(f, *point) for point in points]
               for f in (solve_at, chi_scalar_oracle, risk_general)]
    for outcomes in singles:
        for k, outcome in enumerate(outcomes):
            if k in refused:
                assert type(outcome) is ValueError and str(outcome) == refused[k]
            else:
                assert not isinstance(outcome, Exception)
    for k, outcomes in enumerate(_batch_outcomes(points)):
        _same_outcomes(outcomes, singles[k])
    _same_columns(points, singles[2])


def test_a_batch_with_a_failing_row_raises_in_row_order():
    # every row of theory_columns is risk_general's outcome, and the earliest
    # failing row's error, the one the CLI raises, is the lowest key
    lambda_bar = [0.01, -1.0, 1e308]
    columns, errors = theory_columns(["general"] * 3, [RELU_ZETA_SQ] * 3, [2.0] * 3, [3.0] * 3,
                                     lambda_bar, [math.nan] * 3)
    dec = risk_general(RELU_ZETA_SQ, 2.0, 3.0, 0.01)
    assert (columns["bias_B"][0], columns["var_V"][0]) == (dec.bias_B, dec.var_V)
    assert sorted(errors) == [1, 2]
    with pytest.raises(ValueError, match="lambda_bar must be finite and positive, got -1.0"):
        raise errors[min(errors)]
    assert type(errors[2]) is ValueError
    assert "the product psi1 psi2 lambda_bar = inf overflowed" in str(errors[2])


def test_a_perturbed_quartic_coefficient_never_yields_a_different_point(monkeypatch):
    # a root of a wrong quartic gives a pair that fails the coupled map's
    # residual: it is rejected, never rescued, and never turns into a value
    truth = solve_at(*PARAMS_A, 0.01)
    coeffs = rfridge.selfconsistent._quartic_coeffs
    outcomes = collections.Counter()
    for index in range(5):
        for factor in (1.001, 2.0, -1.0, 0.0, 10.0, 1e-3):
            def perturbed(*args, index=index, factor=factor):
                row = coeffs(*args).copy()
                row[..., index] *= factor
                return row

            monkeypatch.setattr(rfridge.selfconsistent, "_quartic_coeffs", perturbed)
            try:
                point = solve_at(*PARAMS_A, 0.01)
            except NoConvergence:
                outcomes["NoConvergence"] += 1
                continue
            assert point.chi == pytest.approx(truth.chi, rel=1e-10), (index, factor)
            outcomes["unchanged"] += 1
    assert outcomes == {"NoConvergence": 30}


@pytest.mark.parametrize("fault", ["no admissible root", "two admissible roots",
                                   "residual misses tol"])
def test_direct_route_failures_raise_no_convergence(fault, monkeypatch):
    xi = complex(0.0, math.sqrt(2.0 * 3.0 * 0.01))
    residuals = []
    residual = rfridge.selfconsistent._residual

    def checked(*args):
        # one residual per admissible pair of the batch
        found = residual(*args)
        residuals.extend(found.tolist())
        if fault == "residual misses tol":
            return np.full_like(found, 10.0 * rfridge.selfconsistent._TOL)
        # a gate that passes every pair lets a second, distinct one through
        return np.zeros_like(found) if fault == "two admissible roots" else found

    monkeypatch.setattr(rfridge.selfconsistent, "_residual", checked)
    if fault == "no admissible root":
        monkeypatch.setattr(rfridge.selfconsistent, "_stacked_roots", lambda polys: (
            np.tile([1.0 + 1.0j, 1.0 - 1.0j, 2.0, 3.0], (len(polys), 1)),
            np.zeros(len(polys), dtype=bool)))
    elif fault == "two admissible roots":
        # each root gains a copy 1e-6 relative away, as if polished short of it;
        # a copy made through _stacked_roots would be polished back onto the root
        negative = rfridge.selfconsistent._negative_roots
        monkeypatch.setattr(rfridge.selfconsistent, "_negative_roots", lambda *args: np.hstack(
            [negative(*args) * f for f in (1.0, 1.0 + 1e-6)]))
    with pytest.raises(NoConvergence, match="admissible quartic roots") as info:
        solve_at(*PARAMS_A, 0.01)
    assert info.value.xi == xi
    assert len(residuals) == {"no admissible root": 0, "two admissible roots": 2}.get(fault, 1)


def test_duplicate_roots_polish_to_one_point(monkeypatch):
    expected = solve_at(*PARAMS_A, 0.01)
    stacked = rfridge.selfconsistent._stacked_roots

    def twice(polys):
        roots, failed = stacked(polys)
        return np.hstack([roots, roots]), failed

    monkeypatch.setattr(rfridge.selfconsistent, "_stacked_roots", twice)
    assert solve_at(*PARAMS_A, 0.01) == expected


def test_no_convergence_carries_xi(monkeypatch):
    # a quartic whose constant term has the wrong sign has no admissible root
    # whose pair solves the coupled map; the error names the count and residual
    coeffs = rfridge.selfconsistent._quartic_coeffs

    def flipped(*args):
        row = coeffs(*args).copy()
        row[..., 4] *= -1.0
        return row

    monkeypatch.setattr(rfridge.selfconsistent, "_quartic_coeffs", flipped)
    lambda_bar = _lambda_at(PARAMS_A, 0.4)
    with pytest.raises(NoConvergence, match=r"give 0 distinct checked points; "
                       r"best relative map residual") as info:
        solve_at(*PARAMS_A, lambda_bar)
    assert info.value.xi == complex(0.0, math.sqrt(PSI1_A * PSI2_A * lambda_bar))


def test_solve_at_matches_50_digits_on_the_axis():
    point = solve_at(*PARAMS_A, _lambda_at(PARAMS_A, 0.4))
    ref = _chi_50_digits(*PARAMS_A, point.xi.imag)
    assert point.chi.real == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_every_entry_point_validates_a_row_alike():
    cases = [
        ((0.0, 1.0, 1.0, 0.1), "zeta_sq must be finite and positive, got 0.0"),
        ((1.0, -2.0, 1.0, 0.1), "psi1 must be finite and positive, got -2.0"),
        ((1.0, 1.0, math.inf, 0.1), "psi2 must be finite and positive, got inf"),
        # lambda_bar is named first, then the shape in order
        ((math.nan, -2.0, 1.0, 0.0), "lambda_bar must be finite and positive, got 0.0"),
        ((math.nan, -2.0, 1.0, 0.1), "zeta_sq must be finite and positive, got nan"),
    ]
    for row, message in cases:
        for entry in (solve_at, chi_scalar_oracle, risk_general):
            with pytest.raises(ValueError) as info:
                entry(*row)
            assert str(info.value) == message
        batch = _AxisBatch([row])
        point, chi = batch.point_errors[0], batch.chi_errors[0]
        assert type(point) is ValueError and point is chi and str(point) == message


def test_oracle_frozen_value_and_quartic_residual():
    chi = chi_scalar_oracle(1.0, 2.0, 3.0, 0.1)
    assert chi == pytest.approx(CHI_PLAIN, rel=1e-11)
    res = _quartic(1.0, 2.0, 3.0, 2.0 * 3.0 * 0.1, chi)
    assert abs(res) <= 1e-10 * max(1.0, abs(chi))


def test_oracle_tracks_through_coexisting_negative_roots():
    # At these parameters the quartic has two real negative roots, so the
    # sign filter alone cannot identify chi; the branch certificate does.
    lam_bar = 0.01
    z, p1, p2 = PARAMS_A
    u_sq = p1 * p2 * lam_bar
    b1 = z * p1 - z - 1.0
    b2 = z * p2 - z - 1.0
    coeffs = [
        z * z,
        z * (b1 + b2) + u_sq * z * z,
        b1 * b2 - z * (p1 + p2) - 2.0 * u_sq * z,
        -b1 * p2 - b2 * p1 + u_sq,
        p1 * p2,
    ]
    roots = np.roots(coeffs)
    real_negative = sorted(
        r.real for r in roots if abs(r.imag) < 1e-9 and r.real < 0.0
    )
    assert len(real_negative) == 2

    chi = chi_scalar_oracle(*PARAMS_A, lam_bar)
    assert chi == pytest.approx(CHI_TRACKED, rel=1e-11)
    assert chi == pytest.approx(real_negative[1], rel=1e-9)
    assert abs(chi - real_negative[0]) > 0.5


def test_oracle_large_lambda_drives_chi_to_zero_from_below():
    chi = chi_scalar_oracle(*PARAMS_A, 1e8)
    assert -1e-6 < chi < 0.0


def test_oracle_small_lambda_approaches_ridgeless_root():
    for params in (PARAMS_A, (1.0, 0.5, 4.0)):
        chi = chi_scalar_oracle(*params, 1e-10)
        ref = ridgeless_chi(*params)
        assert chi == pytest.approx(ref, abs=1e-6)


def _path_start(z, p1, p2, u_target):
    """Start of a tracking path down to u_target: a decade above it, and high
    enough that chi sits on its large-|xi| asymptote -psi1 psi2 / u^2."""
    height = 10.0 * (p1 + p2) * max(1.0, math.sqrt(z))
    return max(100.0, 10.0 * u_target, height)


def _roots_loop_oracle(z, p1, p2, lambda_bar, steps=192):
    """Reference oracle: one np.roots call per path node, tracked node by node."""
    u_target = math.sqrt(p1 * p2 * lambda_bar)
    u_start = _path_start(z, p1, p2, u_target)
    chi = complex(-p1 * p2 / (u_start * u_start), 0.0)
    ratio = u_target / u_start
    displacement = 0.0
    roots = None
    for k in range(1, steps + 1):
        u = u_start * ratio ** (k / steps)
        u_sq = u * u
        b1 = z * p1 - z - 1.0
        b2 = z * p2 - z - 1.0
        coeffs = [
            z * z,
            z * (b1 + b2) + u_sq * z * z,
            b1 * b2 - z * (p1 + p2) - 2.0 * u_sq * z,
            -b1 * p2 - b2 * p1 + u_sq,
            p1 * p2,
        ]
        roots = np.roots(np.array(coeffs))
        nearest = roots[np.argmin(np.abs(roots - chi))]
        displacement = abs(nearest - chi)
        chi = nearest
    if abs(chi.imag) > 1e-9 or chi.real > 1e-12:
        raise RootSelectionAmbiguous(f"tracked root {chi} is not admissible")
    resolution = 10.0 * displacement + 1e-13 * (1.0 + abs(chi))
    for r in roots:
        if abs(r - chi) < 1e-16:
            continue
        if abs(r.imag) <= 1e-9 and r.real <= 1e-12 and abs(r - chi) < resolution:
            raise RootSelectionAmbiguous(f"roots {chi} and {r} both admissible")
    # the oracle's polish, on the quartic of the last node (the target up to rounding)
    return _reference_polish(coeffs, chi.real)


def _outcome(oracle, *row):
    try:
        return oracle(*row)
    except Exception as exc:  # the reference and the oracle must fail alike
        return type(exc)


def _assert_same_outcome(got, expected, where):
    # the references solve the last node of their path, the oracle the target
    # itself, so values agree to rounding rather than bitwise
    if isinstance(expected, type):
        assert got is expected, where
    else:
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0), where


def test_oracle_matches_the_roots_loop():
    rng = np.random.default_rng(20191)
    failures = 0
    for _ in range(200):
        row = (
            math.exp(rng.uniform(math.log(0.01), math.log(100.0))),
            math.exp(rng.uniform(math.log(0.01), math.log(1e4))),
            math.exp(rng.uniform(math.log(0.01), math.log(1e3))),
            math.exp(rng.uniform(math.log(1e-9), math.log(1e4))),
        )
        expected = _outcome(_roots_loop_oracle, *row)
        _assert_same_outcome(_outcome(chi_scalar_oracle, *row), expected, row)
        failures += isinstance(expected, type)
    # the box must exercise the value path, not only the failure path
    assert failures < 20


def _tracking_oracle(z, p1, p2, lambda_bar, steps=192):
    """Reference oracle: all path nodes solved in one batched eigvals call, and
    the root followed node by node by nearest-neighbor continuity."""
    sc = rfridge.selfconsistent
    u_target = math.sqrt(p1 * p2 * lambda_bar)
    u_start = _path_start(z, p1, p2, u_target)
    chi = complex(-p1 * p2 / (u_start * u_start), 0.0)
    ratio = u_target / u_start
    nodes = [u_start * ratio ** (k / steps) for k in range(1, steps + 1)]
    coeffs = sc._quartic_coeffs(z, p1, p2, [u * u for u in nodes])
    companion = np.zeros((steps, 4, 4))
    companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    displacement = 0.0
    roots = None
    for roots in np.linalg.eigvals(companion).tolist():
        nearest = min(roots, key=lambda r: abs(r - chi))
        displacement = abs(nearest - chi)
        chi = nearest
    if abs(chi.imag) > 1e-9 or chi.real > 1e-12:
        raise RootSelectionAmbiguous(f"tracked root {chi} is not admissible")
    resolution = 10.0 * displacement + 1e-13 * (1.0 + abs(chi))
    for r in roots:
        if abs(r - chi) < 1e-16:
            continue
        if abs(r.imag) <= 1e-9 and r.real <= 1e-12 and abs(r - chi) < resolution:
            raise RootSelectionAmbiguous(f"roots {chi} and {r} both admissible")
    # the oracle's polish, on the quartic of the last node (the target up to rounding)
    return _reference_polish(coeffs[-1].tolist(), chi.real)


def test_oracle_equals_the_tracking_reference_over_the_stress_box():
    # zeta_sq in [0.01, 100], psi1 in [0.01, 1e4], psi2 in [0.01, 1e3] and
    # lambda_bar in [1e-9, 1e8], log-uniform
    box = np.log([[0.01, 100.0], [0.01, 1e4], [0.01, 1e3], [1e-9, 1e8]])
    points = np.exp(np.random.default_rng(9).uniform(box[:, 0], box[:, 1], (2000, 4)))
    values = 0
    for z, p1, p2, lb in points.tolist():
        expected = _outcome(_tracking_oracle, z, p1, p2, lb)
        _assert_same_outcome(_outcome(chi_scalar_oracle, z, p1, p2, lb), expected, (z, p1, p2, lb))
        values += not isinstance(expected, type)
    assert values >= 1900


def _synthetic_quartic(n_coeffs):
    """A stand-in for _quartic_coeffs whose u = 0 polynomial is N = n_coeffs.

    Each row is N + u_sq D with D = chi (1 - zeta^2 chi)^2, the structure the
    certificate relies on; only the N of the real quartic is replaced.
    """
    def coeffs(zeta_sq, psi1, psi2, u_sq):
        z = np.asarray(zeta_sq, dtype=float)[..., None]
        d = z * z * [0.0, 1.0, 0.0, 0.0, 0.0] - 2.0 * z * [0.0, 0.0, 1.0, 0.0, 0.0]
        d = d + [0.0, 0.0, 0.0, 1.0, 0.0]
        return np.asarray(n_coeffs, dtype=float) + np.asarray(u_sq, dtype=float)[..., None] * d
    return coeffs


# zeta_sq = psi1 = psi2 = 1, so lambda_bar = u^2 at the target
UNIT_PARAMS = (1.0, 1.0, 1.0)


def test_oracle_certificate_rejects_a_branch_that_turns(monkeypatch):
    # N = ((chi + 1)^2 + 0.01) (chi + 3) (chi + 4): g = -N/D dips to about 0.015
    # near chi = -1 and falls to 0 at chi = -3, so at u^2 = 0.01 the only real
    # roots lie left of the dip, and the branch from 0- turned off the axis
    n = np.polymul(np.polymul([1.0, 2.0, 1.01], [1.0, 3.0]), [1.0, 4.0])
    monkeypatch.setattr(rfridge.selfconsistent, "_quartic_coeffs", _synthetic_quartic(n))
    coeffs = rfridge.selfconsistent._quartic_coeffs(1.0, 1.0, 1.0, [0.01])[0]
    real_negative = [r.real for r in np.roots(coeffs) if r.imag == 0.0 and r.real < 0.0]
    assert real_negative and max(real_negative) < -2.0
    with pytest.raises(RootSelectionAmbiguous, match="turns"):
        chi_scalar_oracle(*UNIT_PARAMS, 0.01)
    # tracking ends off the real axis at the same point
    assert _outcome(_tracking_oracle, *UNIT_PARAMS, 0.01) is RootSelectionAmbiguous
    # above the dip the branch has not turned yet, and both oracles agree
    chi = chi_scalar_oracle(*UNIT_PARAMS, 0.05)
    assert chi == _tracking_oracle(*UNIT_PARAMS, 0.05) and -1.0 < chi < 0.0


def test_oracle_without_an_admissible_root_is_ambiguous(monkeypatch):
    # N = ((chi + 1)^2 + 1) (chi^2 + 1) > 0 keeps g = -N/D above 0.25 on chi < 0
    # and negative on chi > 0, so at u^2 = 0.01 all four roots are complex
    n = np.polymul([1.0, 2.0, 2.0], [1.0, 0.0, 1.0])
    monkeypatch.setattr(rfridge.selfconsistent, "_quartic_coeffs", _synthetic_quartic(n))
    assert all(r.imag != 0.0 for r in np.roots(rfridge.selfconsistent._quartic_coeffs(
        1.0, 1.0, 1.0, [0.01])[0]))
    with pytest.raises(RootSelectionAmbiguous, match="no real non-positive root"):
        chi_scalar_oracle(*UNIT_PARAMS, 0.01)
    assert _outcome(_tracking_oracle, *UNIT_PARAMS, 0.01) is RootSelectionAmbiguous


def _counting_eigvals(monkeypatch) -> list:
    """Record the shape of every eigvals call; np.roots must not be called at all."""
    eigvals = np.linalg.eigvals
    shapes = []

    def counting(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    def no_roots(p):
        raise AssertionError("np.roots called")

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    monkeypatch.setattr(np, "roots", no_roots)
    return shapes


def test_a_distinct_root_just_below_the_branch_is_ambiguous(monkeypatch):
    # every candidate gains a copy 3e-9 relative below it, a distinct root
    # within the 1e-8 the cross-check allows
    chi = chi_scalar_oracle(*PARAMS_A, 0.01)
    negative = rfridge.selfconsistent._negative_roots
    monkeypatch.setattr(rfridge.selfconsistent, "_negative_roots", lambda *args: np.hstack(
        [negative(*args) * f for f in (1.0, 1.0 + 3e-9)]))
    with pytest.raises(RootSelectionAmbiguous) as info:
        chi_scalar_oracle(*PARAMS_A, 0.01)
    assert str(info.value) == (
        f"roots {chi!r} and {chi * (1.0 + 3e-9)!r} both admissible within 1e-8 relative")


def test_oracle_factors_at_most_two_polynomials(monkeypatch):
    # a count, not a timing: the target quartic, where tracking a path
    # factors one quartic per node; the sign test clears the quintic
    expected = chi_scalar_oracle(*PARAMS_A, 0.01)
    shapes = _counting_eigvals(monkeypatch)
    assert chi_scalar_oracle(*PARAMS_A, 0.01) == expected
    assert [shape[-1] for shape in shapes] == [4]


def test_a_sweep_factors_one_stacked_eigvals_call_per_degree(monkeypatch):
    # the benchmark's 161-point curve: one quartic call, where solving each
    # point on its own factors three polynomials per point (483 in all); the
    # sign test clears every row's quintic, so none is factored
    psi1 = np.geomspace(0.5, 10.0, 161)
    table = ["general"] * 161, np.full(161, RELU_ZETA_SQ), psi1, np.full(161, 3.0), np.full(
        161, 0.0110078), np.full(161, math.nan)
    expected, _ = theory_columns(*table)
    shapes = _counting_eigvals(monkeypatch)
    columns, errors = theory_columns(*table)
    assert errors == {} and list(columns) == list(expected)
    assert all(columns[name].tolist() == expected[name].tolist() for name in expected)
    assert shapes == [(161, 4, 4)]


def test_optimal_lambda_factors_one_stacked_eigvals_call_per_degree_per_batch(monkeypatch):
    # the benchmark's optimal_lambda: its degree-8 stationarity polynomial in
    # chi, then one batch of its one stationary row and lambda_max, which
    # factors one quartic stack; the sign test clears both rows' quintics
    expected = rfridge.risk.optimal_lambda(2.0, RELU_ZETA_SQ, 2.0, 3.0, 10.0)
    shapes = _counting_eigvals(monkeypatch)
    assert rfridge.risk.optimal_lambda(2.0, RELU_ZETA_SQ, 2.0, 3.0, 10.0) == expected
    assert shapes == [(1, 8, 8), (2, 4, 4)]


def test_the_sign_test_clears_a_quintic_exactly_when_no_root_is_planted_on_the_interval():
    # quintics in chi with five real roots off [top, 0], at least half |top|
    # from it on either side, are cleared; the same quintics with one root
    # moved onto the interval, at top itself or inside, never are
    rng = np.random.default_rng(4)
    n = 2000
    top = -(10.0 ** rng.uniform(-6.0, 6.0, n))
    left = top[:, None] * rng.uniform(1.5, 100.0, (n, 5))
    right = -top[:, None] * rng.uniform(0.5, 100.0, (n, 5))
    roots = np.where(rng.random((n, 5)) < 0.5, left, right)
    quintics = lambda roots: np.array([np.poly(r) for r in roots])
    clear = rfridge.selfconsistent._clear_of_roots
    assert clear(quintics(roots), top[:, None]).all()
    roots[:, 0] = top * np.where(np.arange(n) % 2 == 0, 1.0, rng.uniform(0.0, 1.0, n))
    assert not clear(quintics(roots), top[:, None]).any()


def _log_box(seed, zeta_decades, decades, n=3000):
    """n rows drawn log10-uniform a column at a time, in the order zeta_sq,
    psi1, psi2, lambda_bar: zeta_sq within 10^+-zeta_decades, the rest
    within 10^+-decades."""
    rng = np.random.default_rng(seed)
    spans = (zeta_decades, decades, decades, decades)
    return np.array([10.0 ** rng.uniform(-d, d, n) for d in spans]).T.tolist()


def _quintic_roots_near(zeta_sq, psi1, psi2, top, dps=200):
    """The roots of the oracle's quintic in chi, built from the row's float
    parameters and factored by mpmath at dps digits, whose inclusion disk
    (five times mpmath's last correction) meets [top, 0]."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        z, p1, p2 = (mpmath.mpf(v) for v in (zeta_sq, psi1, psi2))
        b1, b2 = z * p1 - z - 1, z * p2 - z - 1
        n4, n3, n2, n1, n0 = z * z, z * (b1 + b2), b1 * b2 - z * (p1 + p2), -b1 * p2 - b2 * p1, p1 * p2
        quintic = [-z * n4, 3 * n4, 2 * n3 + z * n2, n2 + 2 * z * n1, 3 * z * n0, -n0]
        roots, err = mpmath.polyroots(quintic, maxsteps=2000, extraprec=800, error=True)
        return [r for r in roots if abs(r - min(max(mpmath.re(r), top), 0)) <= 5 * err]


@pytest.mark.parametrize("box,changed", [
    ((12, 6, 30), []),
    ((12, 6, 100), [1735]),
    ((5, 150, 300), [26, 104, 131, 362, 419, 477, 588, 628, 633, 836, 859, 1308, 1452, 1464,
                     1636, 1711, 1770, 1892, 2224, 2294, 2514, 2516, 2567, 2568, 2625]),
], ids=["30-decades", "100-decades", "300-decades"])
def test_the_sign_test_changes_only_refusals_that_mpmath_disproves(box, changed, monkeypatch):
    # every row keeps the outcome and bits it has when every quintic with a
    # chi* is factored, except the listed rows: each was refused through its
    # quintic's roots, and mpmath finds no root of that quintic on [chi*, 0]
    rows = _log_box(*box)
    points, chis = _batch_outcomes(rows)
    monkeypatch.setattr(rfridge.selfconsistent, "_clear_of_roots",
                        lambda quintics, top: np.zeros(len(quintics), dtype=bool))
    factored_points, factored_chis = _batch_outcomes(rows)
    _same_outcomes(points, factored_points)
    kept = [k for k in range(len(rows)) if k not in changed]
    _same_outcomes([chis[k] for k in kept], [factored_chis[k] for k in kept])
    for k in changed:
        refusal = factored_chis[k]
        assert type(refusal) in (RootSelectionAmbiguous, ValueError)
        assert str(refusal).startswith(("the root branch turns at chi = ",
                                        "the oracle's quintic in chi overflowed its companion"))
        assert chis[k] < 0.0 and _quintic_roots_near(*rows[k][:3], chis[k]) == []


def test_factored_and_cleared_rows_in_one_batch_equal_their_batches_of_one(monkeypatch):
    # the rows of the 100-decade box whose quintic the sign test cannot clear,
    # each followed by a row it clears: one quintic stack holds exactly the
    # former, and every row equals its batch of one
    rows = _log_box(12, 6, 100)
    clear, cleared = rfridge.selfconsistent._clear_of_roots, []
    monkeypatch.setattr(rfridge.selfconsistent, "_clear_of_roots",
                        lambda *args: cleared.append(clear(*args)) or cleared[-1])
    oracle = _AxisBatch(rows).oracle
    fallback = np.flatnonzero(~cleared[0] & np.isfinite(oracle)).tolist()
    passing = np.flatnonzero(cleared[0]).tolist()[:len(fallback)]
    assert len(fallback) == 71
    mixed = [rows[k] for pair in zip(fallback, passing) for k in pair]
    stacked, shapes = rfridge.selfconsistent._stacked_roots, []
    monkeypatch.setattr(rfridge.selfconsistent, "_stacked_roots",
                        lambda polys: shapes.append(polys.shape) or stacked(polys))
    points, chis = _batch_outcomes(mixed)
    assert shapes == [(142, 5), (71, 6)]
    singles = [_batch_outcomes([row]) for row in mixed]
    _same_outcomes(points, [single[0][0] for single in singles])
    _same_outcomes(chis, [single[1][0] for single in singles])


def test_oracle_rejects_bad_lambda():
    with pytest.raises(ValueError):
        chi_scalar_oracle(*PARAMS_A, 0.0)
    with pytest.raises(ValueError):
        chi_scalar_oracle(*PARAMS_A, -1.0)


def _pair_from_chi(chi, shape, u):
    """The pair a chi <= 0 determines at xi = i u for shape (zeta_sq, psi1, psi2),
    by the coupled equations' sum and product: nu_k = i (psi_k - s) / u,
    s = -zeta^2 chi / (1 - zeta^2 chi) - chi."""
    z, psi1, psi2 = shape
    s = -z * chi / (1.0 - z * chi) - chi
    return complex(0.0, (psi1 - s) / u), complex(0.0, (psi2 - s) / u)


def test_solved_pair_multiplies_back_to_the_oracle_chi():
    zeta_sq = math.pi / (math.pi - 2.0)
    params = (zeta_sq, 2.0, 3.0)
    lam_bar = 1e-3 / ((math.pi - 2.0) / (4.0 * math.pi))
    chi = chi_scalar_oracle(*params, lam_bar)
    point = solve_at(*params, lam_bar)
    nu1, nu2 = _pair_from_chi(chi, params, point.xi.imag)
    assert abs(nu1 - point.nu1) <= 1e-8 * max(1.0, abs(point.nu1))
    assert abs(nu2 - point.nu2) <= 1e-8 * max(1.0, abs(point.nu2))
    assert abs(point.nu1 * point.nu2 - chi) <= 1e-10 * max(1.0, abs(chi))


def test_symmetric_shapes_give_the_symmetric_pair():
    chi = chi_scalar_oracle(1.3, 2.0, 2.0, 0.5)
    point = solve_at(1.3, 2.0, 2.0, 0.5)
    assert point.nu1 == point.nu2
    assert point.nu1.imag == pytest.approx(math.sqrt(-chi), rel=1e-9)


def _scaled_roots(monkeypatch, factor):
    """Every candidate root of the batch multiplied by factor, as if a wrong branch."""
    negative = rfridge.selfconsistent._negative_roots
    monkeypatch.setattr(rfridge.selfconsistent, "_negative_roots",
                        lambda *args: negative(*args) * factor)


def test_a_wrong_chi_fails_the_map_residual(monkeypatch):
    # a chi 5% off does not solve the coupled equations, so its pair is rejected
    solve_at(*PARAMS_A, 0.01)
    _scaled_roots(monkeypatch, 1.05)
    with pytest.raises(NoConvergence, match="give 0 distinct checked points"):
        solve_at(*PARAMS_A, 0.01)


def test_a_tiny_chi_ten_times_off_fails_the_map_residual(monkeypatch):
    # chi is about -1e-9 here, so a bound absolute below |chi| = 1 would take
    # a chi ten times too large
    row = (1.0, 2.0, 3.0, 1e9)
    chi = chi_scalar_oracle(*row)
    assert -1e-8 < chi < -1e-10
    assert solve_at(*row).chi.real == pytest.approx(chi, rel=1e-14)
    _scaled_roots(monkeypatch, 10.0)
    with pytest.raises(NoConvergence, match="give 0 distinct checked points"):
        solve_at(*row)


def test_a_positive_root_is_never_a_candidate(monkeypatch):
    # left unpolished, the quartic's only real root is +0.3: neither route
    # takes it, and a row without a positive penalty fails validation
    monkeypatch.setattr(rfridge.selfconsistent, "_polish", lambda polys, chi: chi)
    monkeypatch.setattr(rfridge.selfconsistent, "_stacked_roots", lambda polys: (
        np.tile([0.3, 1.0 + 1.0j, 1.0 - 1.0j, 0.3 + 1.0j], (len(polys), 1)),
        np.zeros(len(polys), dtype=bool)))
    with pytest.raises(NoConvergence, match="^0 admissible quartic roots give 0 distinct"):
        solve_at(*PARAMS_A, _lambda_at(PARAMS_A, 0.3))
    with pytest.raises(RootSelectionAmbiguous, match="no real non-positive root"):
        chi_scalar_oracle(*PARAMS_A, 0.01)
    batch = _AxisBatch([(*PARAMS_A, 0.0)])
    point, chi = batch.point_errors[0], batch.chi_errors[0]
    assert type(point) is ValueError and point is chi
    assert str(point) == "lambda_bar must be finite and positive, got 0.0"


@settings(max_examples=40, deadline=None)
@given(
    log_z=st.floats(min_value=math.log(0.1), max_value=math.log(10.0)),
    log_p1=st.floats(min_value=math.log(0.1), max_value=math.log(10.0)),
    log_p2=st.floats(min_value=math.log(0.1), max_value=math.log(10.0)),
    log_lam=st.floats(min_value=math.log(1e-4), max_value=math.log(10.0)),
)
# equal shapes near the threshold, where each component of the pair cancels
@example(log_z=-2.0, log_p1=0.0, log_p2=0.0, log_lam=-9.0)
def test_routes_agree_and_invariants_hold(log_z, log_p1, log_p2, log_lam):
    z, p1, p2, lam_bar = (math.exp(v) for v in (log_z, log_p1, log_p2, log_lam))

    point = solve_at(z, p1, p2, lam_bar)
    assert point.residual <= 1e-12
    assert point.nu1.imag > 0.0 and point.nu2.imag > 0.0

    chi = chi_scalar_oracle(z, p1, p2, lam_bar)
    assert abs(point.chi.real - chi) <= 1e-14 * abs(chi)

    swapped = solve_at(z, p2, p1, lam_bar)
    assert abs(point.nu1 - swapped.nu2) <= 1e-12 * abs(point.nu1)
    assert abs(point.nu2 - swapped.nu1) <= 1e-12 * abs(point.nu2)


@pytest.mark.parametrize(
    "zeta_sq,psi1,psi2",
    [(2.7519, 1.0, 2.0), (1.0, 3.0, 0.5), (5.0, 4.0, 4.0), (1.0, 1.0, 2.0)],
)
def test_im_nu1_over_u_strictly_decreasing(zeta_sq, psi1, psi2):
    # Im nu1(iu) itself is not monotone in general; the ratio Im nu1(iu)/u is,
    # being a weighted average of 1/(s^2+u^2) against a positive measure.
    points = [solve_at(zeta_sq, psi1, psi2, u * u / (psi1 * psi2))
              for u in np.geomspace(0.05, 50.0, 50).tolist()]
    vals = [point.nu1.imag / point.xi.imag for point in points]
    diffs = np.diff(vals)
    assert np.all(diffs < 0.0)
